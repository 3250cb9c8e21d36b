"""One workload in one process with one thread; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Set-up (imports, groups, pairs, the first pass's inputs) ends at the
``ready_clock`` it reports, read from CLOCK_MONOTONIC, which on Linux is
shared by every process, so the parent can subtract its own spawn time,
and the median time of the speed kernel (``speed.py``) just after it.
Then passes run until ``--seconds`` have passed (at least ``MIN_PASSES``
untraced ones, or one traced pair), or until a pass fails a gate.
Pass k takes the k-th seed drawn from Random(--seed), so every pass has
fresh inputs and a run is reproducible from its seed.

With --trace 0 every pass is untraced and timed, both in wall seconds
and in seconds normalised to a reference host speed (``speed.py``).
With --trace 1 passes come in pairs on the same inputs, one traced and
one not, in alternating order; the per-layer figures come from the
traced ones, and the tracing overhead is the difference of the two
medians. Counts come from the first traced pass, so they repeat exactly
for a seed; times are medians over traced passes.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import tracer as tr  # noqa: E402
from perfbench.speed import Sampler, time_kernel  # noqa: E402
from perfbench.workloads import WORKLOADS, Gate  # noqa: E402

MIN_PASSES = 3
#: kernel runs after set-up whose median gives the host speed at set-up
SPEED_PROBES = 20


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_package():
    import orliczalg
    import orliczalg.cli  # noqa: F401  (the package __init__ does not import cli)

    src = (ROOT / "src").resolve()
    if not Path(orliczalg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"orliczalg imported from {orliczalg.__file__}, not {src}")
    return orliczalg


def _timed_pass(workload, inputs, context=None):
    """(seconds, gate) for one pass inside ``context`` (a tracer's
    ``installed()`` or a speed ``Sampler``); an exception fails every
    operation of the pass."""
    start = time.perf_counter()
    try:
        with context or nullcontext():
            outputs = workload.run(inputs)
    except Exception:
        seconds = time.perf_counter() - start
        gate = Gate(attempted=workload.operations)
        gate.fail(workload.operations, traceback.format_exc(limit=3).strip())
        return seconds, gate
    seconds = time.perf_counter() - start
    return seconds, workload.check(inputs, outputs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    orliczalg = _import_package()
    import numpy

    workload = WORKLOADS[args.workload](orliczalg)
    seeds = Random(args.seed)
    inputs = workload.prepare(seeds.randrange(2**31))
    ready_clock = _monotonic()
    kernel_s = statistics.median(time_kernel() for _ in range(SPEED_PROBES))
    result = {"ready_clock": ready_clock, "kernel_s": kernel_s,
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    gate = Gate()
    times: list[float] = []
    normalised: list[float] = []
    speed_samples = 0
    traced_times: list[float] = []
    traced: list[tr.Tracer] = []
    start = time.perf_counter()
    while True:
        if args.trace:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for with_trace in order:
                tracer = tr.Tracer() if with_trace else None
                seconds, pass_gate = _timed_pass(workload, inputs,
                                                 tracer and tracer.installed())
                (traced_times if with_trace else times).append(seconds)
                if with_trace:
                    traced.append(tracer)
                gate.merge(pass_gate)
            done = True
        else:
            sampler = Sampler()
            seconds, pass_gate = _timed_pass(workload, inputs, sampler)
            times.append(seconds)
            normalised.append(sampler.normalise(seconds))
            speed_samples += len(sampler.samples)
            gate.merge(pass_gate)
            done = len(times) >= MIN_PASSES
        if gate.failed or (done and time.perf_counter() - start >= args.seconds):
            break
        inputs = workload.prepare(seeds.randrange(2**31))

    result.update(attempted=gate.attempted, failed=gate.failed, problems=gate.problems,
                  pass_s=times, normalised_pass_s=normalised, speed_samples=speed_samples,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.trace:
        result.update(traced_pass_s=traced_times, layers=_layer_metrics(traced),
                      edges=[[p, c, n] for (p, c), n in sorted(traced[0].edges.items())])
    print(json.dumps(result))
    return 0


def _layer_metrics(traced: list[tr.Tracer]) -> dict[str, float]:
    """Counts from the first traced pass; seconds as medians over all of them."""
    per_pass = [t.metrics() for t in traced]
    out = dict(per_pass[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(m[key] for m in per_pass)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
