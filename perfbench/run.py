"""orliczalg benchmark: battery, witness and norms workloads.

    python3 perfbench/run.py --workload battery|witness|norms|all --seed N
                             --seconds S --trace 0|1

Each workload runs in a fresh worker process (``worker.py``) with one
thread, after ``SETUP_PROBES`` set-up-only processes, so ``setup_s`` is a
median over several process starts. The inputs come from ``--seed`` only.

--trace 0 prints the end-to-end metrics: ``run_s`` (median seconds of
one pass), ``setup_s`` (process start to the first timed call) and
``peak_rss_mb`` (peak resident set of the worker). The shared host's own
speed drifts by a third within a minute, so ``run_s`` and ``setup_s``
are normalised to a reference host speed by ``speed.py``; their
wall-clock medians are on the summary line. --trace 1 prints the
per-layer metrics of a traced run and its overhead. The failure share
(failed / attempted operations) is printed on the summary line and
carried by the ``attempted`` and ``failed`` keys. A failed correctness
gate makes the command exit 1.

The last stdout line is the JSON result; the same, with run metadata,
is written to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.speed import REFERENCE_S  # noqa: E402

PACKAGE_DIR = ROOT / "src" / "orliczalg"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("battery", "witness", "norms")
SETUP_PROBES = 4
#: all processes of one workload must end within this, inside the 180 s a run may take
WORKLOAD_TIMEOUT_S = 170.0


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("ORLICZALG_CONFIG", "PYTHONPATH")}
    # one thread: numpy's BLAS would otherwise start one per core
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, float, dict]:
    """Run worker.py; return (its set-up seconds, the same normalised to the
    reference host speed, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = _monotonic()
    timeout = max(0.0, deadline - spawned)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:g} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    result = json.loads(out.strip().splitlines()[-1])
    setup = result["ready_clock"] - spawned
    return setup, setup * REFERENCE_S / result["kernel_s"], result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace)]
    deadline = _monotonic() + WORKLOAD_TIMEOUT_S
    spawns = [_spawn([*base, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    spawns.append(_spawn(base, deadline))
    setups = [wall for wall, _, _ in spawns]
    result = spawns[-1][2]
    passes = result["pass_s"]
    out = {"workload": name, "attempted": result["attempted"], "failed": result["failed"],
           "problems": result["problems"], "setup_samples_s": setups, "pass_s": passes,
           "python": result["python"], "numpy": result["numpy"]}
    if trace:
        traced = result["traced_pass_s"]
        metrics = {k: (v, _unit(k)) for k, v in result["layers"].items()}
        traced_s, untraced_s = statistics.median(traced), statistics.median(passes)
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out.update(traced_pass_s=traced, edges=result["edges"])
    else:
        out.update(normalised_pass_s=result["normalised_pass_s"],
                   speed_samples=result["speed_samples"])
        metrics = {"run_s": (statistics.median(result["normalised_pass_s"]), "s"),
                   "setup_s": (statistics.median(n for _, n, _ in spawns), "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


def metadata(seed: int) -> dict:
    uname = os.uname()
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "os": f"{uname.sysname} {uname.release} {uname.machine}",
            "commit": _git_commit(), "seed": seed,
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in sorted(PACKAGE_DIR.glob("*.py")))}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _summary(r: dict, trace: int) -> str:
    m = r["metrics"]
    frac = r["failed"] / r["attempted"] if r["attempted"] else float("nan")
    head = f"{r['workload']}: fail_frac={frac:.4g} ({r['failed']}/{r['attempted']} operations)"
    if trace:
        return (f"{head} trace.run_s={m['trace.run_s']['value']:.4f} s "
                f"untraced={m['trace.untraced_run_s']['value']:.4f} s "
                f"overhead={m['trace.overhead_s']['value']:.4f} s "
                f"(n={len(r['traced_pass_s'])} pairs)")
    return (f"{head} run_s={m['run_s']['value']:.4f} s (median of {len(r['pass_s'])} passes; "
            f"wall {statistics.median(r['pass_s']):.4f} s) "
            f"setup_s={m['setup_s']['value']:.4f} s (median of {len(r['setup_samples_s'])}; "
            f"wall {statistics.median(r['setup_samples_s']):.4f} s) "
            f"peak_rss_mb={m['peak_rss_mb']['value']:.2f} MB")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for r in results:
        print(_summary(r, args.trace))
        for problem in r["problems"]:
            print(f"  {r['workload']} problem: {problem}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    final = {"correct": all(r["failed"] == 0 for r in results),
             "attempted": sum(r["attempted"] for r in results),
             "failed": sum(r["failed"] for r in results),
             "metrics": metrics}

    meta.update(python=results[0]["python"], numpy=results[0]["numpy"])
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "result": final, "workloads": results},
                                   indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
