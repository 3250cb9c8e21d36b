"""Alternating base/change benchmark pairs, written to one evidence file.

    python3 scripts/bench_pairs.py --pr 7 [--base HEAD] [--pairs 10]

The change is the working tree; the base revision is extracted with
``git archive`` into a temporary directory (removed at the end), so the
run leaves no worktree behind. For each workload of BENCHMARK.json, pair
i runs ``perfbench/run.py --trace 0 --seed <901 + i>`` once on each side
for the benchmark's own ``run_seconds``, and the side that runs first
alternates from pair to pair, so a drift of the host's speed favours
neither. One traced run per side (``--trace 1 --seed 21``) then records
the work counters.

The output file BENCH_<pr>.json at the repo root holds, per workload and
end-to-end metric of BENCHMARK.json, both sides' samples with their
median and quartiles, the number of pairs the change won and a
``verdict`` (gain, regression, unresolved or within bound, printed in the
closing summary); the failed and attempted operation counts; the traced
counters of both sides and the names of those that differ; and host
metadata. Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
FIRST_SEED = 901
TRACE_SEED = 21


def extract(rev: str) -> Path:
    """The tree of rev, unpacked into a new temporary directory."""
    dest = Path(tempfile.mkdtemp(prefix="bench-base-"))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The final JSON line of one perfbench/run.py call in checkout root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1):  # 1: a correctness gate failed, still reported
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better than the base; ties count for neither."""
    if better == "lower":
        return sum(c < b for b, c in zip(base, change))
    return sum(c > b for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``within bound`` for one
    metric's paired samples.

    A gain wins at least nine tenths of the pairs and moves the median the
    better way by more than the base's interquartile range. A regression
    moves the median the worse way by more than ``bound`` times the base
    median (the benchmark's relative bound). Otherwise, where the base's
    interquartile range is wider than that bound, the runs cannot tell a
    change inside the bound from none, so the metric is unresolved unless
    every change run reads better than every base run. Anything else is
    within bound.
    """
    b, c = spread(base), spread(change)
    better_by = b["median"] - c["median"] if better == "lower" else c["median"] - b["median"]
    if 10 * wins(base, change, better) >= 9 * len(base) and better_by > b["q3"] - b["q1"]:
        return "gain"
    if -better_by > bound * abs(b["median"]):
        return "regression"
    separated = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
    if b["q3"] - b["q1"] > bound * abs(b["median"]) and not separated:
        return "unresolved"
    return "within bound"


def compare(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spread, the change's pair wins and the verdict."""
    out = {}
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "base": spread(base), "change": spread(change),
                     "change_wins": wins(base, change, m["better"]), "pairs": len(base),
                     "verdict": verdict(base, change, m["better"], m["bound"])}
    return out


def counters(result: dict) -> dict:
    """The deterministic metrics of a traced run: everything but seconds."""
    return {k: v["value"] for k, v in sorted(result["metrics"].items()) if v["unit"] != "s"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="label of the output file BENCH_<pr>.json")
    ap.add_argument("--base", default="HEAD", help="revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    started = time.time()
    load_start = os.getloadavg()
    base_root = extract(args.base)
    roots = {"base": base_root, "change": ROOT}
    try:
        report = {}
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run_bench(roots[side], workload, FIRST_SEED + i, seconds, 0))
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            traced = {side: counters(run_bench(roots[side], workload, TRACE_SEED, seconds, 1))
                      for side in SIDES}
            report[workload] = {
                "end_to_end": compare(runs, spec["end_to_end"]),
                "operations": {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                                      "failed": sum(r["failed"] for r in runs[side])}
                               for side in SIDES},
                "counters": traced,
                "counters_differ": sorted(k for k in traced["base"].keys() | traced["change"]
                                          if traced["base"].get(k) != traced["change"].get(k)),
            }
        base_lines = src_lines(base_root)
    finally:
        shutil.rmtree(base_root, ignore_errors=True)

    uname = os.uname()
    meta = {
        "base": git("rev-parse", args.base),
        "change_head": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [FIRST_SEED, FIRST_SEED + args.pairs - 1],
        "trace_seed": TRACE_SEED,
        "first_side": "base on even pairs, change on odd",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "os": f"{uname.sysname} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_s": round(time.time() - started, 1),
        "src_lines": {"base": base_lines, "change": src_lines(ROOT)},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({"meta": meta, "workloads": report}, indent=1) + "\n",
                   encoding="utf-8")
    for workload, r in report.items():
        cells = [f"{name} {m['base']['median']:.4g} -> {m['change']['median']:.4g} "
                 f"(wins {m['change_wins']}/{m['pairs']}, {m['verdict']})"
                 for name, m in r["end_to_end"].items()]
        print(f"{workload}: " + "; ".join(cells)
              + f"; counters differ: {r['counters_differ'] or 'none'}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
