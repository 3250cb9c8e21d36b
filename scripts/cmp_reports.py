"""Machine reports of a base revision and the working tree, compared byte for byte.

    python3 scripts/cmp_reports.py --base REV

The base revision is extracted with ``git archive`` into a temporary
directory (``bench_pairs.extract``), and both sides run the same commands:
the suite and witness runs at fixed seeds, ``nfunc check`` of each catalog
pair in both constructions, one table of runs per edge that a change has
touched (each table's comment names its inputs and the exit code it
expects), ``--help`` of every command and verb, and every golden run of
the working tree's ``tests/test_golden.py``. Each report is the exit code,
the standard output and the standard error (each line prefixed
``stderr=``) of one command. The script names each report that differs,
with the keys whose values differ or that only one side has, and sizes
each numeric change by |change - base| / |base|; it exits 1 if any report
differs, else 0. Reports are kept in a temporary directory, with its path
printed, only when one differs. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract

SUITE_SEEDS = (7, 21, 901)
WITNESS_SEEDS = (3, 13)
#: |f| = 0.5 and |g| = 1 on [-5, 5] with turning phases, so the level
#: integral stays at 5.5 and the instance is in the level-11 set
COMPLEX_F = json.dumps([[x, 0.3, 0.4] if x % 2 == 0 else [x, -0.4, 0.3] for x in range(-5, 6)])
COMPLEX_G = json.dumps([[x, 0.6, -0.8] if x % 2 == 0 else [x, -0.8, -0.6]
                        for x in range(-5, 6)])
#: -1 + 0.5i on all of Zwindow17: the quadrant (-1, 1) wins, and the
#: translates of V = [-1, 1] cover [-16, 16], leaving the support at +-17 out
EDGE_F = json.dumps([[x, -1, 0.5] for x in range(-17, 18)])
#: f and g on different supports, overlapping on [-1, 1]
SHIFTED_F = json.dumps([[x, 0.5, 0] for x in range(-12, 2)])
SHIFTED_G = json.dumps([[x, 0.25, -0.5] for x in range(-1, 15)])
WITNESS_RUNS = {
    "witness-complex-probes100": ["porosity", "witness", "--probes", "100",
                                  "--f", COMPLEX_F, "--g", COMPLEX_G],
    "witness-vradius2-window64-probes100": ["porosity", "witness", "--probes", "100",
                                            "--v-radius", "2", "--window", "64"],
    "witness-window17-quadrant-m1p1-probes50": ["porosity", "witness", "--window", "17",
                                                "--f", EDGE_F, "--n", "60", "--R", "64",
                                                "--probes", "50"],
    "witness-shifted-supports-probes100": ["porosity", "witness", "--probes", "100",
                                           "--f", SHIFTED_F, "--g", SHIFTED_G],
}
#: the default f and g, the indicator of [-5, 5], on a window too small to hold them
SMALL_WINDOW_RUNS = {
    "witness-window4": ["porosity", "witness", "--window", "4"],
    "suite-Zwindow4-power-2": ["suite", "--groups", "Zwindow4", "--pairs", "power-2"],
}
Z1 = '{"type": "Zn", "n": 1}'
Z6 = '{"type": "Zn", "n": 6}'
Z8 = '{"type": "Zn", "n": 8}'
Z2XZ2XZ3 = ('{"type": "product", "factors": [{"type": "Zn", "n": 2}, '
            '{"type": "Zn", "n": 2}, {"type": "Zn", "n": 3}]}')
#: a custom table whose cap 10 is one ulp below the last grid point
TABLE_TO_10 = '{"kind":"custom","table":[[0,0,0],[1,0.5,1],[2,2,2],[4,8,4],[10,50,10]]}'
#: a custom table whose slope stays 1 on [1, 2], capped at 3
TABLE_FLAT_RUN = '{"kind":"custom","table":[[0,0,0],[1,0.5,1],[2,1.5,1],[3,3,2]]}'
CONSTRUCTIONS = ("closed-form", "numeric")
#: single clauses next to their values, where the suite folds them
CLAUSE_RUNS = {
    "nfunc-check-custom-cap10": ["nfunc", "check", "--nfunction", TABLE_TO_10],
    "group-check-Z1": ["group", "check", "--group", Z1],
    "group-check-Z2xZ2xZ3": ["group", "check", "--group", Z2XZ2XZ3],
    "characters-brute-Z1": ["characters", "brute", "--group", Z1],
}
#: Z16 listed by increasing element order (0, 8, 4, 12, 2, ...): its greedy
#: generators 8, 4, 2, 1 are dependent
Z16_BY_ORDER = sorted(range(16), key=lambda x: (16 // math.gcd(x, 16), x))
Z16_RELABELLED = json.dumps({"type": "table", "elements": Z16_BY_ORDER,
                             "mul": [[Z16_BY_ORDER.index((a + b) % 16) for b in Z16_BY_ORDER]
                                     for a in Z16_BY_ORDER], "identity": 0})
Z2XZ4XZ3 = ('{"type": "product", "factors": [{"type": "Zn", "n": 2}, '
            '{"type": "Zn", "n": 4}, {"type": "Zn", "n": 3}]}')
#: dependent generators and the window's edge, where set arithmetic leaves the carrier
EDGE_RUNS = {
    "characters-enumerate-Z16-by-order": ["characters", "enumerate", "--group", Z16_RELABELLED],
    "characters-brute-Z16-by-order": ["characters", "brute", "--group", Z16_RELABELLED],
    "characters-enumerate-Z2xZ4xZ3": ["characters", "enumerate", "--group", Z2XZ4XZ3],
    "group-leptin-Zwindow16-past-the-edge": [
        "group", "leptin", "--group", '{"type": "Zwindow", "radius": 16}',
        "--compact", "[-10, 10]", "--epsilon", "0.5"],
}
W16 = '{"type": "Zwindow", "radius": 16}'
#: eps whose t = 1/((1+eps) lam(V)) is a normal float far below 1
SMALL_T_RUNS = {
    "aphi-plateau-Zwindow16-power-2-eps1e150": [
        "aphi", "plateau", "--group", W16, "--nfunction", '{"kind": "power", "p": 2}',
        "--set", "[0]", "--epsilon", "1e150"],
    "aphi-plateau-Zwindow16-entropy-eps1e50": [
        "aphi", "plateau", "--group", W16, "--nfunction", '{"kind": "entropy"}',
        "--set", "[0]", "--epsilon", "1e50"],
    "unit-check-Z6-cosh-eps1e20": ["unit", "check", "--group", Z6,
                                   "--nfunction", '{"kind": "cosh"}', "--epsilon", "1e20"],
}
#: function data on Z8 whose norms stay inside both tables' caps
Z8_SPREAD = json.dumps([[0, 1, 0], [1, 0.75, 0.25], [2, -0.5, 0], [3, 0.25, -0.5],
                        [4, 1, 0], [5, 0.5, 0.5], [6, -0.75, 0], [7, 0.5, 0]])
#: the verbs that read a tabulated pair's derivative inverse, through the
#: numeric conjugate and the Amemiya solve of the swapped pair
TABLE_RUNS = {}
for _table, _spec in (("table-cap10", TABLE_TO_10), ("table-flat-run", TABLE_FLAT_RUN)):
    TABLE_RUNS.update({
        f"nfunc-conjugate-{_table}": ["nfunc", "conjugate", "--nfunction", _spec],
        f"norm-orlicz-Z8-{_table}": ["norm", "orlicz", "--group", Z8,
                                      "--nfunction", _spec, "--function", Z8_SPREAD],
        f"aphi-bound-Z8-{_table}": ["aphi", "bound", "--group", Z8,
                                     "--nfunction", _spec, "--function", Z8_SPREAD],
        f"unit-check-Z6-{_table}": ["unit", "check", "--group", Z6,
                                     "--nfunction", _spec],
    })

#: N-function input that builds no N-function, or leaves the conjugate's domain
PARSE_ERROR_RUNS = {
    "nfunc-conjugate-entropy-points688": ["nfunc", "conjugate", "--nfunction",
                                          '{"kind": "entropy"}', "--points", "688"],
    "nfunc-conjugate-power-1.5-points1.2e100": ["nfunc", "conjugate", "--nfunction",
                                                '{"kind": "power", "p": 1.5}',
                                                "--points", "1.2e100"],
    "nfunc-check-power-1": ["nfunc", "check", "--nfunction", '{"kind": "power", "p": 1}'],
    "nfunc-check-table-two-rows": ["nfunc", "check", "--nfunction",
                                   '{"kind": "custom", "table": [[0, 0, 0], [1, 0.5, 1]]}'],
}

Z4 = '{"type": "Zn", "n": 4}'
#: custom tables with domain caps 2 and 1
TABLE_TO_2 = '{"kind": "custom", "table": [[0, 0, 0], [1, 0.5, 1], [2, 2, 2]]}'
TABLE_TO_1 = '{"kind": "custom", "table": [[0, 0, 0], [0.5, 0.125, 0.5], [1, 0.5, 1]]}'
#: values that leave a table's domain: a scope error (exit 3)
CAP_RUNS = {
    "norm-modular-Z4-past-the-cap": ["norm", "modular", "--group", Z4, "--nfunction", TABLE_TO_2,
                                     "--function", "[[0, 5, 0]]"],
    "norm-charfn-Z4-past-the-cap": ["norm", "charfn", "--group", Z4, "--nfunction", TABLE_TO_2,
                                    "--subset", "[0]"],
    "aphi-submult-Z4-past-the-cap": ["aphi", "submult", "--group", Z4, "--nfunction", TABLE_TO_1,
                                     "--left", "[[0, 1, 0]]", "--right", "[[1, 1, 0]]"],
    "unit-check-Z4-past-the-cap": ["unit", "check", "--group", Z4, "--nfunction", TABLE_TO_1],
}
#: the character search under a zero slack tolerance (exit 0), and a power
#: spec whose p is a JSON string (exit 2)
INPUT_RUNS = {
    "characters-brute-Z12-tol-slack0": ["characters", "brute", "--group",
                                        '{"type": "Zn", "n": 12}', "--tol-slack", "0"],
    "norm-luxemburg-Z4-power-p-string": ["norm", "luxemburg", "--group", Z4, "--nfunction",
                                         '{"kind": "power", "p": "3"}',
                                         "--function", "[[0, 1, 0]]"],
}

#: every command and its verbs, for the --help runs
COMMAND_VERBS = {
    "nfunc": ("conjugate", "check"),
    "norm": ("modular", "luxemburg", "orlicz", "charfn"),
    "group": ("check", "convolve", "leptin"),
    "aphi": ("bound", "plateau", "submult"),
    "porosity": ("witness",),
    "segal": ("report",),
    "unit": ("check",),
    "characters": ("enumerate", "brute"),
    "suite": (),
}
HELP_RUNS = {"help": ["--help"]}
for _command, _verbs in COMMAND_VERBS.items():
    HELP_RUNS[f"help-{_command}"] = [_command, "--help"]
    HELP_RUNS.update({f"help-{_command}-{verb}": [_command, verb, "--help"] for verb in _verbs})

_GOLDEN = ("import json, sys; sys.path[:0] = ['tests', 'src']; import test_golden as g; "
           "print(json.dumps({'runs': g.RUNS, 'pairs': g.PAIR_SPECS}))")


def commands() -> dict[str, list[str]]:
    """Report name -> CLI arguments, from the working tree's golden runs."""
    out = subprocess.run([sys.executable, "-c", _GOLDEN], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout
    golden = json.loads(out)
    runs = {f"suite-seed{seed}": ["suite", "--seed", str(seed)] for seed in SUITE_SEEDS}
    for pair, spec in golden["pairs"].items():
        for seed in WITNESS_SEEDS:
            runs[f"witness-{pair}-probes100-seed{seed}"] = [
                "porosity", "witness", "--probes", "100", "--seed", str(seed),
                "--nfunction", spec]
        for construction in CONSTRUCTIONS:
            runs[f"nfunc-check-{pair}-{construction}"] = [
                "nfunc", "check", "--nfunction",
                json.dumps({**json.loads(spec), "construction": construction})]
    runs.update(WITNESS_RUNS)
    runs.update(SMALL_WINDOW_RUNS)
    runs.update(CLAUSE_RUNS)
    runs.update(EDGE_RUNS)
    runs.update(SMALL_T_RUNS)
    runs.update(TABLE_RUNS)
    runs.update(PARSE_ERROR_RUNS)
    runs.update(CAP_RUNS)
    runs.update(INPUT_RUNS)
    runs.update(HELP_RUNS)
    runs.update({f"golden-{name}": list(argv) for name, argv in golden["runs"].items()})
    return runs


def write_reports(root: Path, runs: dict[str, list[str]], dest: Path) -> None:
    """Each command's exit code, stdout and stderr, run on root's source, in dest/<name>.txt."""
    dest.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name, argv in runs.items():
        proc = subprocess.run([sys.executable, "-m", "orliczalg.cli", *argv], cwd=root,
                              env=env, capture_output=True, text=True, timeout=600)
        stderr = "".join(f"stderr={line}\n" for line in proc.stderr.splitlines())
        (dest / f"{name}.txt").write_text(f"exit={proc.returncode}\n{proc.stdout}{stderr}",
                                          encoding="utf-8")


def differing(a: Path, b: Path) -> list[str]:
    """Names of the files that differ between directories a and b, or that
    only one of them holds."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [name for name in names
            if not ((a / name).is_file() and (b / name).is_file()
                    and (a / name).read_bytes() == (b / name).read_bytes())]


def _fields(path: Path) -> dict[str, str]:
    """A report's lines as key -> value; a line without "=" is a key of its own."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return {key: value for key, _, value in (line.partition("=") for line in lines)}


def changed_keys(a: Path, b: Path) -> list[str]:
    """Keys whose value differs between report files a and b, or that only one has."""
    before, after = _fields(a), _fields(b)
    return [key for key in dict.fromkeys([*before, *after])
            if before.get(key) != after.get(key)]


def _number(value: str | None) -> float | None:
    """A report value as a number: the value itself, or a check line's slack."""
    if value is None:
        return None
    verdict, _, slack = value.partition(" slack=")
    try:
        return float(slack.split(" ")[0] if verdict in ("pass", "FAIL") else value)
    except ValueError:
        return None


def relative_change(before: str | None, after: str | None) -> float | None:
    """|after - before| / |before| where both values parse as numbers, else None."""
    b, a = _number(before), _number(after)
    if a is None or b is None:
        return None
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b else math.inf


def sized_changes(a: Path, b: Path) -> str:
    """The relative change of each changed key of report files a and b whose
    values parse as numbers, and the largest among the non-slack keys; ""
    where no changed key is numeric."""
    before, after = _fields(a), _fields(b)
    sizes = {key: size for key in changed_keys(a, b)
             if (size := relative_change(before.get(key), after.get(key))) is not None}
    text = ", ".join(f"{key} {size:.3g}" for key, size in sizes.items())
    solved = {key: size for key, size in sizes.items()
              if not key.startswith(("check.", "slack."))}
    if solved:
        key = max(solved, key=solved.__getitem__)
        text += f"; largest non-slack: {key} {solved[key]:.3g}"
    return text


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    args = ap.parse_args(argv)
    runs = commands()
    base_root = extract(args.base)
    out = Path(tempfile.mkdtemp(prefix="cmp-reports-"))
    diff: list[str] = []
    try:
        write_reports(base_root, runs, out / "base")
        write_reports(ROOT, runs, out / "change")
        diff = differing(out / "base", out / "change")
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
        if not diff:
            shutil.rmtree(out, ignore_errors=True)
    for name in diff:
        base, change = out / "base" / name, out / "change" / name
        if base.is_file() and change.is_file():
            print(f"differs: {name}: {', '.join(changed_keys(base, change))}")
        else:
            print(f"differs: {name}: only in {'base' if base.is_file() else 'change'}")
    print(f"{len(runs) - len(diff)} of {len(runs)} reports identical to {args.base}")
    if diff:
        print(f"reports kept in {out}/base and {out}/change")
    for name in diff:
        base, change = out / "base" / name, out / "change" / name
        if base.is_file() and change.is_file() and (sizes := sized_changes(base, change)):
            print(f"relative: {name}: {sizes}")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
