"""Machine reports compared byte for byte with committed golden files.

The files under ``tests/golden/`` are the machine reports of a fixed set
of runs. A change that is meant to keep every reported float (a
speedup, a refactor) must keep this test passing unchanged. A change that
moves floats on purpose regenerates the files and names the changed keys,
which this command prints for each file it rewrites:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import orliczalg.cli as cli

GOLDEN_DIR = Path(__file__).with_name("golden")

PAIR_SPECS = {
    "power-2": '{"kind": "power", "p": 2}',
    "power-3": '{"kind": "power", "p": 3}',
    "entropy": '{"kind": "entropy"}',
    "cosh": '{"kind": "cosh"}',
}
Z8 = '{"type": "Zn", "n": 8}'
Z8_FUNCTION = json.dumps([[0, 0.5, 0.25], [1, -1.25, 0.0], [3, 0.0, 2.0],
                          [4, 0.125, 0.0], [6, 0.75, -0.5]])

RUNS = {"suite-seed7": ("suite", "--seed", "7")}
for _name, _spec in PAIR_SPECS.items():
    RUNS[f"witness-{_name}-seed7"] = ("porosity", "witness", "--probes", "20",
                                      "--seed", "7", "--nfunction", _spec)
    for _verb in ("luxemburg", "orlicz", "modular"):
        RUNS[f"norm-{_verb}-{_name}"] = ("norm", _verb, "--group", Z8,
                                         "--nfunction", _spec, "--function", Z8_FUNCTION)
RUNS.update({
    "nfunc-check-entropy": ("nfunc", "check", "--nfunction", PAIR_SPECS["entropy"]),
    "nfunc-conjugate-cosh": ("nfunc", "conjugate", "--nfunction", PAIR_SPECS["cosh"]),
    "aphi-bound-Z8-power-3": ("aphi", "bound", "--group", Z8,
                              "--nfunction", PAIR_SPECS["power-3"],
                              "--function", Z8_FUNCTION),
    "segal-report-Z6-entropy": ("segal", "report", "--group", '{"type": "Zn", "n": 6}',
                                "--nfunction", PAIR_SPECS["entropy"], "--samples", "6",
                                "--seed", "7"),
    "unit-check-Z6-cosh": ("unit", "check", "--group", '{"type": "Zn", "n": 6}',
                           "--nfunction", PAIR_SPECS["cosh"]),
    "characters-brute-Z2xZ2": ("characters", "brute", "--group",
                               '{"type": "product", "factors": '
                               '[{"type": "Zn", "n": 2}, {"type": "Zn", "n": 2}]}'),
    "characters-brute-Z12": ("characters", "brute", "--group", '{"type": "Zn", "n": 12}'),
    "characters-brute-Z2xZ2xZ3": ("characters", "brute", "--group",
                                  '{"type": "product", "factors": [{"type": "Zn", "n": 2}, '
                                  '{"type": "Zn", "n": 2}, {"type": "Zn", "n": 3}]}'),
    "group-check-S3": ("group", "check", "--group", '{"type": "S3"}'),
    "group-check-Zwindow256-seed7": ("group", "check", "--group",
                                     '{"type": "Zwindow", "radius": 256}', "--seed", "7"),
    "aphi-plateau-Zwindow64-entropy": ("aphi", "plateau", "--group",
                                       '{"type": "Zwindow", "radius": 64}',
                                       "--nfunction", PAIR_SPECS["entropy"],
                                       "--set", "[-1,0,1]", "--epsilon", "0.5"),
    "aphi-submult-Z8-power-3": ("aphi", "submult", "--group", Z8,
                                "--nfunction", PAIR_SPECS["power-3"],
                                "--left", Z8_FUNCTION, "--right", Z8_FUNCTION),
    "norm-charfn-Z8-cosh": ("norm", "charfn", "--group", Z8,
                            "--nfunction", PAIR_SPECS["cosh"], "--subset", "[0,1,3,4,6]"),
    "characters-enumerate-Z6": ("characters", "enumerate", "--group",
                                '{"type": "Zn", "n": 6}'),
    "group-leptin-Zwindow128": ("group", "leptin", "--group",
                                '{"type": "Zwindow", "radius": 128}',
                                "--compact", "[-1,0,1]", "--epsilon", "0.5"),
    "group-convolve-Z8": ("group", "convolve", "--group", Z8,
                          "--left", Z8_FUNCTION, "--right", Z8_FUNCTION),
    "aphi-bound-Zwindow32-power-3": (
        "aphi", "bound", "--group", '{"type": "Zwindow", "radius": 32}',
        "--nfunction", PAIR_SPECS["power-3"],
        "--function", json.dumps([[x, 0.5, 0.0] for x in range(-2, 3)])),
    "aphi-bound-Z6-cosh": (
        "aphi", "bound", "--group", '{"type": "Zn", "n": 6}',
        "--nfunction", PAIR_SPECS["cosh"],
        "--function", json.dumps([[x, 0.75, 0.0] for x in range(6)])),
})
# just inside the float range: a larger epsilon, R or value exits 2 or 3
W16 = '{"type": "Zwindow", "radius": 16}'
RUNS.update({
    "aphi-plateau-Zwindow16-cosh-eps1e10": ("aphi", "plateau", "--group", W16, "--nfunction",
                                            PAIR_SPECS["cosh"], "--set", "[0]",
                                            "--epsilon", "1e10"),
    "aphi-plateau-Zwindow16-power-2-eps1e10": ("aphi", "plateau", "--group", W16,
                                               "--nfunction", PAIR_SPECS["power-2"],
                                               "--set", "[0]", "--epsilon", "1e10"),
    "unit-check-Z6-cosh-eps1e10": ("unit", "check", "--group", '{"type": "Zn", "n": 6}',
                                   "--nfunction", PAIR_SPECS["cosh"], "--epsilon", "1e10"),
    "witness-R1e154": ("porosity", "witness", "--R", "1e154", "--probes", "5"),
    "group-convolve-Z8-1e150": ("group", "convolve", "--group", Z8,
                                "--left", "[[0, 1e150, 0]]", "--right", "[[0, 1e150, 0]]"),
    "aphi-submult-Z8-power-2-1e150": ("aphi", "submult", "--group", Z8,
                                      "--nfunction", PAIR_SPECS["power-2"],
                                      "--left", "[[0, 1e150, 0]]", "--right", "[[1, 1e150, 0]]"),
    "aphi-bound-Z8-power-2-1e307": ("aphi", "bound", "--group", Z8,
                                    "--nfunction", PAIR_SPECS["power-2"],
                                    "--function", "[[0, 1e307, 0]]"),
})


def machine_report(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_machine_report_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert machine_report(RUNS[name]) == expected


def changed_keys(old: str, new: str) -> list[str]:
    """Keys whose value differs between two reports, or that only one has."""
    before, after = (dict(line.split("=", 1) for line in text.splitlines())
                     for text in (old, new))
    return [key for key in dict.fromkeys([*before, *after])
            if before.get(key) != after.get(key)]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(RUNS.items()):
        path = GOLDEN_DIR / f"{name}.txt"
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        new = machine_report(argv)
        if new != old:
            path.write_text(new, encoding="utf-8")
            print(f"wrote {name}.txt: {', '.join(changed_keys(old, new))}", file=sys.stderr)
