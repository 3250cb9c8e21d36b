"""The per-metric verdict of scripts/bench_pairs.py, on hand-made samples."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ten base samples: median 1.0, quartiles 0.98 and 1.02 (IQR 0.04)
BASE = [0.96, 0.97, 0.98, 0.98, 0.99, 1.01, 1.02, 1.02, 1.03, 1.04]


def shifted(samples, by):
    return [round(x + by, 10) for x in samples]


def test_base_spread(bench_pairs):
    spread = bench_pairs.spread(BASE)
    assert (spread["q1"], spread["median"], spread["q3"]) == pytest.approx((0.98, 1.0, 1.02))


@pytest.mark.parametrize("change, better, expected", [
    # every pair wins and the median falls by 0.1 > IQR 0.04
    (shifted(BASE, -0.1), "lower", "gain"),
    # higher is better: the mirror image
    (shifted(BASE, 0.1), "higher", "gain"),
    # 9 of 10 pairs win, the median falls by 0.05 > 0.04
    (shifted(BASE, -0.05)[:9] + [BASE[9] + 0.01], "lower", "gain"),
    # every pair wins, but by 0.03, inside the base IQR
    (shifted(BASE, -0.03), "lower", "within bound"),
    # 8 of 10 pairs win by a wide margin: not nine tenths
    (shifted(BASE, -0.1)[:8] + [BASE[8] + 0.01, BASE[9] + 0.01], "lower", "within bound"),
    # ties count for neither side
    (list(BASE), "lower", "within bound"),
    # worse by 0.2, inside the bound 0.24 x median 1.0
    (shifted(BASE, 0.2), "lower", "within bound"),
    # worse by 0.3, past the bound, whichever way is better
    (shifted(BASE, 0.3), "lower", "regression"),
    (shifted(BASE, -0.3), "higher", "regression"),
])
def test_verdict(bench_pairs, change, better, expected):
    assert bench_pairs.verdict(BASE, change, better, 0.24) == expected


@pytest.mark.parametrize("change, better, expected", [
    # the base IQR 0.04 is wider than the bound 0.02 x median 1.0: a change
    # of 0.01 either way cannot be told from none
    (shifted(BASE, 0.01), "lower", "unresolved"),
    (shifted(BASE, -0.01), "lower", "unresolved"),
    # every pair wins, by 0.03 inside the IQR, yet the runs overlap
    (shifted(BASE, 0.03), "higher", "unresolved"),
    # worse by 0.05, past the bound, stays a regression
    (shifted(BASE, 0.05), "lower", "regression"),
])
def test_verdict_under_a_spread_wider_than_the_bound(bench_pairs, change, better, expected):
    assert bench_pairs.verdict(BASE, change, better, 0.02) == expected


def test_verdict_of_runs_that_separate_under_a_wide_spread(bench_pairs):
    # the base IQR 0.21 spans the bound 0.02 x median 1.0, but every change
    # run reads below every base run: within bound, though not a gain
    base = [0.99, 0.99, 0.99, 1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.2]
    spread = bench_pairs.spread(base)
    assert spread["q3"] - spread["q1"] > 0.02 * spread["median"]
    assert bench_pairs.verdict(base, [0.985] * 10, "lower", 0.02) == "within bound"
    assert bench_pairs.verdict(base, [0.995] * 10, "lower", 0.02) == "unresolved"


def test_compare_stores_the_verdict_and_the_wins(bench_pairs):
    def runs(samples):
        return [{"metrics": {"run_s": {"value": x}}} for x in samples]

    metrics = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24}]
    out = bench_pairs.compare({"base": runs(BASE), "change": runs(shifted(BASE, -0.1))},
                              metrics)["run_s"]
    assert (out["verdict"], out["change_wins"], out["pairs"]) == ("gain", 10, 10)
    assert out["change"]["median"] == pytest.approx(0.9)
