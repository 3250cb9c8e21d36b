"""N-function axioms, conjugation against closed forms, inequality checks."""

import math
import sys
from bisect import bisect_right
from random import Random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczalg import cli, nfunctions
from orliczalg.errors import CapExceededError, InvalidNFunctionError, SpecFormatError
from orliczalg.nfunctions import (
    CATALOG_PAIR_NAMES,
    ComplementaryPair,
    conjugate,
    cosh_minus_one,
    entropy,
    from_table,
    inverse_product_ratio,
    numeric_pair,
    pair_cosh,
    pair_entropy,
    pair_power,
    power,
    validate_nfunction,
    validate_pair,
    young_gap,
)
from orliczalg.numerics import geometric_grid
from orliczalg.specio import pair_from_name

ALL_PAIRS = [pair_from_name(name) for name in CATALOG_PAIR_NAMES]


def test_power_conjugate_matches_dual_exponent():
    # Phi = x^3/3 has complement y^{3/2}/(3/2)
    psi = conjugate(power(3.0))
    for y in (0.5, 1.0, 2.0):
        want = y ** 1.5 / 1.5
        assert abs(psi(y) - want) <= 1e-8 * want


def test_entropy_conjugate_value_at_one():
    # sup_x x - (1+x)log(1+x) + x is attained at x = e - 1, value e - 2
    psi = conjugate(entropy())
    assert abs(psi(1.0) - (math.e - 2.0)) <= 1e-9


def test_conjugate_at_zero_is_zero():
    for pair in ALL_PAIRS:
        assert conjugate(pair.phi)(0.0) == 0.0


def test_cosh_conjugate_matches_stated_closed_form():
    # y asinh(y) - sqrt(1+y^2) + 1, checked rather than trusted
    psi = conjugate(cosh_minus_one())
    for y in geometric_grid(1e-2, 1e2, 11):
        want = y * math.asinh(y) - math.hypot(1.0, y) + 1.0
        assert abs(psi(y) - want) <= 1e-6 * (1.0 + want)


def test_inverse_against_closed_forms():
    # Phi = x^2/2 at t = 2 and the arccosh oracle for cosh - 1 at t = 1
    assert abs(power(2.0).inverse(2.0) - 2.0) <= 1e-12
    assert abs(cosh_minus_one().inverse(1.0) - math.acosh(2.0)) <= 1e-10
    for pair in ALL_PAIRS:
        assert pair.phi.inverse(0.0) == 0.0


def test_cosh_inverse_against_200_bit_arithmetic():
    # cosh(x) - 1 = 2 sinh(x/2)^2 has no cancellation, so Phi^{-1}(t) =
    # 2 asinh(sqrt(t/2)) is found to a few ulps; evaluated as cosh(x) - 1
    # it was off by 4e-5 at t = 1e-12 and read 0 from t = 1e-16. Below
    # about 1e-116 the inverse's bracket [0, 1] is too wide for the step cap
    # of the solve, for power(2) as well, so the grid stops at 1e-100.
    phi = cosh_minus_one()
    with mpmath.workprec(200):
        for t in [m * 10.0 ** -e for e in range(101) for m in (1.0, 2.5, 6.0)]:
            if t > 1.0:
                continue
            exact = 2 * mpmath.asinh(mpmath.sqrt(mpmath.mpf(t) / 2))
            assert abs(phi.inverse(t) - exact) <= 4 * sys.float_info.epsilon * exact, t


def test_inverse_is_two_sided():
    for pair in ALL_PAIRS:
        phi = pair.phi
        for t in geometric_grid(1e-3, 1e3, 13):
            x = phi.inverse(t)
            assert abs(phi(x) - t) <= 1e-10 * (1.0 + t)
            assert abs(phi.inverse(phi(x)) - x) <= 1e-10 * (1.0 + x)


def test_inverse_domain_errors():
    with pytest.raises(ValueError):
        power(2.0).inverse(-1.0)
    with pytest.raises(CapExceededError):
        cosh_minus_one().inverse(1e305)


def test_young_gap_equality_cases():
    quad = pair_power(2.0)
    assert young_gap(quad, 3.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert young_gap(quad, 1.0, 0.0) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 10.0), st.floats(0.0, 10.0),
       st.sampled_from(CATALOG_PAIR_NAMES))
def test_young_gap_nonnegative(x, y, name):
    pair = pair_from_name(name)
    gap = young_gap(pair, x, y)
    assert gap >= -1e-9 * (1.0 + pair.phi(x) + pair.psi(y))


def test_young_gap_small_at_derivative():
    for pair in ALL_PAIRS:
        for x in geometric_grid(1e-2, 10.0, 9):
            gap = young_gap(pair, x, pair.phi.deriv(x))
            assert abs(gap) <= 1e-8 * (1.0 + pair.phi(x))


def test_inverse_product_quadratic_hits_two():
    assert inverse_product_ratio(pair_power(2.0), 1.0) == pytest.approx(2.0, abs=1e-8)


def test_inverse_product_sweep_all_pairs():
    for pair in ALL_PAIRS:
        for t in geometric_grid(1e-3, 1e3, 41):
            r = inverse_product_ratio(pair, t)
            assert 1.0 < r <= 2.0 + 1e-9, (pair.phi.label, t, r)


def test_biconjugacy_recovers_phi():
    for pair in ALL_PAIRS:
        again = conjugate(conjugate(pair.phi))
        for x in geometric_grid(1e-2, 1e2, 9):
            want = pair.phi(x)
            assert abs(again(x) - want) <= 1e-6 * (1.0 + want)


def test_validate_pair_accepts_catalog():
    for pair in ALL_PAIRS:
        validate_pair(pair)


def test_validate_rejects_non_nfunction():
    # linear near zero: Phi(x)/x has a positive floor, not an N-function
    from orliczalg.nfunctions import NFunction
    bad = NFunction(label="linearish", evaluate=lambda x: x,
                    derivative=lambda x: 1.0, domain_cap=1e6,
                    derivative_inverse=lambda y: 0.0)
    with pytest.raises(InvalidNFunctionError):
        validate_nfunction(bad)


def test_validate_skips_leading_underflow_but_not_a_later_zero():
    from orliczalg.nfunctions import NFunction
    validate_nfunction(power(200.0))  # x^200 / 200 is 0.0 at x = 1e-6
    assert power(200.0)(1e-6) == 0.0
    dip = NFunction(label="dip", evaluate=lambda x: 0.0 if 1e-3 < x < 1e-2
                    else x * x, derivative=lambda x: 2.0 * x, domain_cap=1e6,
                    derivative_inverse=lambda y: 0.5 * y)
    with pytest.raises(InvalidNFunctionError, match="not strictly increasing"):
        validate_nfunction(dip)


def test_conjugate_truncation_flag():
    with pytest.raises(CapExceededError):
        conjugate(cosh_minus_one())(1e305)


def test_tabulated_function_round_trip():
    rows = [[x, x * x / 2.0, x] for x in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    tab = from_table(rows)
    assert tab(1.5) == pytest.approx(1.125)
    assert tab.inverse(2.0) == pytest.approx(2.0)
    pair = numeric_pair(tab)
    assert pair.psi(1.0) == pytest.approx(0.5, rel=1e-10)


TABLE_TO_10 = [[0, 0, 0], [1, 0.5, 1], [2, 2, 2], [4, 8, 4], [10, 50, 10]]
TABLE_FLAT_RUN = [[0, 0, 0], [1, 0.5, 1], [2, 1.5, 1], [3, 3, 2]]  # slope 1 on [1, 2]


def _random_convex_table(rng: Random) -> list[list[float]]:
    """(x, Phi, phi) rows with random gaps and slope steps, some of them flat runs."""
    rows, x, phi, slope = [[0.0, 0.0, 0.0]], 0.0, 0.0, 0.0
    for _ in range(rng.randint(2, 12)):
        step = rng.uniform(0.01, 5.0)
        rise = 0.0 if slope > 0.0 and rng.random() < 0.3 else rng.uniform(0.01, 5.0)
        phi += (slope + 0.5 * rise) * step
        x, slope = x + step, slope + rise
        rows.append([x, phi, slope])
    return rows


def _inverse_cases():
    rng = Random(23)
    return [TABLE_TO_10, TABLE_FLAT_RUN] + [_random_convex_table(rng) for _ in range(40)]


def test_table_derivative_inverse_round_trips_within_16_ulps():
    # phi(x) moves by phi''(x) ulp(x) between neighbouring floats x, so no
    # inverse can round-trip closer than that: the random tables, whose
    # phi'' reaches 500, allow it on top of the 16 ulps of y
    for case, rows in enumerate(_inverse_cases()):
        tab = from_table(rows)
        xs, slopes = [r[0] for r in rows], [r[2] for r in rows]
        for y in [slopes[-1] * k / 97.0 for k in range(1, 98)] + geometric_grid(
                1e-12, slopes[-1], 25):
            y = min(y, slopes[-1])
            x = tab.derivative_inverse(y)
            assert 0.0 <= x <= tab.domain_cap
            j = min(bisect_right(xs, x), len(xs) - 1)
            curvature = (slopes[j] - slopes[j - 1]) / (xs[j] - xs[j - 1]) if case >= 2 else 0.0
            assert abs(tab.deriv(x) - y) <= 16 * math.ulp(y) + curvature * math.ulp(x), (rows, y)


def test_table_derivative_inverse_at_knots_flat_runs_and_ends():
    for rows in _inverse_cases():
        tab = from_table(rows)
        xs, slopes = [r[0] for r in rows], [r[2] for r in rows]
        assert tab.derivative_inverse(0.0) == 0.0
        for j, (x, s) in enumerate(zip(xs, slopes)):
            # on a knot: x itself, or the left end of the run of equal slopes it ends
            left = min(i for i in range(len(xs)) if slopes[i] == s)
            assert tab.derivative_inverse(s) == xs[left], (rows, j)
            if j > left:  # strictly inside the run [xs[left], xs[j]]
                assert tab.derivative_inverse(s) < x
        # the last slope is the top of the derivative's range
        assert tab.derivative_inverse(slopes[-1]) <= tab.domain_cap
        with pytest.raises(CapExceededError):
            tab.derivative_inverse(math.nextafter(slopes[-1], math.inf))
    flat = from_table(TABLE_FLAT_RUN)
    assert flat.derivative_inverse(1.0) == 1.0  # phi = 1 on all of [1, 2]
    assert flat.derivative_inverse(1.5) == 2.5
    assert flat.derivative_inverse(2.0) == 3.0
    with pytest.raises(CapExceededError):
        flat.derivative_inverse(2.5)
    assert from_table(TABLE_TO_10).derivative_inverse(3.0) == 3.0


def test_an_nfunction_needs_its_derivative_inverse():
    from orliczalg.nfunctions import NFunction
    with pytest.raises(TypeError):
        NFunction(label="square", evaluate=lambda x: x * x,
                  derivative=lambda x: 2.0 * x, domain_cap=1e6)


def test_validate_pair_accepts_a_table_capped_below_the_grid_top():
    # the cap 8 is below the 1e2 top of validate_pair's grids, whose last
    # point must land on the cap rather than one ulp past it
    rows = [[x, x * x / 2.0, x] for x in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    validate_pair(numeric_pair(from_table(rows)))


def test_tabulated_rejects_inconsistent_value_column():
    rows = [[0.0, 0.0, 0.0], [1.0, 0.9, 1.0], [2.0, 2.0, 2.0]]
    with pytest.raises(InvalidNFunctionError):
        from_table(rows)


def test_tabulated_rejects_nonconvex_slopes():
    rows = [[0.0, 0.0, 0.0], [1.0, 0.5, 1.0], [2.0, 1.25, 0.5]]
    with pytest.raises(InvalidNFunctionError):
        from_table(rows)


def test_numeric_pair_matches_closed_form_pair():
    closed = pair_entropy()
    numeric = numeric_pair(entropy())
    for y in geometric_grid(1e-2, 1e1, 7):
        assert numeric.psi(y) == pytest.approx(closed.psi(y), rel=1e-8)


def test_swap_exchanges_roles():
    pair = pair_entropy()
    swapped = pair.swap()
    assert swapped.phi.label == pair.psi.label
    assert isinstance(swapped, ComplementaryPair)



# x^p / p at the cap rounds a few ulps above OVERFLOW_GUARD for p = 1.24, 2.5 and 9.01
CLOSED_FORM_PAIRS = {"power-2": pair_power(2.0), "power-3": pair_power(3.0),
                     "power-1.5": pair_power(1.5), "power-1.24": pair_power(1.24),
                     "power-2.5": pair_power(2.5), "power-9.01": pair_power(9.01),
                     "entropy": pair_entropy(), "cosh": pair_cosh()}


@pytest.mark.parametrize("name", CLOSED_FORM_PAIRS)
@pytest.mark.parametrize("construction", ["closed-form", "numeric"])
def test_phi_and_psi_are_finite_at_their_caps(name, construction):
    pair = CLOSED_FORM_PAIRS[name]
    if construction == "numeric":
        pair = numeric_pair(pair.phi)
    for fn in (pair.phi, pair.psi):
        assert math.isfinite(fn(fn.domain_cap)), fn.label


def test_power_is_finite_at_its_cap_up_to_the_max_exponent():
    for fn in (power(1e8), power(1e8 / (1e8 - 1.0))):
        assert math.isfinite(fn(fn.domain_cap)), fn.label
    with pytest.raises(SpecFormatError, match="requires p <= 1e\\+08"):
        power(2e8)  # x^p at the cap would overflow a float


def _domain_asserting(calls):
    """An NFunction constructor whose evaluate and derivative assert x <= domain_cap."""
    build = nfunctions.NFunction

    def within(fn, cap, label):
        def bare(x):
            calls.append(label)
            assert x <= cap, f"{label} read at {x!r}, past its domain cap {cap!r}"
            return fn(x)
        return bare

    def factory(**fields):
        cap, label = fields["domain_cap"], fields["label"]
        fields["evaluate"] = within(fields["evaluate"], cap, label)
        fields["derivative"] = within(fields["derivative"], cap, label)
        return build(**fields)

    return factory


@pytest.mark.parametrize("argv", [
    ("suite", "--seed", "7"),
    *(("porosity", "witness", "--probes", "20", "--nfunction", spec)
      for spec in ('{"kind": "power", "p": 2}', '{"kind": "power", "p": 3}',
                   '{"kind": "entropy"}', '{"kind": "cosh"}')),
], ids=["suite-seed7", "witness-power-2", "witness-power-3", "witness-entropy", "witness-cosh"])
def test_bare_maps_are_read_only_within_their_domain(monkeypatch, capsys, argv):
    # the catalog keeps no guard of its own: every reader stays within the cap
    calls = []
    monkeypatch.setattr(nfunctions, "NFunction", _domain_asserting(calls))
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out.endswith("passed=true\n")
    assert len(calls) > 100
