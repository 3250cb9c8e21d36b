"""Phi^{-1} of every kind of N-function, and the catalog's stable forms, against mpmath.

An inverse x = Phi^{-1}(t) is measured by one Newton step from x taken in
mpmath: its relative distance from the true root is (Phi(x) - t) / (x
phi(x)) up to second order. The mpmath Phi is the textbook formula, which
cancels about 2 log2(1/x) bits at small x (sqrt(1 + y^2) - 1 in the cosh
complement), so it runs at 128 + 2 log2(1/x) bits: 2200 at x = 1e-300,
where 200 bits would cancel to nothing. The grid of t runs from 1e-300 to
Phi(cap), three mantissas per decade.
"""

import math

import mpmath
import pytest

from orliczalg.nfunctions import (
    cosh_dual,
    cosh_minus_one,
    entropy,
    entropy_dual,
    from_table,
    numeric_pair,
    power,
)
from orliczalg.numerics import invert_increasing

#: a table with a flat-slope (linear) segment last, Phi(cap) = 19.375
TABLE = [[0, 0, 0], [0.5, 0.0625, 0.25], [1, 0.375, 1], [2, 2.375, 3], [5, 14.375, 5],
         [6, 19.375, 5]]


def _table_phi(x):
    for (x0, v0, s0), (x1, _, s1) in zip(TABLE, TABLE[1:]):
        if x <= x1:
            h = x - x0
            return v0 + s0 * h + mpmath.mpf(s1 - s0) / (2 * (x1 - x0)) * h * h
    raise ValueError(x)


#: label -> (N-function, exact Phi in mpmath, bound on the inverse's relative error)
CASES = {
    "power-1.5": (power(1.5), lambda x: x ** mpmath.mpf(1.5) / mpmath.mpf(1.5), 3e-16),
    "power-2": (power(2.0), lambda x: x * x / 2, 3e-16),
    "power-3": (power(3.0), lambda x: x ** 3 / 3, 3e-16),
    "cosh-1": (cosh_minus_one(), lambda x: mpmath.cosh(x) - 1, 3e-16),
    "table": (from_table(TABLE), _table_phi, 3e-16),
    # solved: the root is the float of least residual under the float Phi,
    # so it carries Phi's own rounding, divided by x phi(x) / Phi(x) >= 1
    "entropy": (entropy(), lambda x: (1 + x) * mpmath.log1p(x) - x, 1e-15),
    "exp-minus-linear": (entropy_dual(), lambda y: mpmath.expm1(y) - y, 1e-15),
    "cosh-complement": (cosh_dual(),
                        lambda y: y * mpmath.asinh(y) - mpmath.sqrt(1 + y * y) + 1, 1e-15),
    "conjugate-entropy": (numeric_pair(entropy()).psi, lambda y: mpmath.expm1(y) - y, 2e-15),
}
CLOSED = ("power-1.5", "power-2", "power-3", "cosh-1", "table")


def _bits(x: float) -> int:
    return 128 + 2 * max(0, -math.frexp(x)[1])


def _grid(top: float) -> list[float]:
    grid = [float(f"{m}e{d}") for d in range(-300, 309) for m in (1, 2, 5)]
    return [t for t in grid if t < top] + [top]


def _relative_error(exact_phi, phi, x: float, t: float) -> float:
    """(Phi(x) - t) / (x phi(x)) in mpmath: x's relative distance from Phi^{-1}(t)."""
    with mpmath.workprec(_bits(x)):
        return abs(float((exact_phi(mpmath.mpf(x)) - t) / (mpmath.mpf(x) * phi.derivative(x))))


@pytest.mark.parametrize("label", CASES)
def test_inverse_is_close_to_mpmath_and_increasing_on_the_whole_range(label):
    phi, exact_phi, bound = CASES[label]
    previous = 0.0
    worst = 0.0
    for t in _grid(phi.evaluate(phi.domain_cap)):
        x = phi.inverse(t)
        assert previous < x <= phi.domain_cap, (t, x)
        previous = x
        worst = max(worst, _relative_error(exact_phi, phi, x, t))
    assert worst <= bound


@pytest.mark.parametrize("label", CLOSED)
def test_closed_form_inverse_agrees_with_the_shared_solve(label):
    phi = CASES[label][0]
    for t in _grid(phi.evaluate(phi.domain_cap)):
        x = phi.inverse(t)
        solved = invert_increasing(phi.evaluate, t, cap=phi.domain_cap).x
        assert abs(x - solved) <= 3e-16 * x, t


#: the stable forms and their textbook formulas
FORMS = {
    "entropy": (entropy(), lambda x: (1 + x) * mpmath.log1p(x) - x),
    "exp-minus-linear": (entropy_dual(), lambda y: mpmath.expm1(y) - y),
    "cosh-complement": (cosh_dual(),
                        lambda y: y * mpmath.asinh(y) - mpmath.sqrt(1 + y * y) + 1),
}


def _form_bound(label: str, x: float) -> float:
    # above its series, entropy's (1+x) log1p(x) - x carries the rounding of
    # log1p(x) times (1+x) log1p(x) / Phi(x), up to 35 at x = 0.125; a
    # series that holds 5e-16 there needs far more terms
    return 4e-15 if label == "entropy" and 0.125 <= x < 4.0 else 5e-16


@pytest.mark.parametrize("label", FORMS)
def test_catalog_forms_do_not_cancel(label):
    phi, exact_phi = FORMS[label]
    for x in (float(f"{m}e{d}") for d in range(-150, 3) for m in (1, 2, 5)):
        with mpmath.workprec(_bits(x)):
            exact = exact_phi(mpmath.mpf(x))
            assert abs(float((phi.evaluate(x) - exact) / exact)) <= _form_bound(label, x), x


def test_solved_inverse_of_a_conjugate_capped_below_one():
    # Phi = x^2 / 4 up to 0.3, so Psi = y^2 up to its cap 0.15: the solve
    # starts at min(1, cap), since from x = 1 it could only step down by e
    psi = numeric_pair(from_table([[0, 0, 0], [0.1, 0.0025, 0.05], [0.3, 0.0225, 0.15]])).psi
    for t in (1e-300, 1e-5, psi.evaluate(psi.domain_cap)):
        assert psi.inverse(t) == pytest.approx(math.sqrt(t), rel=4e-16)
