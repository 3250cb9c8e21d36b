"""N-functions and complementary pairs.

An N-function is a convex even Phi: R -> [0, inf) with Phi(0) = 0,
Phi(x)/x -> 0 as x -> 0+ and Phi(x)/x -> inf as x -> inf; convexity plus
Phi(0) = 0 makes it strictly increasing on [0, inf), hence invertible.
The complementary function is the convex conjugate restricted to the
nonnegative axis,

    Psi(y) = sup{ x*|y| - Phi(x) : x >= 0 },

attained at x = phi^{-1}(y), the inverse of the derivative. Every
constructor supplies the derivative and its inverse in closed form (a
table's is the exact inverse of its piecewise-linear derivative), and
everything is evaluated on demand. The inverse Phi^{-1} is a closed form
for power, cosh-1 and tables (a table's Phi is quadratic on each
segment); every other N-function inverts by the one log-coordinate solve
``numerics.invert_increasing``.

Catalog (classical examples):

    power(p):          Phi(x) = x^p / p,                complement y^q / q, 1/p + 1/q = 1
    entropy():         Phi(x) = (1+x) log(1+x) - x,     complement e^y - y - 1
    cosh_minus_one():  Phi(x) = cosh(x) - 1,            complement y asinh(y) - sqrt(1+y^2) + 1

plus expression-free tabulated functions where the derivative column is
authoritative and the value column is validated against its integral.
Each N-function is a bare map on [0, domain cap], where the catalog
states the cap in closed form. The domain is checked once, where a value
enters: ``NFunction.__call__``, ``deriv`` and ``inverse``,
``norms.modular`` and ``numerics.invert_increasing``; past the cap a
bare ``evaluate`` or ``derivative`` is undefined.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CapExceededError, CheckResult, InvalidNFunctionError, SpecFormatError
from .numerics import geometric_grid, invert_increasing

#: catalog caps sit where Phi reaches this value, or at a round point below
OVERFLOW_GUARD = 1e300


@dataclass(frozen=True, eq=False)
class NFunction:
    """A Young function of N-type, entered through (eval, deriv) closures.

    ``evaluate`` and ``derivative`` are bare maps on [0, domain_cap]: they
    neither check nor extend that domain. ``__call__``, ``deriv`` and
    ``inverse`` raise CapExceededError past it; the first two apply abs,
    which makes the function even. ``derivative_inverse`` is the inverse
    of the derivative on its range, ``evaluate_inverse`` a closed form of
    Phi^{-1} on (0, Phi(domain cap)], or None where Phi^{-1} runs the
    shared solve ``invert_increasing``, to bracket collapse. An N-function
    equals and hashes as itself only: each constructor builds fresh
    closures, which compare by identity anyway, so two separately built
    ``power(2)`` are distinct (as memo keys too).
    """

    label: str
    evaluate: Callable[[float], float]
    derivative: Callable[[float], float]
    domain_cap: float
    derivative_inverse: Callable[[float], float]
    evaluate_inverse: Callable[[float], float] | None = None

    def _capped(self, x: float) -> float:
        """|x|, or CapExceededError when it exceeds the domain cap."""
        a = abs(x)
        if a > self.domain_cap:
            raise CapExceededError(
                f"{self.label}: |x| = {a:g} exceeds domain cap {self.domain_cap:g}")
        return a

    def __call__(self, x: float) -> float:
        return self.evaluate(self._capped(x))

    def deriv(self, x: float) -> float:
        return self.derivative(self._capped(x))

    def inverse(self, t: float) -> float:
        """Phi^{-1}(t) for 0 <= t <= Phi(domain cap): ``evaluate_inverse``, or
        the shared solve where it is None."""
        if t < 0:
            raise ValueError(f"{self.label}: inverse requires t >= 0, got {t:g}")
        if t == 0.0:
            return 0.0
        if t > self.evaluate(self.domain_cap):
            raise CapExceededError(
                f"{self.label}: t = {t:g} above Phi(domain cap) = "
                f"{self.evaluate(self.domain_cap):g}")
        if self.evaluate_inverse is None:
            return invert_increasing(self.evaluate, t, cap=self.domain_cap).x
        return self.evaluate_inverse(t)


def _horner(coefficients: tuple[float, ...], x: float) -> float:
    """The polynomial with these coefficients, highest degree first, at x."""
    total = 0.0
    for c in coefficients:
        total = total * x + c
    return total


#: (1+x) log(1+x) - x = x^2 sum_{k>=2} (-1)^k x^(k-2) / (k (k-1)); 16 terms
#: keep 5e-16 relative below x = 0.125, where the closed form cancels
_ENTROPY_SERIES = tuple((-1.0) ** k / (k * (k - 1)) for k in range(17, 1, -1))
#: e^y - y - 1 = y^2 sum_{k>=2} y^(k-2) / k!; 14 terms keep 5e-16 below y = 0.5
_EXP_SERIES = tuple(1.0 / math.factorial(k) for k in range(15, 1, -1))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def power(p: float) -> NFunction:
    """Phi(x) = x^p / p for 1 < p <= 1e8."""
    if not p > 1.0:
        raise InvalidNFunctionError(f"power kind requires p > 1, got {p}")
    if p > 1e8:  # x^p reaches p * OVERFLOW_GUARD at the cap, a float up to p ~ 1.8e8
        raise SpecFormatError(f"power kind requires p <= 1e+08, got {p:g}")

    cap = math.exp((math.log(OVERFLOW_GUARD) + math.log(p)) / p)  # x^p / p = OVERFLOW_GUARD

    def ev(x: float) -> float:
        return x ** p / p

    def dv(x: float) -> float:
        return x ** (p - 1.0)

    def dv_inv(y: float) -> float:
        return y ** (1.0 / (p - 1.0)) if y > 0.0 else 0.0

    def ev_inv(t: float) -> float:
        # (p t)^(1/p), then one Newton step on x^p / p = t: 1/p rounds where
        # it is inexact, which the power multiplies at small t
        x = min((p * t) ** (1.0 / p), cap)
        y = x ** (p - 1.0)
        return min(x - (x * y / p - t) / y, cap)

    return NFunction(label=f"power(p={p:g})", evaluate=ev, derivative=dv,
                     domain_cap=cap, derivative_inverse=dv_inv, evaluate_inverse=ev_inv)


def entropy() -> NFunction:
    """Phi(x) = (1+x) log(1+x) - x."""

    def ev(x: float) -> float:
        if x < 0.125:
            return _horner(_ENTROPY_SERIES, x) * x * x
        return (1.0 + x) * math.log1p(x) - x

    return NFunction(label="entropy", evaluate=ev, derivative=math.log1p,
                     domain_cap=1e297, derivative_inverse=math.expm1)


def entropy_dual() -> NFunction:
    """Phi(y) = e^y - y - 1, the closed-form complement of entropy()."""

    def ev(y: float) -> float:
        if y < 0.5:
            return _horner(_EXP_SERIES, y) * y * y
        return math.expm1(y) - y

    return NFunction(label="exp-minus-linear", evaluate=ev, derivative=math.expm1,
                     domain_cap=math.log(OVERFLOW_GUARD), derivative_inverse=math.log1p)


def cosh_minus_one() -> NFunction:
    """Phi(x) = cosh(x) - 1."""
    cap = math.acosh(OVERFLOW_GUARD)

    def ev(x: float) -> float:
        s = math.sinh(0.5 * x)  # 2 sinh(x/2)^2: cosh(x) - 1 cancels at small x
        return 2.0 * s * s

    def ev_inv(t: float) -> float:
        return min(2.0 * math.asinh(math.sqrt(0.5 * t)), cap)

    return NFunction(label="cosh-1", evaluate=ev, derivative=math.sinh, domain_cap=cap,
                     derivative_inverse=math.asinh, evaluate_inverse=ev_inv)


def cosh_dual() -> NFunction:
    """Phi(y) = y asinh(y) - sqrt(1+y^2) + 1, the closed-form complement of cosh-1."""

    def ev(y: float) -> float:
        # sqrt(1+y^2) - 1 = y^2 / (sqrt(1+y^2) + 1), which does not cancel at small y
        return y * math.asinh(y) - y * y / (math.hypot(1.0, y) + 1.0)

    return NFunction(label="asinh-integral", evaluate=ev, derivative=math.asinh,
                     domain_cap=1e150, derivative_inverse=math.sinh)


def from_table(rows: Sequence[Sequence[float]]) -> NFunction:
    """Expression-free N-function from (x, Phi(x), phi(x)) triples.

    The derivative column is authoritative: evaluation integrates its
    piecewise-linear interpolant exactly, which keeps (eval, deriv)
    consistent and convex by construction. The Phi column is only
    validated against that integral; a disagreement rejects the table.
    The last abscissa becomes the domain cap. The derivative's inverse is
    exact: it interpolates the slope column back to x, returns the left
    end of a run of equal slopes (every point of the run attains the
    same x y - Phi(x)), and raises CapExceededError above the last slope.
    Phi^{-1} is exact too: on a segment Phi is cum + s h + a h^2 in
    h = x - x_j, whose root is taken in the form 2c / (s + sqrt(s^2 + 4ac)),
    which does not cancel.
    """
    if len(rows) < 3:
        raise InvalidNFunctionError("table needs at least 3 rows")
    xs = [float(r[0]) for r in rows]
    phis = [float(r[1]) for r in rows]
    slopes = [float(r[2]) for r in rows]
    if xs[0] != 0.0 or phis[0] != 0.0 or slopes[0] != 0.0:
        raise InvalidNFunctionError("table must start with the row (0, 0, 0)")
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1]:
            raise InvalidNFunctionError("table abscissae must be strictly increasing")
        if slopes[i] < slopes[i - 1]:
            raise InvalidNFunctionError("derivative column must be nondecreasing (convexity)")
        if slopes[i] <= 0.0:
            raise InvalidNFunctionError("derivative must be positive for x > 0 (strict growth)")
    cum = [0.0]
    for i in range(1, len(xs)):
        cum.append(cum[-1] + 0.5 * (slopes[i - 1] + slopes[i]) * (xs[i] - xs[i - 1]))
        if abs(cum[i] - phis[i]) > 1e-6 * (1.0 + abs(phis[i])):
            raise InvalidNFunctionError(
                f"table row {i}: value column {phis[i]:g} inconsistent with the "
                f"integrated derivative {cum[i]:g}")

    def dv(x: float) -> float:
        j = bisect_right(xs, x) - 1
        if j >= len(xs) - 1:
            return slopes[-1]
        t = (x - xs[j]) / (xs[j + 1] - xs[j])
        return slopes[j] + t * (slopes[j + 1] - slopes[j])

    def ev(x: float) -> float:
        j = bisect_right(xs, x) - 1
        if j >= len(xs) - 1:  # x at the cap
            return cum[-1]
        return cum[j] + 0.5 * (slopes[j] + dv(x)) * (x - xs[j])

    def dv_inv(y: float) -> float:
        j = bisect_left(slopes, y)  # slopes[0] = 0, so y = 0 gives x = 0
        if j == len(slopes):
            raise CapExceededError(
                f"tabulated: derivative stays below {y:g} up to the domain cap")
        if slopes[j] == y:
            return xs[j]
        t = (y - slopes[j - 1]) / (slopes[j] - slopes[j - 1])
        return xs[j - 1] + t * (xs[j] - xs[j - 1])

    def ev_inv(t: float) -> float:
        j = min(bisect_right(cum, t), len(cum) - 1) - 1
        s, width = slopes[j], xs[j + 1] - xs[j]
        a, c = 0.5 * (slopes[j + 1] - s) / width, t - cum[j]
        h = 2.0 * c / (s + math.hypot(s, 2.0 * math.sqrt(a) * math.sqrt(c)))
        return min(xs[j] + h, xs[j + 1])

    return NFunction(label="tabulated", evaluate=ev, derivative=dv, domain_cap=xs[-1],
                     derivative_inverse=dv_inv, evaluate_inverse=ev_inv)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def conjugate_value(phi: NFunction, y: float) -> tuple[float, bool]:
    """(sup_{x in [0, cap]} x|y| - Phi(x), truncated?).

    ``truncated`` is True when |y| is beyond the derivative's range within
    the domain cap, so the reported supremum is cap-limited.
    """
    a = abs(y)
    if a == 0.0:
        return 0.0, False
    if phi.derivative(phi.domain_cap) < a:
        x = phi.domain_cap
        return x * a - phi.evaluate(x), True
    x = min(phi.derivative_inverse(a), phi.domain_cap)  # the inverse may round past the cap
    return x * a - phi.evaluate(x), False


def conjugate(phi: NFunction) -> NFunction:
    """Numeric complementary N-function of phi, evaluated on demand on
    [0, phi'(Phi's domain cap)], where the supremum is attained."""

    def ev(y: float) -> float:
        return conjugate_value(phi, y)[0]

    return NFunction(label=f"conjugate({phi.label})", evaluate=ev,
                     derivative=phi.derivative_inverse,
                     domain_cap=phi.derivative(phi.domain_cap),
                     derivative_inverse=phi.derivative)


@dataclass(frozen=True)
class ComplementaryPair:
    """A Young pair (Phi, Psi) with Psi the complement of Phi."""

    phi: NFunction
    psi: NFunction
    construction: str  # "closed-form" | "numeric"

    def swap(self) -> "ComplementaryPair":
        return ComplementaryPair(phi=self.psi, psi=self.phi, construction=self.construction)


def numeric_pair(phi: NFunction) -> ComplementaryPair:
    return ComplementaryPair(phi=phi, psi=conjugate(phi), construction="numeric")


def pair_power(p: float) -> ComplementaryPair:
    phi = power(p)  # rejects p <= 1 before the exponent q = p / (p - 1) is formed
    if p > 1e7:  # the double q is then the exact conjugate of a different p
        raise SpecFormatError(f"closed-form power requires p <= 1e+07, got {p:g}; "
                              'use "construction": "numeric"')
    return ComplementaryPair(phi=phi, psi=power(p / (p - 1.0)), construction="closed-form")


def pair_entropy() -> ComplementaryPair:
    return ComplementaryPair(phi=entropy(), psi=entropy_dual(), construction="closed-form")


def pair_cosh() -> ComplementaryPair:
    return ComplementaryPair(phi=cosh_minus_one(), psi=cosh_dual(), construction="closed-form")


#: The four pairs exercised by the default battery.
CATALOG_PAIR_NAMES = ("power-2", "power-3", "entropy", "cosh")


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def young_gap(pair: ComplementaryPair, x: float, y: float) -> float:
    """Phi(|x|) + Psi(|y|) - |x||y|; nonnegative up to float slack, and ~0
    when |y| equals the derivative of Phi at |x|."""
    return pair.phi(x) + pair.psi(y) - abs(x) * abs(y)


def inverse_product_ratio(pair: ComplementaryPair, t: float) -> float:
    """Phi^{-1}(t) Psi^{-1}(t) / t; always in (1, 2] for a true pair."""
    if not t > 0.0:
        raise ValueError(f"inverse product ratio requires t > 0, got {t:g}")
    return pair.phi.inverse(t) * pair.psi.inverse(t) / t


def _capped_grid(lo: float, hi: float, cap: float, count: int) -> list[float]:
    """geometric_grid(lo, hi, count); only when its last point exceeds the cap,
    count log-spaced points from lo to min(hi, cap), none above the cap."""
    grid = geometric_grid(lo, hi, count)
    if grid[-1] <= cap:
        return grid
    top = min(hi, cap)
    # exp/log round-tripping can overshoot the cap by one ulp
    return [min(x, top) for x in geometric_grid(lo, top, count)]


def validate_nfunction(phi: NFunction) -> None:
    """Desk-scale check of the N-function axioms on a geometric grid.

    Raises InvalidNFunctionError naming the first failed axiom. The limit
    conditions are checked structurally: the ratio Phi(x)/x must decrease
    decade by decade toward 0 and increase decade by decade toward the cap.
    The leading grid points where Phi(x) rounds to 0.0 (x^200 / 200 at
    x = 1e-6) are float underflow, not evidence, and are left out; a zero
    after a positive value still fails strict growth.
    """
    if phi(0.0) != 0.0:
        raise InvalidNFunctionError(f"{phi.label}: Phi(0) = {phi(0.0):g} != 0")
    grid = _capped_grid(1e-6, 1e6, phi.domain_cap, 25)
    vals = [phi(x) for x in grid]
    first = next((i for i, v in enumerate(vals) if v != 0.0), len(vals))
    grid, vals = grid[first:], vals[first:]
    for (a, fa), (b, fb) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if not fa < fb:
            raise InvalidNFunctionError(
                f"{phi.label}: not strictly increasing between {a:g} and {b:g}")
        mid = phi(0.5 * (a + b))
        if mid > 0.5 * (fa + fb) + 1e-12 * (1.0 + fb):
            raise InvalidNFunctionError(
                f"{phi.label}: midpoint convexity fails between {a:g} and {b:g}")
    ratios = [v / x for x, v in zip(grid, vals)]
    lower = [r for x, r in zip(grid, ratios) if x <= 1.0]
    upper = [r for x, r in zip(grid, ratios) if x >= 1.0]
    if len(lower) >= 2 and not all(a < b for a, b in zip(lower, lower[1:])):
        raise InvalidNFunctionError(f"{phi.label}: Phi(x)/x fails to decay toward 0")
    if len(upper) >= 2 and not all(a < b for a, b in zip(upper, upper[1:])):
        raise InvalidNFunctionError(f"{phi.label}: Phi(x)/x fails to grow toward the cap")


def validate_pair(pair: ComplementaryPair) -> None:
    """Young inequality on a grid square plus biconjugacy against phi."""
    validate_nfunction(pair.phi)
    validate_nfunction(pair.psi)
    xs = _capped_grid(1e-3, 1e2, pair.phi.domain_cap, 9)
    ys = _capped_grid(1e-3, 1e2, pair.psi.domain_cap, 9)
    for x in xs:
        for y in ys:
            gap = young_gap(pair, x, y)
            if gap < -1e-9 * (1.0 + pair.phi(x) + pair.psi(y)):
                raise InvalidNFunctionError(
                    f"({pair.phi.label}, {pair.psi.label}): Young gap {gap:g} "
                    f"at ({x:g}, {y:g})")
    again = conjugate(pair.psi)
    for x in _capped_grid(1e-2, 1e2, min(pair.phi.domain_cap, again.domain_cap), 9):
        want = pair.phi(x)
        got = again(x)
        if abs(got - want) > 1e-6 * (1.0 + abs(want)):
            raise InvalidNFunctionError(
                f"({pair.phi.label}, {pair.psi.label}): biconjugacy off at x = {x:g}: "
                f"{got:g} vs {want:g}")


def axiom_checks(pair: ComplementaryPair) -> tuple[CheckResult, CheckResult]:
    """The axiom clauses; ``validate_pair`` raises on the first that fails."""
    validate_pair(pair)
    return (CheckResult("axioms", True, 0.0, "convexity, limits, strict growth on grids"),
            CheckResult("young-and-biconjugacy", True, 0.0, "grid square + double conjugate"))


def young_equality_check(pair: ComplementaryPair) -> CheckResult:
    """|Phi(x) + Psi(y) - x y| at y = phi'(x) within 1e-8, or within the
    rounding of terms of size x y once that is larger: each term comes
    out of an exp or a power whose argument is near ln(x y), so it
    carries about eps (4 + ln(x y)) relative error (p = 200 at x = 10
    has x y = 1e200, where 1e-8 is far below one ulp). The grid stops where
    phi'(x) reaches Psi's cap, which rounding can overshoot by one ulp."""
    phi, psi = pair.phi, pair.psi
    slacks = []
    for x in _capped_grid(1e-2, 1e1, min(phi.domain_cap, psi.derivative(psi.domain_cap)), 7):
        y = min(phi.deriv(x), psi.domain_cap)
        xy = x * y
        tol = max(1e-8, sys.float_info.epsilon * xy * (4.0 + math.log(max(xy, 1.0))))
        slacks.append(tol - abs(young_gap(pair, x, y)))
    return CheckResult("young-equality-at-derivative", min(slacks) >= 0.0, min(slacks),
                       "gap at (x, phi'(x))")


def inverse_product_check(pair: ComplementaryPair,
                          tol_slack: float) -> tuple[float, float, CheckResult]:
    """(min, max, clause) of the ratio on 41 points of t in [1e-3, 1e3], capped
    where Phi or Psi reaches its top value: in (1, 2 + tol_slack]."""
    top = min(pair.phi.evaluate(pair.phi.domain_cap), pair.psi.evaluate(pair.psi.domain_cap))
    ratios = [inverse_product_ratio(pair, t) for t in _capped_grid(1e-3, 1e3, top, 41)]
    low, high = min(ratios), max(ratios)
    return low, high, CheckResult("inverse-product-range", low > 1.0 and high <= 2.0 + tol_slack,
                                  min(low - 1.0, 2.0 + tol_slack - high),
                                  f"t in [1e-3, {'1e3' if top >= 1e3 else f'{top:g}'}], 41 points")
