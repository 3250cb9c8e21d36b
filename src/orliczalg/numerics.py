"""Scalar root-finding kernels.

One bracketed root kernel, ``regula_falsi``, serves every library solve:
the Luxemburg and Amemiya norm solves in ``norms``, and
``invert_increasing`` for the inverse Phi^{-1} of an N-function that has
no closed form for it (power, cosh-1 and tables have one; every
N-function carries the inverse of its derivative, which needs no solve).
It is the Anderson-Bjorck variant of regula falsi (Anderson and Bjorck,
BIT 13, 1973), which refines the Illinois rule of Dowell and Jarratt
(BIT 11, 1971): each step evaluates the secant point of the two ends of
opposite sign, and the value held for an end that is kept twice in a row
is scaled down by how much the other end's value just shrank (halved
where that says nothing), so both ends move and convergence is
superlinear. The kernel returns both ends with their values, and it
stops where the caller's ``done`` says so; each caller keeps the point
it certifies. The kernel is exact on a straight line, so callers hand it
the most nearly linear form of their map: ``log_root``, the one bracket
for an increasing map of a log coordinate, steps from the caller's first
point along its measured slope (or a lower bound on it), then along
secants, and hands the kernel the first sign change. The norm solves run
it on log rho against the log of their scale, which is a line for power
functions, and stop on the modular they evaluated, not on the value
handed to the kernel; Phi^{-1} runs it on log Phi against log x (slope
>= 1, since Phi(x)/x is nondecreasing), then finishes in x to bracket
collapse.

``bisect_increasing`` and ``golden_min`` are the linear methods the
kernel replaced. The library no longer calls them; they stay only as
reference routes for the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: step cap of every root solve
MAX_STEPS = 200
#: where ``invert_increasing`` leaves log coordinates for x
LOG_TOL = 1e-4


class Bracket(NamedTuple):
    """The ends of a root bracket after a solve, with the values of f there.

    ``lo < hi``; one of ``f_lo``, ``f_hi`` is <= 0 and the other > 0, and
    ``steps`` counts the evaluations of f the solve made. A named tuple:
    every solve builds one or more, at a third of a frozen dataclass's cost.
    """

    lo: float
    f_lo: float
    hi: float
    f_hi: float
    steps: int


def regula_falsi(f: Callable[[float], float], lo: float, f_lo: float, hi: float, f_hi: float,
                 *, done: Callable[[float], bool], max_steps: int = MAX_STEPS) -> Bracket:
    """Anderson-Bjorck regula falsi for a root of a monotone f on [lo, hi].

    ``f_lo`` and ``f_hi`` are f(lo) and f(hi); one must be <= 0 and the
    other > 0 (ValueError otherwise). Each step evaluates f once, at the
    secant point of the two ends, or at the midpoint where the secant
    point is not strictly inside (lo, hi) (an end of infinite value, or a
    step that rounds onto an end), and the new point replaces the end on
    its side. The value held for an end kept a second step in a row is
    scaled by m = 1 - f(x) / f(the end just replaced), or by 1/2 where
    m <= 0. Stops when ``done(f(x))`` holds for a new point x, when the
    midpoint itself collapses onto an end, or after ``max_steps`` steps.
    """
    if not (f_lo <= 0.0 < f_hi or f_hi <= 0.0 < f_lo):
        raise ValueError(f"no sign change on [{lo:g}, {hi:g}]: f = {f_lo:g}, {f_hi:g}")
    lo_side = f_lo <= 0.0
    w_lo, w_hi = f_lo, f_hi     # secant weights: the values, scaled on a kept end
    kept = 0                    # -1: lo was replaced last step, +1: hi was
    steps = 0
    while steps < max_steps:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        if not lo < x < hi:
            x = mid
        fx = f(x)
        steps += 1
        if (fx <= 0.0) == lo_side:
            if kept == -1:
                w_hi *= _kept_scale(fx, f_lo)
            lo, f_lo, w_lo, kept = x, fx, fx, -1
        else:
            if kept == 1:
                w_lo *= _kept_scale(fx, f_hi)
            hi, f_hi, w_hi, kept = x, fx, fx, 1
        if done(fx):
            break
    return Bracket(lo=lo, f_lo=f_lo, hi=hi, f_hi=f_hi, steps=steps)


def _kept_scale(fx: float, f_replaced: float) -> float:
    """Anderson and Bjorck's factor 1 - fx / f_replaced for a kept end, or 1/2
    where it is not positive (Anderson and Bjorck, BIT 13, 1973)."""
    m = 1.0 - fx / f_replaced if f_replaced else 0.0
    return m if m > 0.0 else 0.5


@dataclass(frozen=True)
class RootResult:
    """Root of a monotone function: ``x`` is the evaluated point with the
    smallest residual |f(x) - target|."""

    x: float
    iterations: int


def log_root(f: Callable[[float], float], f0: float, slope: float, *,
             done: Callable[[float], bool]) -> Bracket:
    """Root of an increasing f(s) of a log coordinate s = log x, from s = 0.

    ``f0`` is f(0), evaluated by the caller, and ``slope`` f's slope there,
    measured or a lower bound: the first step is the tangent step
    -f0 / slope. Where a step does not cross the root, the next is the
    secant step through the last two points. A step falls back to 1 toward
    the root (a factor e in x) where its slope is not finite and positive,
    the last value is not finite, or it would not move s. ``regula_falsi``
    then runs from the first sign change. Stops once ``done(f(s))`` holds
    for a new point s, at bracket collapse, or after MAX_STEPS evaluations
    in all, the caller's first one included (ArithmeticError if no sign
    change turned up by then). Returns the last bracket, or lo = hi = the
    last point where ``done`` held before a sign change.
    """
    s, e, steps = 0.0, f0, 1
    while not done(e):
        if steps >= MAX_STEPS:
            raise ArithmeticError("bracket expansion found no sign change")
        u = s - e / slope if 0.0 < slope < math.inf else math.nan
        if u == s or not math.isfinite(u):
            u = s - 1.0 if e > 0.0 else s + 1.0
        eu = f(u)
        steps += 1
        if (eu > 0.0) != (e > 0.0):
            lo, f_lo, hi, f_hi = (s, e, u, eu) if s < u else (u, eu, s, e)
            end = regula_falsi(f, lo, f_lo, hi, f_hi, done=done, max_steps=MAX_STEPS - steps)
            return Bracket(end.lo, end.f_lo, end.hi, end.f_hi, steps + end.steps)
        s, e, slope = u, eu, (eu - e) / (u - s)
    return Bracket(s, e, s, e, steps)


def invert_increasing(f: Callable[[float], float], target: float, *, cap: float) -> RootResult:
    """Solve f(x) = target > 0 on [0, cap] for increasing f with f(0) = 0 and
    f(x)/x nondecreasing (an N-function), without evaluating f above cap.

    First ``log_root`` on log f(x) - log target in s = log(x / min(1, cap)),
    whose slope is at least 1 since f(x)/x is nondecreasing, to within
    LOG_TOL of 0 (a point past the cap reads +inf). Then ``regula_falsi``
    in x, to bracket collapse or an exact hit, since e^s loses log2|s| bits:
    f(x)/x nondecreasing puts the root within a factor 1 +- |r| of the
    point of least residual r (for |r| <= 1/2), so a single probe across
    that factor closes the bracket. The x stage reads the residual
    r = (f(x) - target) / target: an absolute one underflows in the
    secant step at tiny targets. Reports the evaluated point of least
    |r|; OverflowError where f(cap) is below the target. Where the probe
    does not cross the target (a value of f rounded by more than 4 ulps,
    as entropy's is on [0.125, 4), can hide the crossing at a tiny r),
    the x stage is skipped.
    """
    best_x, best_r = 0.0, math.inf     # the point of least |residual|, and its residual
    steps = 0

    def record(x: float) -> tuple[float, float]:
        """(f(x), its residual), with the point of least residual recorded."""
        nonlocal best_x, best_r, steps
        v = f(x)
        steps += 1
        r = (v - target) / target
        if abs(r) < abs(best_r):
            best_x, best_r = x, r
        return v, r

    log_target, start = math.log(target), min(1.0, cap)

    def log_excess(s: float) -> float:
        try:
            x = start * math.exp(s)
        except OverflowError:
            return math.inf
        if x > cap:
            return math.inf
        v = record(x)[0]
        return math.log(v) - log_target if v > 0.0 else -math.inf

    log_root(log_excess, log_excess(0.0), 1.0, done=lambda e: abs(e) <= LOG_TOL)
    if best_r != 0.0:
        spread = 2.0 * abs(best_r) + 4.0 * sys.float_info.epsilon
        x, r = best_x, best_r
        if r < 0.0:
            y = min(x * (1.0 + spread), cap)
            r_y = record(y)[1]
            if r_y < 0.0 and y == cap:
                raise OverflowError(f"no x <= {cap:g} with f(x) >= {target:g}")
            bracket = (x, r, y, r_y)
        else:
            y = x * (1.0 - spread)
            bracket = (y, record(y)[1], x, r)
        if bracket[1] <= 0.0 < bracket[3]:
            regula_falsi(lambda x: record(x)[1], *bracket, done=lambda r: r == 0.0)
    return RootResult(x=best_x, iterations=steps)


def bisect_increasing(f: Callable[[float], float], target: float, lo: float, hi: float,
                      *, value_tol: float = 1e-12) -> RootResult:
    """Bisection for f(x) = target, nondecreasing f on [lo, hi]: a test reference.

    The library solves through ``regula_falsi``; tests compare against this.
    Stops when |f(mid) - target| <= value_tol * (1 + |target|), the
    interval collapses to adjacent floats, or after 200 steps. Reports as
    ``x`` the evaluated point with the smallest residual.
    """
    scale = value_tol * (1.0 + abs(target))
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > target + scale or f_hi < target - scale:
        raise ValueError(f"target {target:g} not bracketed by [{lo:g}, {hi:g}]")
    iters = 0
    best_x, best_r = (lo, abs(f_lo - target))
    if abs(f_hi - target) < best_r:
        best_x, best_r = hi, abs(f_hi - target)
    while iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        r = abs(f_mid - target)
        if r < best_r:
            best_x, best_r = mid, r
        if f_mid < target:
            lo = mid
        else:
            hi = mid
        iters += 1
        if r <= scale:
            break
    return RootResult(x=best_x, iterations=iters)


@dataclass(frozen=True)
class MinResult:
    value: float
    iterations: int


def golden_min(f: Callable[[float], float], lo: float, hi: float) -> MinResult:
    """Golden-section minimization of a unimodal f on [lo, hi]: a test reference.

    The library's Amemiya solve is a root solve through ``regula_falsi``;
    tests compare against this. Runs to a relative bracket width of 1e-12
    or at most 400 steps; reports the smallest value seen.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_f = f1 if f1 <= f2 else f2
    iters = 0
    while (b - a) > 1e-12 * (abs(a) + abs(b)) and iters < 400:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        best_f = min(best_f, f1, f2)
        iters += 1
    return MinResult(value=best_f, iterations=iters)


def geometric_grid(lo: float, hi: float, count: int) -> list[float]:
    """count log-spaced points from lo to hi inclusive."""
    if count < 2:
        return [lo]
    ratio = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * ratio) for i in range(count)]
