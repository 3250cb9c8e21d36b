"""Scalar root-finding and 1-D minimization kernels.

Everything here is deterministic and allocation-free: doubling brackets,
plain bisection with a function-value stopping rule, and golden-section
search on a unimodal bracket. Root results carry the evaluated point of
smallest residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RootResult:
    """Root of a monotone function: ``x`` is the evaluated point with the
    smallest residual |f(x) - target|."""

    x: float
    iterations: int


def bisect_increasing(f: Callable[[float], float], target: float, lo: float, hi: float,
                      *, value_tol: float = 1e-12) -> RootResult:
    """Solve f(x) = target for nondecreasing f on [lo, hi].

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


def solve_increasing(f: Callable[[float], float], target: float, *, start: float,
                     limit: float, value_tol: float) -> RootResult:
    """Doubling bracket from ``start`` (no point above ``limit``) plus bisection
    for nondecreasing f with f(0) <= target. Raises OverflowError if f(limit)
    is still below the target."""
    if f(0.0) > target:
        raise ValueError("f(0) already exceeds the target")
    hi = start
    while f(hi) < target:
        if hi >= limit:
            raise OverflowError(f"no x <= {limit:g} with f(x) >= {target:g}")
        hi = min(2.0 * hi, limit)
    lo = 0.0 if hi == start else hi / 2.0
    return bisect_increasing(f, target, lo, hi, value_tol=value_tol)


@dataclass(frozen=True)
class MinResult:
    value: float
    iterations: int


def bracket_minimum(f: Callable[[float], float], x0: float) -> tuple[float, float, float]:
    """Doubling scan around x0 > 0 for a unimodal triple a < b < c with
    f(b) <= min(f(a), f(c)), in at most 200 steps. Infinite values are
    treated as large."""
    a, b, c = x0 / 2.0, x0, x0 * 2.0
    fa, fb, fc = f(a), f(b), f(c)
    steps = 0
    while not (fb <= fa and fb <= fc):
        if fa < fb:
            a, b, c = a / 2.0, a, b
            fa, fb, fc = f(a), fa, fb
        else:
            a, b, c = b, c, c * 2.0
            fa, fb, fc = fb, fc, f(c)
        steps += 1
        if steps > 200:
            raise ValueError("failed to bracket a minimum; function may not be unimodal")
    return a, b, c


def golden_min(f: Callable[[float], float], lo: float, hi: float) -> MinResult:
    """Golden-section minimization of a unimodal f on [lo, hi], to a relative
    bracket width of 1e-12 or at most 400 steps; reports the smallest value seen."""
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
