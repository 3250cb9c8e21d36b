"""The bracketed root kernel and the solves built on it."""

import math

import pytest

from orliczalg.numerics import (MAX_STEPS, bisect_increasing, invert_increasing, log_root,
                                regula_falsi)


def _recording(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


def test_illinois_finds_a_root_from_both_sides():
    b = regula_falsi(lambda x: x ** 3 - 2.0, 0.0, -2.0, 2.0, 6.0, done=lambda r: abs(r) <= 1e-15)
    assert b.lo <= 2.0 ** (1 / 3) <= b.hi
    assert b.f_lo <= 0.0 < b.f_hi
    assert min(abs(b.f_lo), abs(b.f_hi)) <= 1e-15
    assert b.steps < 20


def test_illinois_accepts_a_decreasing_bracket():
    b = regula_falsi(lambda x: 1.0 - x * x, 0.0, 1.0, 3.0, -8.0, done=lambda r: -1e-14 <= r <= 0.0)
    assert b.f_lo > 0.0 >= b.f_hi
    assert -1e-14 <= b.f_hi <= 0.0
    assert b.hi == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("f_lo, f_hi", [(-1.0, -0.5), (1.0, 2.0), (0.0, 0.0),
                                        (math.nan, 1.0), (-1.0, math.nan)])
def test_illinois_rejects_a_bracket_without_a_sign_change(f_lo, f_hi):
    with pytest.raises(ValueError, match="no sign change"):
        regula_falsi(lambda x: x, 0.0, f_lo, 1.0, f_hi, done=lambda r: False)


def test_illinois_stops_at_the_step_cap():
    f, points = _recording(lambda x: math.tanh(x - 0.3))
    b = regula_falsi(f, 0.0, f(0.0), 1.0, f(1.0), done=lambda r: False, max_steps=3)
    assert b.steps == 3 and len(points) == 2 + 3
    b = regula_falsi(lambda x: x - 0.3, 0.0, -0.3, 1.0, 0.7, done=lambda r: False)
    assert b.steps <= MAX_STEPS


def test_illinois_falls_back_to_the_midpoint_when_the_secant_rounds_onto_an_end():
    # the secant point 1 + 1e-60 rounds onto lo = 1.0: the kernel must take
    # the midpoint and go on, stopping only when the midpoint collapses
    def step(x):
        return -1e-30 if x < 1.5 else 1e30

    f, points = _recording(step)
    b = regula_falsi(f, 1.0, -1e-30, 2.0, 1e30, done=lambda r: r == 0.0)
    assert points[0] == 1.5
    assert (b.lo, b.hi) == (math.nextafter(1.5, 0.0), 1.5)
    assert b.steps == len(points) <= MAX_STEPS


def test_illinois_treats_an_infinite_end_by_bisection():
    f, points = _recording(lambda x: math.inf if x > 1.0 else x - 0.75)
    b = regula_falsi(f, 0.0, -0.75, 4.0, math.inf, done=lambda r: abs(r) <= 1e-15)
    assert points[:2] == [2.0, 1.0]
    assert b.lo == pytest.approx(0.75, abs=1e-15)


def _no_neighbour_is_closer(f, x, target):
    return all(abs(f(x) - target) <= abs(f(y) - target)
               for y in (math.nextafter(x, 0.0), math.nextafter(x, math.inf)))


@pytest.mark.parametrize("target", [2.0, 1e-300, 7e290])
def test_invert_increasing_runs_to_collapse(target):
    def cube(x):
        return x ** 3 / 3.0

    res = invert_increasing(cube, target, cap=1e100)
    assert _no_neighbour_is_closer(cube, res.x, target)
    ref = bisect_increasing(cube, target, 0.0, 1e100, value_tol=0.0)
    assert abs(cube(res.x) - target) <= abs(cube(ref.x) - target)
    assert res.iterations < ref.iterations


def test_invert_increasing_reports_the_point_of_least_residual():
    f, points = _recording(lambda x: x * x / 2.0)
    res = invert_increasing(f, 0.3, cap=10.0)
    assert abs(res.x * res.x / 2.0 - 0.3) == min(abs(x * x / 2.0 - 0.3) for x in points)
    assert res.iterations == len(points)
    # a run of equal values around the crossing: an exact hit ends the solve
    res = invert_increasing(lambda x: math.floor(x * x * 8.0) / 8.0, 0.5, cap=4.0)
    assert math.floor(res.x * res.x * 8.0) / 8.0 == 0.5


def test_invert_increasing_raises_past_the_cap_and_never_evaluates_above_it():
    f, points = _recording(lambda x: x * x / 2.0)
    with pytest.raises(OverflowError):
        invert_increasing(f, 10.0, cap=4.0)
    assert max(points) == 4.0
    f, points = _recording(lambda x: x * x / 2.0)
    assert invert_increasing(f, 8.0, cap=4.0).x == 4.0
    assert max(points) == 4.0


def test_log_root_brackets_a_line_in_one_step_from_its_slope_bound():
    f, points = _recording(lambda s: 2.0 * s - 3.0)
    b = log_root(f, f(0.0), 1.0, done=lambda e: e == 0.0)
    assert points[:2] == [0.0, 3.0]
    assert (b.lo, b.f_lo, b.hi) == (1.5, 0.0, 3.0)
    assert b.steps == len(points) == 3


@pytest.mark.parametrize("f, e, slope, first", [
    (lambda s: math.inf if s > -0.5 else s + 0.7, math.inf, 2.0, -1.0),   # the first pass raised
    (lambda s: -math.inf if s < 0.5 else s - 0.7, -math.inf, 2.0, 1.0),  # rho = 0 there
    (lambda s: s - 0.3, -0.3, math.nan, 1.0),
    (lambda s: s - 0.3, -0.3, 0.0, 1.0),
    (lambda s: s - 0.3, -0.3, math.inf, 1.0),
    (lambda s: s - 0.3, -0.3, -2.0, 1.0),
], ids=["first-point-inf", "rho-zero", "slope-nan", "slope-0", "slope-inf", "slope-negative"])
def test_log_root_steps_by_one_where_the_first_point_gives_no_tangent(f, e, slope, first):
    f, points = _recording(f)
    b = log_root(f, e, slope, done=lambda v: abs(v) <= 1e-15)
    assert points[0] == first
    assert b.f_lo <= 0.0 < b.f_hi or b.lo == b.hi
    assert b.steps == 1 + len(points)


def test_log_root_steps_along_the_secant_where_a_step_does_not_cross():
    # concave: the tangent step from s = 0 falls short of the root log 2,
    # and the next step is the secant through the two points
    f, points = _recording(lambda s: 1.0 - 2.0 * math.exp(-s))
    b = log_root(f, -1.0, 2.0, done=lambda v: abs(v) <= 1e-15)
    s1, e1 = points[0], 1.0 - 2.0 * math.exp(-points[0])
    assert s1 == 0.5 and e1 < 0.0
    assert points[1] == s1 - e1 / ((e1 + 1.0) / s1)
    assert min(abs(b.f_lo), abs(b.f_hi)) <= 1e-15
    # a flat stretch gives the secant no slope: the step is 1 toward the root
    f, points = _recording(lambda s: -1.0 if s < 2.0 else s - 2.5)
    log_root(f, -1.0, 1.0, done=lambda v: v == 0.0)
    assert points[:3] == [1.0, 2.0, 3.0]


def _illinois(f, lo, f_lo, hi, f_hi, done):
    """The Illinois rule the kernel replaced (Dowell and Jarratt): a kept
    end's held value is always halved. Returns (lo, f_lo, hi, f_hi, steps)."""
    lo_side, w_lo, w_hi, kept, steps = f_lo <= 0.0, f_lo, f_hi, 0, 0
    while steps < MAX_STEPS and lo < 0.5 * (lo + hi) < hi:
        x = lo - w_lo * (hi - lo) / (w_hi - w_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        steps += 1
        if (fx <= 0.0) == lo_side:
            w_hi *= 0.5 if kept == -1 else 1.0
            lo, f_lo, w_lo, kept = x, fx, fx, -1
        else:
            w_lo *= 0.5 if kept == 1 else 1.0
            hi, f_hi, w_hi, kept = x, fx, fx, 1
        if done(fx):
            break
    return lo, f_lo, hi, f_hi, steps


@pytest.mark.parametrize("phi", [lambda x: 2.0 * math.sinh(0.5 * x) ** 2,      # cosh x - 1
                                 lambda x: (1.0 + x) * math.log1p(x) - x],    # entropy
                         ids=["cosh", "entropy"])
def test_anderson_bjorck_takes_no_more_steps_than_illinois_in_log_coordinates(phi):
    # log Phi(e^s) - log t, the map the norm solves and Phi^{-1} hand the
    # kernel, from the unit bracket around its root
    def done(v):
        return abs(v) <= 1e-12

    total, illinois_total = 0, 0
    for t in (10.0 ** k for k in range(-8, 9)):
        def f(s):
            return math.log(phi(math.exp(s))) - math.log(t)

        lo = 0.0
        while f(lo) > 0.0:
            lo -= 1.0
        while f(lo + 1.0) <= 0.0:
            lo += 1.0
        b = regula_falsi(f, lo, f(lo), lo + 1.0, f(lo + 1.0), done=done)
        assert b.lo < b.hi and b.f_lo <= 0.0 < b.f_hi, t
        assert min(-b.f_lo, b.f_hi) <= 1e-12, t
        reference = _illinois(f, lo, f(lo), lo + 1.0, f(lo + 1.0), done)
        assert b.steps <= reference[4], (t, b.steps, reference[4])
        total, illinois_total = total + b.steps, illinois_total + reference[4]
    assert total < illinois_total
