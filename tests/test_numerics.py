"""The bracketed root kernel and the solves built on it."""

import math

import pytest

from orliczalg.numerics import (MAX_STEPS, bisect_increasing, illinois, invert_increasing,
                                log_root)


def _recording(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


def test_illinois_finds_a_root_from_both_sides():
    b = illinois(lambda x: x ** 3 - 2.0, 0.0, -2.0, 2.0, 6.0, done=lambda r: abs(r) <= 1e-15)
    assert b.lo <= 2.0 ** (1 / 3) <= b.hi
    assert b.f_lo <= 0.0 < b.f_hi
    assert min(abs(b.f_lo), abs(b.f_hi)) <= 1e-15
    assert b.steps < 20


def test_illinois_accepts_a_decreasing_bracket():
    b = illinois(lambda x: 1.0 - x * x, 0.0, 1.0, 3.0, -8.0, done=lambda r: -1e-14 <= r <= 0.0)
    assert b.f_lo > 0.0 >= b.f_hi
    assert -1e-14 <= b.f_hi <= 0.0
    assert b.hi == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("f_lo, f_hi", [(-1.0, -0.5), (1.0, 2.0), (0.0, 0.0),
                                        (math.nan, 1.0), (-1.0, math.nan)])
def test_illinois_rejects_a_bracket_without_a_sign_change(f_lo, f_hi):
    with pytest.raises(ValueError, match="no sign change"):
        illinois(lambda x: x, 0.0, f_lo, 1.0, f_hi, done=lambda r: False)


def test_illinois_stops_at_the_step_cap():
    f, points = _recording(lambda x: math.tanh(x - 0.3))
    b = illinois(f, 0.0, f(0.0), 1.0, f(1.0), done=lambda r: False, max_steps=3)
    assert b.steps == 3 and len(points) == 2 + 3
    b = illinois(lambda x: x - 0.3, 0.0, -0.3, 1.0, 0.7, done=lambda r: False)
    assert b.steps <= MAX_STEPS


def test_illinois_falls_back_to_the_midpoint_when_the_secant_rounds_onto_an_end():
    # the secant point 1 + 1e-60 rounds onto lo = 1.0: the kernel must take
    # the midpoint and go on, stopping only when the midpoint collapses
    def step(x):
        return -1e-30 if x < 1.5 else 1e30

    f, points = _recording(step)
    b = illinois(f, 1.0, -1e-30, 2.0, 1e30, done=lambda r: r == 0.0)
    assert points[0] == 1.5
    assert (b.lo, b.hi) == (math.nextafter(1.5, 0.0), 1.5)
    assert b.steps == len(points) <= MAX_STEPS


def test_illinois_treats_an_infinite_end_by_bisection():
    f, points = _recording(lambda x: math.inf if x > 1.0 else x - 0.75)
    b = illinois(f, 0.0, -0.75, 4.0, math.inf, done=lambda r: abs(r) <= 1e-15)
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
    b = log_root(f, 1.0, done=lambda e: e == 0.0)
    assert points[:2] == [0.0, 3.0]
    assert (b.lo, b.f_lo, b.hi) == (1.5, 0.0, 3.0)
    assert b.steps == len(points) == 3
