"""Group carriers, convolution against a direct-summation oracle, Leptin sets."""

import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczalg.errors import InfeasibleWindowError, ScopeError, SpecFormatError
from orliczalg.groups import (
    CARRIER_LIMIT,
    GroupFunction,
    TableGroup,
    convolve,
    cyclic,
    direct_product,
    integer_window,
    leptin_search,
    random_function,
    reflect,
    set_inverse,
    set_product,
    symmetric_group3,
    translate_left,
    translate_right,
)


def conv_oracle(space, f: GroupFunction, g: GroupFunction) -> dict:
    """Direct summation over the whole carrier, straight from the definition."""
    out = {}
    for x in space.elements:
        acc = 0j
        for y in space.elements:
            z = space.try_mul(space.inv(y), x)
            if z is not None:
                acc += f(y) * g(z) * float(space.weight(y))
        out[x] = acc
    return out


@pytest.fixture(scope="module")
def groups():
    return {
        "Z4": cyclic(4),
        "Z5": cyclic(5),
        "Z6": cyclic(6),
        "V4": direct_product(cyclic(2), cyclic(2)),
        "S3": symmetric_group3(),
        "W8": integer_window(8),
    }


def test_group_laws_exhaustive(groups):
    # every element and triple; on W8 the triples whose products stay in the window
    for space in groups.values():
        e = space.identity
        for x in space.elements:
            assert space.mul(e, x) == x == space.mul(x, e)
            xi = space.inv(x)
            assert space.contains(xi)
            assert space.mul(xi, x) == e == space.mul(x, xi)
        for a, b, c in itertools.product(space.elements, repeat=3):
            ab, bc = space.try_mul(a, b), space.try_mul(b, c)
            if ab is not None and bc is not None:
                assert space.try_mul(ab, c) == space.try_mul(a, bc), (space.name, a, b, c)


def test_weights_are_normalized_rationals(groups):
    z6 = groups["Z6"]
    assert z6.weight(0) == Fraction(1, 6)
    assert z6.total_mass() == 1
    assert groups["W8"].weight(0) == Fraction(1)
    # one float weight: haar_weight, and weight_float(x) at every point
    for space in groups.values():
        assert space.haar_weight == float(space.weight(space.identity))
        assert all(space.weight_float(x) == space.haar_weight for x in space.elements)


def test_point_mass_self_convolution_z4(groups):
    # chi_0 * chi_0 = (1/4) chi_0 on normalized Z4, by direct summation
    z4 = groups["Z4"]
    f = GroupFunction.delta(z4, 0)
    got = convolve(f, f)
    assert got.support == (0,)
    assert got(0) == pytest.approx(0.25)


def test_constant_convolution_is_translation_invariant(groups):
    z6 = groups["Z6"]
    one = GroupFunction.constant(z6, 1.0)
    g = random_function(z6, Random(11))
    total = sum(g(x) * float(z6.weight(x)) for x in z6.elements)
    out = convolve(one, g)
    for x in z6.elements:
        assert out(x) == pytest.approx(total, abs=1e-12)


def test_convolution_matches_oracle(groups):
    rng = Random(5)
    for name in ("Z6", "V4", "S3"):
        space = groups[name]
        f, g = random_function(space, rng), random_function(space, rng)
        want = conv_oracle(space, f, g)
        got = convolve(f, g)
        assert all(abs(got(x) - want[x]) <= 1e-12 for x in space.elements)


def test_abelian_convolution_commutes(groups):
    rng = Random(9)
    for name in ("Z6", "V4"):
        space = groups[name]
        f, g = random_function(space, rng), random_function(space, rng)
        assert convolve(f, g).max_abs_diff(convolve(g, f)) <= 1e-12


def test_convolution_associativity_z6_and_s3(groups):
    rng = Random(13)
    for name in ("Z6", "S3"):
        space = groups[name]
        f, g, h = (random_function(space, rng) for _ in range(3))
        left = convolve(convolve(f, g), h)
        right = convolve(f, convolve(g, h))
        assert left.max_abs_diff(right) <= 1e-10


def test_reflect_is_involution_and_table_lookup(groups):
    z6 = groups["Z6"]
    f = random_function(z6, Random(3))
    assert reflect(reflect(f)).max_abs_diff(f) == 0.0
    rf = reflect(f)
    for x in z6.elements:
        assert rf(x) == f(z6.inv(x))


def test_reflect_on_point_mass(groups):
    z4 = groups["Z4"]
    assert reflect(GroupFunction.delta(z4, 1)).support == (3,)
    sym = GroupFunction.indicator(z4, [0, 2])  # inv-stable set
    assert reflect(sym).max_abs_diff(sym) == 0.0


def test_reflect_antihomomorphism_on_abelian(groups):
    # (f * g^)^ = g * f^ needs unimodularity; exact on Z6
    z6 = groups["Z6"]
    rng = Random(21)
    f, g = random_function(z6, rng), random_function(z6, rng)
    lhs = reflect(convolve(f, reflect(g)))
    rhs = convolve(g, reflect(f))
    assert lhs.max_abs_diff(rhs) <= 1e-12


def test_translations_compose_exhaustively_z5(groups):
    z5 = groups["Z5"]
    f = random_function(z5, Random(7))
    assert translate_left(0, f).max_abs_diff(f) == 0.0
    for s in z5.elements:
        for t in z5.elements:
            a = translate_left(s, translate_left(t, f))
            b = translate_left(z5.mul(s, t), f)
            assert a.max_abs_diff(b) == 0.0
            c = translate_right(s, translate_left(t, f))
            d = translate_left(t, translate_right(s, f))
            assert c.max_abs_diff(d) == 0.0


def test_left_translation_commutes_with_convolution(groups):
    for name in ("Z6", "S3"):
        space = groups[name]
        rng = Random(17)
        f, g = random_function(space, rng), random_function(space, rng)
        for t in space.elements:
            a = translate_left(t, convolve(f, g))
            b = convolve(translate_left(t, f), g)
            assert a.max_abs_diff(b) <= 1e-12


def test_window_translation_flags_exit():
    w = integer_window(4)
    f = GroupFunction.indicator(w, [3, 4])
    out = translate_left(2, f)
    assert out.truncated
    assert out.support == ()  # both 3+2 and 4+2 leave the window


def test_window_convolution_truncation_flag():
    w = integer_window(3)
    wide = GroupFunction.indicator(w, range(-2, 3))
    assert convolve(wide, wide).truncated
    narrow = GroupFunction.indicator(w, range(-1, 2))
    out = convolve(narrow, narrow)
    assert not out.truncated
    assert out(0) == pytest.approx(3.0)  # counting measure


def test_window_mul_is_the_sum_in_z_and_try_mul_stays_in_the_window():
    w = integer_window(2)
    assert w.mul(2, 2) == 4
    assert w.try_mul(2, 2) is None


def test_leptin_finite_group_takes_whole_carrier(groups):
    z6 = groups["Z6"]
    ls = leptin_search(z6, [0, 1], 0.25)
    assert set(ls.members) == set(z6.elements)
    assert ls.ratio == 1
    assert ls.margin == pytest.approx(0.25)


def test_leptin_window_interval_oracle():
    # |K + U| with K = [-1, 1], U = [-N, N] is 2N + 3; the smallest N with
    # 2N + 3 < (1 + eps)(2N + 1) is N = 2 at eps = 0.5 and N = 100 at 0.01.
    w = integer_window(128)
    k = [-1, 0, 1]
    ls = leptin_search(w, k, 0.5)
    assert ls.members == tuple(range(-2, 3))
    assert ls.ratio == Fraction(7, 5)
    ls2 = leptin_search(w, k, 0.01)
    assert ls2.members == tuple(range(-100, 101))
    assert ls2.ratio == Fraction(203, 201)


def test_leptin_margin_is_strict():
    w = integer_window(64)
    for eps in (1.0, 0.5, 0.1):
        ls = leptin_search(w, [-2, 0, 3], eps)
        assert ls.margin > 0.0


def test_leptin_infeasible_window_reports_radius():
    with pytest.raises(InfeasibleWindowError) as err:
        leptin_search(integer_window(50), [-1, 0, 1], 0.01)
    assert err.value.minimal_radius == 101


def test_set_product_window_is_exact_beyond_carrier():
    w = integer_window(3)
    prod = set_product(w, [2, 3], [2, 3])
    assert prod == {4, 5, 6}  # allowed to exceed the carrier


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.lists(st.integers(-12, 12), max_size=6),
       st.lists(st.integers(-12, 12), max_size=6))
def test_window_set_arithmetic_is_integer_arithmetic(radius, left, right):
    # points on both sides of the window [-radius, radius]
    w = integer_window(radius)
    assert set_product(w, left, right) == {a + b for a in left for b in right}
    assert set_inverse(w, left) == {-a for a in left}


def test_table_group_rejects_bad_table():
    with pytest.raises(SpecFormatError):
        TableGroup("bad", [0, 1], [[0, 1]], 0)
    with pytest.raises(SpecFormatError, match="at least one element"):
        TableGroup("bad", [], [], 0)
    with pytest.raises(ScopeError, match="has no inverse"):
        # constant row: 1 has no inverse
        TableGroup("bad", [0, 1], [[0, 1], [1, 1]], 0)
    with pytest.raises(ScopeError, match=r"associativity fails at \(1,1,2\)"):
        # identity row and column, and 1 * 1 = 2 * 2 = 0, but (1 1) 2 = 2 and 1 (1 2) = 0
        TableGroup("bad", [0, 1, 2], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], 0)


def test_carriers_over_the_limit_are_refused_before_they_are_built():
    with pytest.raises(ScopeError, match="Z1000000000000: a carrier of 1000000000000 points"):
        cyclic(10 ** 12)
    with pytest.raises(ScopeError, match="a carrier of 2000000000001 points"):
        integer_window(10 ** 12)
    # each factor is small; their product is refused before itertools.product runs
    with pytest.raises(ScopeError, match="Z4000xZ4000: a carrier of 16000000 points"):
        direct_product(cyclic(4000), cyclic(4000))
    with pytest.raises(ScopeError, match=f"a carrier of {CARRIER_LIMIT + 1} points"):
        TableGroup("huge", range(CARRIER_LIMIT + 1), [], 0)


def test_space_mismatch_rejected():
    a, b = cyclic(4), cyclic(4)
    with pytest.raises(ScopeError):
        convolve(GroupFunction.delta(a, 0), GroupFunction.delta(b, 0))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=6))
def test_indicator_scale_add_roundtrip(values):
    z6 = cyclic(6)
    f = GroupFunction(z6, {i: v for i, v in enumerate(values)})
    assert (f + f.scale(-1.0)).is_zero
    assert f.scale(2.0).max_abs_diff(f + f) <= 1e-12


def test_values_are_kept_in_carrier_order(groups):
    rng = Random(3)
    for space in (*groups.values(), integer_window(16)):
        values = {x: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for x in reversed(space.elements)}
        f = GroupFunction(space, values)
        assert f.support == space.elements
        assert [x for x, _ in f.items()] == list(f.support)
        assert [v for _, v in f.items()] == [values[x] for x in space.elements]
        g = random_function(space, rng, support_size=space.size // 2)
        assert list(g.support) == sorted(g.support, key=space.index)
        assert [x for x, _ in g.items()] == list(g.support)


# ---------------------------------------------------------------------------
# bit-exactness against the carrier-scanning loops the support walks replaced
# ---------------------------------------------------------------------------

def _scan_convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Convolution scanning every carrier element x, with the window
    support-end truncation test: the reference for ``convolve``."""
    space = f.space
    truncated = f.truncated or g.truncated
    if space.is_window and not f.is_zero and not g.is_zero:
        w = space.window_radius
        fs, gs = f.support, g.support
        if fs[0] + gs[0] < -w or fs[-1] + gs[-1] > w:
            truncated = True
    out = {}
    for x in space.elements:
        acc = 0j
        for y in f.support:
            z = space.try_mul(space.inv(y), x)
            if z is None:
                continue
            gv = g(z)
            if gv != 0:
                acc += f(y) * gv * space.haar_weight
        if acc != 0:
            out[x] = acc
    return GroupFunction(space, out, truncated)


def _scan_translate(f: GroupFunction, product) -> GroupFunction:
    """The per-operation relabeling loop of the translations."""
    out, truncated = {}, f.truncated
    for y, v in f.items():
        x = product(y)
        if x is None:
            truncated = True
            continue
        out[x] = v
    return GroupFunction(f.space, out, truncated)


SPACES = (cyclic(5), direct_product(cyclic(2), cyclic(3)), symmetric_group3(),
          integer_window(4), integer_window(7))
VALUES = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def operands(draw):
    space = draw(st.sampled_from(SPACES))
    points = st.sampled_from(space.elements)
    f, g = (GroupFunction(space, draw(st.dictionaries(points, VALUES, max_size=space.size)),
                          draw(st.booleans()))
            for _ in range(2))
    return f, g, draw(points)


def _same(a: GroupFunction, b: GroupFunction) -> bool:
    return list(a.items()) == list(b.items()) and a.truncated == b.truncated


@settings(max_examples=300, deadline=None)
@given(operands())
def test_support_walks_equal_the_carrier_scans_bit_for_bit(case):
    f, g, t = case
    space = f.space
    assert _same(convolve(f, g), _scan_convolve(f, g))
    assert _same(reflect(f), GroupFunction(space, {space.inv(x): v for x, v in f.items()},
                                           f.truncated))
    assert _same(translate_left(t, f), _scan_translate(f, lambda y: space.try_mul(t, y)))
    ti = space.inv(t)
    assert _same(translate_right(t, f), _scan_translate(f, lambda y: space.try_mul(y, ti)))


def test_window_convolution_truncates_exactly_when_a_product_exits():
    w4 = integer_window(4)
    inside = convolve(GroupFunction.indicator(w4, [-2, 2]), GroupFunction.indicator(w4, [-2, 2]))
    assert not inside.truncated and inside.support == (-4, 0, 4)
    edge = convolve(GroupFunction.indicator(w4, [-2, 3]), GroupFunction.indicator(w4, [-2]))
    assert not edge.truncated
    out = convolve(GroupFunction.indicator(w4, [-2, 3]), GroupFunction.indicator(w4, [2]))
    assert out.truncated and out.support == (0,)


def test_convolution_that_overflows_from_finite_operands_is_out_of_scope():
    z8 = cyclic(8)
    big = GroupFunction.delta(z8, 0, 1e200)
    with pytest.raises(ScopeError, match=r"sup\|f\| = 1e\+200 and sup\|g\| = 1e\+200"):
        convolve(big, big)
    near = GroupFunction.delta(z8, 0, 1e150)
    assert convolve(near, near)(0) == 1e150 * 1e150 * z8.haar_weight
    # a non-finite operand is not an overflow: its convolution stays non-finite
    inf = GroupFunction.delta(z8, 0, float("inf"))
    assert not math.isfinite(abs(convolve(inf, GroupFunction.delta(z8, 1))(1)))
