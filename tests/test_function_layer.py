"""The function layer against reference routes kept here: the constructor
that checked containment point by point and sorted through ``space.index``,
and the reconstruction summed from ``zero()``; identity keys for
N-functions; and the constructions one battery pass makes."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orliczalg.cli as cli
import orliczalg.norms as norms
from orliczalg.algebra import Decomposition
from orliczalg.errors import SpecFormatError
from orliczalg.groups import (
    GroupFunction,
    convolve,
    cyclic,
    direct_product,
    integer_window,
    reflect,
    symmetric_group3,
)
from orliczalg.nfunctions import NFunction, power
from orliczalg.norms import luxemburg, shared_solves

SPACES = (cyclic(6), direct_product(cyclic(2), cyclic(2)), symmetric_group3(),
          integer_window(16))
#: one point outside each carrier of SPACES, in its element type
OUTSIDE = {"Z6": 6, "Z2xZ2": (0, 2), "S3": (2, 2, 2), "Zwindow16": -17}
#: the battery's constructions at seed 21 with reconstructions that skip the
#: zero start (5,428 when each term also built a zero() and a sum)
SUITE_SEED21_CONSTRUCTIONS = 4268


def reference_function(space, values, truncated=False):
    """A GroupFunction built point by point: containment through ``contains``,
    ``complex(v)`` kept when non-zero, then sorted with ``space.index``."""
    vals = {}
    for x, v in values.items():
        if not space.contains(x):
            raise SpecFormatError(f"{space.name}: support point {x!r} not in carrier")
        c = complex(v)
        if c != 0:
            vals[x] = c
    f = object.__new__(GroupFunction)
    f.space = space
    f._values = {x: vals[x] for x in sorted(vals, key=space.index)}
    f.truncated = truncated
    return f


def reference_reconstruct(d):
    """sum_i f_i * (g_i)^ summed from ``zero()``."""
    total = GroupFunction.zero(d.target.space)
    for f, g in d.terms:
        total = total + convolve(f, reflect(g))
    return total


def bits(f):
    """(point, real bits, imaginary bits) in stored order: -0.0 and NaN payloads show."""
    return [(x, v.real.hex(), v.imag.hex()) for x, v in f._values.items()]


PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(width=64))
VALUES = st.one_of(st.builds(complex, PARTS, PARTS), PARTS, st.integers(-3, 3))


@st.composite
def mappings(draw, outside=0):
    """(space, mapping) with points in reverse, carrier or drawn order, and
    ``outside`` points off the carrier inserted at drawn positions."""
    space = draw(st.sampled_from(SPACES))
    points = draw(st.lists(st.sampled_from(space.elements), unique=True,
                           max_size=space.size))
    order = draw(st.sampled_from(["reverse", "carrier", "drawn"]))
    if order == "reverse":
        points = sorted(points, key=space.index, reverse=True)
    elif order == "carrier":
        points = sorted(points, key=space.index)
    for extra in [OUTSIDE[space.name], "x"][:outside]:
        points.insert(draw(st.integers(0, len(points))), extra)
    return space, {x: draw(VALUES) for x in points}


@settings(max_examples=200, deadline=None)
@given(mappings(), st.booleans())
def test_the_constructor_keeps_the_reference_values_in_order_and_bits(case, truncated):
    space, values = case
    f, ref = GroupFunction(space, values, truncated), reference_function(space, values, truncated)
    assert bits(f) == bits(ref)
    assert f.truncated is ref.truncated is truncated


@settings(max_examples=100, deadline=None)
@given(mappings(outside=1) | mappings(outside=2))
def test_a_point_off_the_carrier_raises_the_reference_message(case):
    space, values = case
    with pytest.raises(SpecFormatError) as expected:
        reference_function(space, values)
    with pytest.raises(SpecFormatError) as got:
        GroupFunction(space, values)
    assert str(got.value) == str(expected.value)
    assert "not in carrier" in str(got.value)


def test_table_group_law_names_a_point_off_the_carrier():
    s3 = symmetric_group3()
    e = s3.identity
    with pytest.raises(SpecFormatError, match=r"^S3: \(2, 2, 2\) not in carrier$"):
        s3.try_mul(e, (2, 2, 2))
    with pytest.raises(SpecFormatError, match=r"^S3: 7 not in carrier$"):
        s3.try_mul(7, (2, 2, 2))
    with pytest.raises(SpecFormatError, match=r"^S3: 'e' not in carrier$"):
        s3.inv("e")
    assert s3.try_mul(e, (1, 0, 2)) == (1, 0, 2) and s3.inv((1, 2, 0)) == (2, 0, 1)


@st.composite
def decompositions(draw):
    """0 to 3 terms on one space; on Zwindow16 the terms reach the edge, so
    their convolutions can truncate."""
    space = draw(st.sampled_from(SPACES))
    finite = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
    values = finite | st.builds(complex, parts, parts)

    def function():
        return GroupFunction(space, draw(st.dictionaries(st.sampled_from(space.elements),
                                                         values, max_size=6)),
                             draw(st.booleans()))

    terms = tuple((function(), function()) for _ in range(draw(st.integers(0, 3))))
    return Decomposition(terms, function())


@settings(max_examples=100, deadline=None)
@given(decompositions())
def test_reconstruct_matches_the_zero_start_bit_for_bit(d):
    # a convolution sums each point from 0j, so it holds no -0.0 part for
    # 0j + v to flip: the points, in order, and every part's bits agree
    got, ref = d.reconstruct(), reference_reconstruct(d)
    assert bits(got) == bits(ref)
    assert got.truncated is ref.truncated
    assert got.space is d.target.space


def test_reconstruct_of_window_terms_that_leave_keeps_the_truncation():
    w16 = integer_window(16)
    edge = GroupFunction(w16, {15: complex(-0.0, 2.0), 16: 1.0})
    # f * (delta_{-1})^ moves 15 to 16 and drops 16 -> 17, off the window
    d = Decomposition(((edge, GroupFunction.delta(w16, -1)),), edge)
    got, ref = d.reconstruct(), reference_reconstruct(d)
    assert got.truncated and ref.truncated
    assert bits(got) == bits(ref) == [(16, (0.0).hex(), (2.0).hex())]


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one per GroupFunction built."""
    built = []
    init = GroupFunction.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupFunction, "__init__", counting)
    return built


def test_a_one_term_reconstruct_builds_the_reflection_and_the_convolution(constructions):
    z6 = cyclic(6)
    f, g = GroupFunction(z6, {1: 1.0, 2: 0.5j}), GroupFunction(z6, {0: 2.0, 3: -1.0})
    d = Decomposition(((f, g),), f)
    del constructions[:]
    d.reconstruct()
    assert len(constructions) == 2
    del constructions[:]
    Decomposition((), f).reconstruct()
    assert len(constructions) == 1


def test_the_seed21_suite_builds_at_most_the_counted_functions(constructions, capsys):
    assert cli.main(["suite", "--seed", "21"]) == 0
    assert "passed=true" in capsys.readouterr().out
    assert len(constructions) <= SUITE_SEED21_CONSTRUCTIONS


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one per Luxemburg solve run."""
    ran = []
    solve = norms._luxemburg_solve

    def counting(phi, f):
        ran.append(phi)
        return solve(phi, f)

    monkeypatch.setattr(norms, "_luxemburg_solve", counting)
    return ran


def test_an_nfunction_is_a_memo_key_by_identity(solves):
    f = GroupFunction(cyclic(8), {1: 0.5, 2: -1.25 + 0.5j, 3: 2.0})
    phi, other = power(2), power(2)
    assert phi == phi and phi != other and {phi: 1}.get(other) is None
    # identity, not a field-by-field comparison that closures would settle
    assert dataclasses.replace(phi) != phi and NFunction.__hash__ is object.__hash__
    with shared_solves():
        first = luxemburg(phi, f)
        assert luxemburg(phi, f) == first and solves == [phi]
        # a separately built power(2) is another key, solved to the same bits
        assert luxemburg(other, f) == first and solves == [phi, other]
