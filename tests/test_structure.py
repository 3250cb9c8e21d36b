"""Segal axioms, convolution units, and the two character routes."""

import cmath
import itertools
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orliczalg.errors import OrliczAlgebraError, ScopeError
from orliczalg.algebra import Decomposition
from orliczalg.groups import (
    GroupFunction,
    TableGroup,
    convolve,
    cyclic,
    direct_product,
    integer_window,
    reflect,
    symmetric_group3,
)
from orliczalg.nfunctions import CATALOG_PAIR_NAMES, pair_power
from orliczalg.specio import group_from_name, pair_from_name
from orliczalg.structure import (
    Character,
    CharacterSet,
    _greedy_generators,
    _verify_homomorphism,
    convolution_unit,
    enumerate_characters,
    group_exponent,
    multiplicative_functional_search,
    segal_report,
)

ALL_PAIRS = [pair_from_name(name) for name in CATALOG_PAIR_NAMES]

#: abelian battery names with at most 16 elements
SMALL_ABELIAN = [f"Z{n}" for n in range(1, 17)] + [
    "Z2xZ2", "Z2xZ4", "Z2xZ6", "Z2xZ8", "Z3xZ3", "Z4xZ4", "Z2xZ2xZ2", "Z2xZ2xZ3",
    "Z2xZ2xZ2xZ2"]


def product_reference(space) -> frozenset[tuple[int, ...]]:
    """Reference for the character search: every one of the L^(|G|-1)
    exponent vectors with w(e) = 0, kept when it satisfies the whole table."""
    L, _ = group_exponent(space)
    e_idx = space.index(space.identity)
    n = space.size
    mul_idx = [[space.index(space.mul(a, b)) for b in space.elements]
               for a in space.elements]
    positions = [i for i in range(n) if i != e_idx]
    found = set()
    for combo in itertools.product(range(L), repeat=len(positions)):
        expo = [0] * n
        for pos, k in zip(positions, combo):
            expo[pos] = k
        if all((expo[i] + expo[j]) % L == expo[mul_idx[i][j]]
               for i in range(n) for j in range(n)):
            found.add(tuple(expo))
    return frozenset(found)


def clash_reference(space) -> CharacterSet:
    """Reference for the enumeration: every combination of images of the
    greedy generators (the product of their orders, which can far outnumber
    |G|), expanded over the group and dropped on a clash."""
    L, orders = group_exponent(space)
    generators = _greedy_generators(space)
    found = []
    for ks in itertools.product(*(range(orders[g]) for g in generators)):
        expo = _expand_or_clash(space, generators, ks, L, orders)
        if expo is not None:
            found.append(Character(order=L, exponents=expo))
    found.sort(key=lambda c: c.exponents)
    return CharacterSet(order=L, characters=tuple(found))


def _expand_or_clash(space, generators, ks, L, orders):
    """Exponents over G of the generator images ks, or None on a clash."""
    expo = {space.identity: 0}
    for g, k in zip(generators, ks):
        step = (L // orders[g]) * k
        for base in list(expo):
            acc_elt, acc_exp = base, expo[base]
            for _ in range(1, orders[g]):
                acc_elt = space.mul(acc_elt, g)
                acc_exp = (acc_exp + step) % L
                if expo.setdefault(acc_elt, acc_exp) != acc_exp:
                    return None
    return tuple(expo[x] for x in space.elements)


def relabelled(space, perm) -> TableGroup:
    """space as a multiplication table over its carrier in the order perm."""
    els = [space.elements[i] for i in perm]
    index = {x: i for i, x in enumerate(els)}
    return TableGroup("table", els, [[index[space.mul(a, b)] for b in els] for a in els],
                      space.identity)


def test_segal_report_z2_power_two():
    rep = segal_report(cyclic(2), pair_power(2.0), samples=6)
    assert all(c.passed for c in rep)
    by_name = {c.name: c for c in rep}
    assert by_name["density-spanning"].slack == 0.0
    assert by_name["translation-cost-invariance"].passed


def test_segal_report_battery():
    groups = [cyclic(2), cyclic(4), cyclic(6),
              direct_product(cyclic(2), cyclic(2)), symmetric_group3()]
    for space in groups:
        for pair in ALL_PAIRS:
            rep = segal_report(space, pair, samples=6)
            assert all(c.passed for c in rep), (space.name, pair.phi.label,
                                                [(c.name, c.slack) for c in rep if not c.passed])


def test_segal_zero_function_dominations_trivial():
    rep = segal_report(cyclic(4), pair_power(2.0), samples=1)
    assert all(c.passed for c in rep)  # the sample list always includes the zero function


def test_segal_z6_entropy_fifty_samples():
    rep = segal_report(cyclic(6), pair_from_name("entropy"), samples=50)
    assert all(c.passed for c in rep)


def test_segal_scope_error_on_window():
    with pytest.raises(ScopeError):
        segal_report(integer_window(8), pair_power(2.0))


def test_unit_z4_example():
    z4 = cyclic(4)
    rep = convolution_unit(z4, pair_power(2.0))
    assert rep.unit.support == (0,)
    assert rep.unit(0) == pytest.approx(4.0)
    d1 = GroupFunction.delta(z4, 1)
    assert convolve(rep.unit, d1).max_abs_diff(d1) <= 1e-12
    assert rep.max_error <= 1e-12
    assert rep.passed


def test_unit_trivial_group():
    rep = convolution_unit(cyclic(1), pair_power(2.0))
    assert rep.unit(0) == pytest.approx(1.0)
    assert rep.max_error <= 1e-15


def test_unit_exhaustive_up_to_64():
    for space in (cyclic(2), cyclic(6), direct_product(cyclic(4), cyclic(4)),
                  symmetric_group3(), cyclic(64)):
        rep = convolution_unit(space, pair_power(2.0))
        assert rep.max_error <= 1e-12, space.name
        assert rep.bracket.lower <= rep.bracket.upper + 1e-9


def test_unit_pointwise_via_plateau():
    rep = convolution_unit(cyclic(6), pair_from_name("entropy"), epsilon=0.5)
    one = rep.pointwise_unit
    assert all(one(x) == pytest.approx(1.0, abs=1e-12) for x in one.space.elements)
    assert rep.pointwise_cert.cost_phi < 2.0 * 1.5


def test_unit_scope_error_on_window():
    with pytest.raises(ScopeError):
        convolution_unit(integer_window(8), pair_power(2.0))


def test_group_exponent():
    L, orders = group_exponent(cyclic(6))
    assert L == 6 and orders[1] == 6 and orders[3] == 2
    L2, _ = group_exponent(direct_product(cyclic(2), cyclic(2)))
    assert L2 == 2


def test_characters_z4_are_powers_of_i():
    z4 = cyclic(4)
    cs = enumerate_characters(z4)
    assert len(cs) == 4
    got = {c.exponents for c in cs.characters}
    want = {tuple((k * x) % 4 for x in range(4)) for k in range(4)}
    assert got == want
    for c in cs.characters:
        k = c.exponents[1]
        for x in z4.elements:
            assert c.value(z4, x) == pytest.approx(1j ** (k * x % 4))


def test_characters_klein_four_all_real():
    v4 = direct_product(cyclic(2), cyclic(2))
    cs = enumerate_characters(v4)
    assert len(cs) == 4
    for c in cs.characters:
        for x in v4.elements:
            assert c.value(v4, x) in (pytest.approx(1.0), pytest.approx(-1.0))


def test_characters_trivial_group():
    cs = enumerate_characters(cyclic(1))
    assert len(cs) == 1
    assert cs.characters[0].exponents == (0,)


def test_characters_nonabelian_scope_error():
    with pytest.raises(ScopeError) as err:
        enumerate_characters(symmetric_group3())
    assert "non-commuting" in str(err.value)


def test_character_pairing_multiplicative_for_convolution():
    z6 = cyclic(6)
    cs = enumerate_characters(z6)
    for c in cs.characters:
        for s in (0, 1, 4):
            for t in (2, 3, 5):
                ds, dt = GroupFunction.delta(z6, s), GroupFunction.delta(z6, t)
                lhs = c.pairing(convolve(ds, dt))
                rhs = c.pairing(ds) * c.pairing(dt)
                assert abs(lhs - rhs) <= 1e-12


def test_search_route_agrees_exactly():
    for space in (cyclic(2), cyclic(3), cyclic(4),
                  direct_product(cyclic(2), cyclic(2)), cyclic(6), cyclic(8), cyclic(12),
                  group_from_name("Z2xZ2xZ3"), group_from_name("Z4xZ4"),
                  group_from_name("Z2xZ2xZ2xZ2")):
        a = enumerate_characters(space)
        b = multiplicative_functional_search(space)
        assert a.exponent_set() == b.exponent_set()
        assert len(a) == len(b) == space.size


# Z4 in the carrier order 0, 2, 1, 3; the product reference tries at most
# 10^4 vectors on each of these (6^5 = 7,776 on Z6)
@pytest.mark.parametrize("space", [cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6),
                                   direct_product(cyclic(2), cyclic(2)),
                                   relabelled(cyclic(4), [0, 2, 1, 3])],
                         ids=["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z4-relabelled"])
def test_search_equals_the_product_reference(space):
    assert multiplicative_functional_search(space).exponent_set() == product_reference(space)


# Z15 in a carrier order that passed the cap while exponents were assigned in
# carrier order; the closure order pins each element after a generator at once
Z15_PERM = [0, 4, 13, 7, 1, 10, 14, 3, 8, 9, 5, 12, 11, 2, 6]


@settings(max_examples=60, deadline=None)
@example(("Z15", Z15_PERM))
@given(st.sampled_from(SMALL_ABELIAN).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.permutations(range(group_from_name(name).size)))))
def test_search_follows_a_random_relabelling_of_the_carrier(name_and_perm):
    name, perm = name_and_perm
    space = group_from_name(name)
    table = relabelled(space, perm)
    moved = {tuple(c.exponents[i] for i in perm)
             for c in enumerate_characters(space).characters}
    searched = multiplicative_functional_search(table)
    assert searched.exponent_set() == moved
    assert len(searched) == space.size


def test_search_on_the_relabelled_z15_makes_2940_trials(monkeypatch):
    import orliczalg.structure as structure
    table = relabelled(cyclic(15), Z15_PERM)
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", 2940)
    assert len(multiplicative_functional_search(table)) == 15
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", 2939)
    with pytest.raises(ScopeError, match="passed the cap of 2939 nodes"):
        multiplicative_functional_search(table)


def test_z2_search_is_plus_minus_one():
    z2 = cyclic(2)
    cs = multiplicative_functional_search(z2)
    values = {tuple(round(c.value(z2, x).real) for x in z2.elements)
              for c in cs.characters}
    assert values == {(1, 1), (1, -1)}


def test_z3_search_finds_cube_roots():
    z3 = cyclic(3)
    cs = multiplicative_functional_search(z3)
    assert len(cs) == 3
    omega = cmath.exp(2j * math.pi / 3.0)
    third = {c.exponents for c in cs.characters}
    assert (0, 1, 2) in third
    witness = next(c for c in cs.characters if c.exponents == (0, 1, 2))
    assert witness.value(z3, 1) == pytest.approx(omega)


def test_non_character_weight_fails_multiplicativity():
    # the weight (1, 2) on Z2 is not |.| = 1 root-of-unity valued and
    # violates w(1+1) = w(1)^2; the exhaustive search can never emit it
    z2 = cyclic(2)
    w = {0: 1.0, 1: 2.0}
    assert w[(1 + 1) % 2] != w[1] * w[1]
    cs = multiplicative_functional_search(z2)
    assert all(abs(c.value(z2, x)) == pytest.approx(1.0)
               for c in cs.characters for x in z2.elements)


def test_character_verification_rejects_bad_exponents():
    z4 = cyclic(4)
    bad = Character(order=4, exponents=(0, 1, 3, 2))
    with pytest.raises(OrliczAlgebraError, match=r"at \(1, 1\)"):
        _verify_homomorphism(z4, bad, [1])


def full_table_accepts(space, expo, L) -> bool:
    """w(a b) = w(a) + w(b) (mod L) over every pair of the table."""
    return all((expo[space.index(a)] + expo[space.index(b)]
                - expo[space.index(space.mul(a, b))]) % L == 0
               for a in space.elements for b in space.elements)


@pytest.mark.parametrize("space", [cyclic(4), direct_product(cyclic(2), cyclic(2)), cyclic(6),
                                   relabelled(cyclic(4), [0, 2, 1, 3])],
                         ids=["Z4", "Z2xZ2", "Z6", "Z4-relabelled"])
def test_generator_check_accepts_exactly_the_homomorphisms(space):
    # every exponent vector, w(e) included: 6^6 = 46,656 on Z6
    L, _ = group_exponent(space)
    generators = _greedy_generators(space)
    accepted = set()
    for expo in itertools.product(range(L), repeat=space.size):
        try:
            _verify_homomorphism(space, Character(order=L, exponents=expo), generators)
        except OrliczAlgebraError:
            assert not full_table_accepts(space, expo, L), expo
        else:
            assert full_table_accepts(space, expo, L), expo
            accepted.add(expo)
    assert len(accepted) == space.size
    assert accepted == enumerate_characters(space).exponent_set()


def by_element_order(n: int) -> list[int]:
    """The carrier of Zn listed by increasing element order (0, n/2, ...): the
    greedy generators are then dependent, n/2, n/4, ... on Z(2^k)."""
    return sorted(range(n), key=lambda x: (n // math.gcd(x, n), x))


REFERENCE_GROUPS = [f"Z{n}" for n in range(1, 17)] + ["Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ3"]


@settings(max_examples=60, deadline=None, derandomize=True)
@example(("Z16", by_element_order(16)))
@given(st.sampled_from(REFERENCE_GROUPS).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.permutations(range(group_from_name(name).size)))))
def test_enumeration_matches_the_clash_reference_on_a_random_relabelling(name_and_perm):
    name, perm = name_and_perm
    table = relabelled(group_from_name(name), perm)
    enumerated, reference = enumerate_characters(table), clash_reference(table)
    assert enumerated.order == reference.order
    assert [c.exponents for c in enumerated.characters] == \
        [c.exponents for c in reference.characters]


def test_enumeration_of_z64_by_element_order_builds_only_its_characters():
    # the greedy generators 32, 16, ..., 1 give 2^21 image choices, 64 of them characters
    table = relabelled(cyclic(64), by_element_order(64))
    started = time.monotonic()
    characters = enumerate_characters(table)
    assert time.monotonic() - started < 1.0
    assert len(characters) == 64
    assert characters.exponent_set() == {tuple(c.exponents[i] for i in by_element_order(64))
                                         for c in enumerate_characters(cyclic(64)).characters}


def test_enumeration_refuses_past_the_exponent_limit_before_building_any(monkeypatch):
    import orliczalg.structure as structure
    # Z16 builds 16^2 = 256 exponents, one past a limit of 255
    monkeypatch.setattr(structure, "CARRIER_LIMIT", 255)
    with monkeypatch.context() as m:
        m.setattr(structure, "group_exponent", None)  # any work past the check would call None
        with pytest.raises(ScopeError, match="character enumeration on Z16 builds 256 exponents, "
                                             "past the carrier limit of 255"):
            enumerate_characters(cyclic(16))
    monkeypatch.setattr(structure, "CARRIER_LIMIT", 256)
    assert len(enumerate_characters(cyclic(16))) == 16


def test_search_runs_at_the_limit_and_refuses_one_above(monkeypatch):
    import orliczalg.structure as structure
    # Z4 makes 36 exponent trials: 4 for w(1), then 4 for w(2) under each of
    # the 4 values of w(1), then 4 for w(3) under each of the 4 survivors
    z4 = cyclic(4)
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", 36)
    assert len(multiplicative_functional_search(z4)) == 4
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", 35)
    with pytest.raises(ScopeError, match=r"search on Z4 passed the cap of 35 nodes"):
        multiplicative_functional_search(z4)


def test_search_refuses_before_its_table_when_it_must_pass_the_cap(monkeypatch):
    # Z1449: 1448 depths under the all-zero vector, 1449 trials at each
    import orliczalg.structure as structure

    def unreachable(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(structure, "_closure_order", unreachable)
    with pytest.raises(ScopeError, match=r"search on Z1449 needs at least \(\|G\| - 1\) L = "
                                         r"2098152 nodes \(exponent trials\), past the cap of "
                                         r"2097152"):
        multiplicative_functional_search(cyclic(1449))


def test_density_spanning_fails_on_a_plateau_off_its_point(monkeypatch):
    import orliczalg.structure as structure
    space = cyclic(4)
    real = structure.plateau_from_sets

    def leaky(space, plateau_set, base_set):
        if list(plateau_set) != [1]:
            return real(space, plateau_set, base_set)
        # a nonzero off-diagonal entry: full rank still, but not supported on {1}
        f = GroupFunction(space, {1: 1.0, 2: 0.5})
        g = GroupFunction.delta(space, space.identity, 1.0 / space.haar_weight)
        v = convolve(f, reflect(g))
        return v, Decomposition(terms=((f, g),), target=v)
    monkeypatch.setattr(structure, "plateau_from_sets", leaky)
    rep = segal_report(space, pair_power(2.0), samples=1)
    density = next(c for c in rep if c.name == "density-spanning")
    assert not density.passed and not all(c.passed for c in rep)
    assert density.slack == -1.0
    assert density.detail == "span rank 3 of 4 point plateaus"
