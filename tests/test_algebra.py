"""Decomposition costs, norm brackets, plateau certificates, closure chain."""

import math
from random import Random

import pytest

from orliczalg.algebra import (
    Decomposition,
    algebra_norm_upper,
    atomic_decomposition,
    build_plateau,
    decomposition_cost,
    merged_decomposition,
    plateau_from_sets,
    submultiplicativity_report,
)
from orliczalg.errors import InfeasibleWindowError, OrliczAlgebraError, ScopeError
from orliczalg.groups import (
    GroupFunction,
    convolve,
    cyclic,
    integer_window,
    random_function,
    reflect,
    translate_left,
)
from orliczalg.nfunctions import CATALOG_PAIR_NAMES, pair_from_name, pair_power
from orliczalg.norms import luxemburg, orlicz_norm

ALL_PAIRS = [pair_from_name(name) for name in CATALOG_PAIR_NAMES]


@pytest.fixture(scope="module")
def z6():
    return cyclic(6)


@pytest.fixture(scope="module")
def window():
    return integer_window(64)


def test_empty_decomposition_of_zero(z6):
    d = Decomposition(terms=(), target=GroupFunction.zero(z6))
    d.validate()
    assert decomposition_cost(d, pair_power(2.0)) == 0.0


def test_single_term_cost_is_product_of_norms(z6):
    rng = Random(0)
    pair = pair_from_name("entropy")
    f, g = random_function(z6, rng), random_function(z6, rng)
    u = convolve(f, reflect(g))
    d = Decomposition(terms=((f, g),), target=u)
    want = luxemburg(pair.phi, f).value * orlicz_norm(pair.swap(), g).value
    assert decomposition_cost(d, pair) == pytest.approx(want, rel=1e-12)


def test_two_term_split_cost_adds(z6):
    rng = Random(1)
    pair = pair_power(2.0)
    f1, g1 = random_function(z6, rng), random_function(z6, rng)
    f2, g2 = random_function(z6, rng), random_function(z6, rng)
    u = convolve(f1, reflect(g1)) + convolve(f2, reflect(g2))
    d = Decomposition(terms=((f1, g1), (f2, g2)), target=u)
    parts = [decomposition_cost(Decomposition(terms=((f, g),),
                                              target=convolve(f, reflect(g))), pair)
             for f, g in ((f1, g1), (f2, g2))]
    assert decomposition_cost(d, pair) == pytest.approx(sum(parts), rel=1e-12)


def test_invalid_reconstruction_rejected(z6):
    f = GroupFunction.delta(z6, 0)
    d = Decomposition(terms=((f, f),), target=GroupFunction.constant(z6, 5.0))
    with pytest.raises(OrliczAlgebraError):
        decomposition_cost(d, pair_power(2.0))


def test_atomic_and_merged_reconstruct_exactly(z6, window):
    rng = Random(2)
    for space in (z6, window):
        f = random_function(space, rng, support_size=5)
        for d in (atomic_decomposition(f), merged_decomposition(f)):
            assert d.reconstruction_error() <= 1e-12


def test_bracket_zero_function(z6):
    br = algebra_norm_upper(GroupFunction.zero(z6), pair_power(2.0))
    assert br.upper == br.lower == 0.0


def test_bracket_constant_one_is_tight(z6):
    # pair (chi_G, chi_G / lam(G)) realizes cost N_Phi(chi_G) ||chi_G||_Psi = 1
    br = algebra_norm_upper(GroupFunction.constant(z6, 1.0), pair_power(2.0), budget=3)
    assert br.lower == pytest.approx(1.0)
    assert br.upper == pytest.approx(1.0, abs=1e-9)


def test_bracket_point_mass_atomic(z6):
    br = algebra_norm_upper(GroupFunction.delta(z6, 0), pair_power(2.0), budget=0)
    assert br.lower == pytest.approx(1.0)
    assert br.upper >= 1.0 - 1e-12


def test_bracket_monotone_in_budget(z6):
    rng = Random(3)
    for pair in ALL_PAIRS:
        f = random_function(z6, rng)
        uppers = [algebra_norm_upper(f, pair, budget=b).upper for b in range(4)]
        for earlier, later in zip(uppers, uppers[1:]):
            assert later <= earlier + 1e-12


def test_bracket_order_always(z6, window):
    rng = Random(4)
    for space in (z6, window):
        for pair in ALL_PAIRS:
            f = random_function(space, rng, support_size=6)
            br = algebra_norm_upper(f, pair)
            assert br.lower <= br.upper + 1e-9


def test_cost_translation_invariance(z6):
    rng = Random(5)
    pair = pair_from_name("cosh")
    f = random_function(z6, rng)
    d = algebra_norm_upper(f, pair).witness
    base = decomposition_cost(d, pair, validate=False)
    for t in z6.elements:
        moved = Decomposition(
            terms=tuple((translate_left(t, a), b) for a, b in d.terms),
            target=translate_left(t, f))
        moved.validate()
        assert decomposition_cost(moved, pair, validate=False) == pytest.approx(
            base, abs=1e-12)


def test_plateau_from_sets_counting_oracle(window):
    # E = {0}, F = {0, 1}: v(x) = lam(xF cap EF) / lam(F) by direct counting
    v, d = plateau_from_sets(window, [0], [0, 1])
    assert v(0) == pytest.approx(1.0)
    assert v(1) == pytest.approx(0.5)
    assert v(-1) == pytest.approx(0.5)
    assert set(v.support) <= {-1, 0, 1}
    d.validate()


def test_plateau_certificate_family(window):
    for pair in ALL_PAIRS:
        for eps in (1.0, 0.5, 0.1):
            u, cert = build_plateau(window, [-1, 0, 1], pair, eps)
            assert cert.on_set_error <= 1e-12
            assert cert.range_low >= -1e-12 and cert.range_high <= 1.0 + 1e-12
            assert cert.support_ok
            assert cert.cost_phi < 2.0 * (1.0 + eps)
            assert cert.cost_psi < 2.0 * (1.0 + eps)
            for step in (*cert.chain_phi, *cert.chain_psi):
                assert step.slack >= 0.0, (pair.phi.label, eps, step)


def test_plateau_spec_example_cost_below_three(window):
    # E = [-1, 1], eps = 0.5 forces V = [-2, 2] and a certified cost < 3
    u, cert = build_plateau(window, [-1, 0, 1], pair_power(2.0), 0.5)
    assert cert.leptin.members == tuple(range(-2, 3))
    assert cert.cost_phi < 3.0
    assert all(u(x) == pytest.approx(1.0, abs=1e-12) for x in (-1, 0, 1))


def test_plateau_finite_group_whole_set(z6):
    u, cert = build_plateau(z6, z6.elements, pair_power(2.0), 1.0)
    assert all(u(x) == pytest.approx(1.0, abs=1e-12) for x in z6.elements)
    assert cert.cost_phi < 4.0


def test_plateau_reflection_certified(window):
    pair = pair_from_name("entropy")
    u, cert = build_plateau(window, [-1, 0, 1], pair, 1.0)
    assert cert.reflected_error <= 1e-9
    # reflection of a symmetric plateau is itself
    assert reflect(u).max_abs_diff(u) <= 1e-12


def test_plateau_infeasible_window():
    tiny = integer_window(4)
    with pytest.raises(InfeasibleWindowError):
        build_plateau(tiny, range(-3, 4), pair_power(2.0), 0.1)


def test_plateau_truncated_by_window_fails_certificate():
    # E = [3, 5] gives V = [-1, 1]; the true support [1, 7] exits radius 6
    u, cert = build_plateau(integer_window(6), [3, 4, 5], pair_power(2.0), 1.0)
    assert u.truncated and cert.truncated
    assert max(cert.support_bound) == 7
    assert not cert.passed
    assert any("truncates" in f for f in cert.failures())
    _, whole = build_plateau(integer_window(7), [3, 4, 5], pair_power(2.0), 1.0)
    assert not whole.truncated and whole.passed


def test_submult_chain_random_pairs():
    z8 = cyclic(8)
    rng = Random(6)
    pair = pair_power(2.0)
    for _ in range(25):
        u, v = random_function(z8, rng), random_function(z8, rng)
        rep = submultiplicativity_report(u, v, pair)
        assert rep.inner_slack >= -1e-9
        assert rep.outer_slack >= -1e-9
        assert rep.alpha == pytest.approx(1.0 / math.sqrt(2.0))
        assert rep.alpha_agreement <= 1e-9


def test_submult_constant_one_outer_equality():
    z8 = cyclic(8)
    one = GroupFunction.constant(z8, 1.0)
    rep = submultiplicativity_report(one, one, pair_power(2.0))
    assert rep.alpha * rep.beta == pytest.approx(1.0, rel=1e-9)
    assert rep.outer == pytest.approx(rep.middle, abs=1e-9)


def test_submult_zero_operand():
    z8 = cyclic(8)
    rep = submultiplicativity_report(GroupFunction.zero(z8),
                                     GroupFunction.constant(z8, 1.0), pair_power(2.0))
    assert rep.upper == rep.middle == rep.outer == 0.0


def test_submult_scope_error_on_window():
    w = integer_window(8)
    f = GroupFunction.delta(w, 0)
    with pytest.raises(ScopeError):
        submultiplicativity_report(f, f, pair_power(2.0))


def test_sup_norm_lower_bound_of_cost(z6):
    rng = Random(7)
    for pair in ALL_PAIRS:
        f = random_function(z6, rng)
        br = algebra_norm_upper(f, pair)
        assert f.sup_norm() <= decomposition_cost(br.witness, pair,
                                                  validate=False) + 1e-9
