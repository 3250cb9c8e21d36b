"""Decomposition costs, norm brackets, plateau certificates, closure chain."""

import dataclasses
import math
import re
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orliczalg.algebra as algebra
import orliczalg.norms as norms
from orliczalg.algebra import (
    Decomposition,
    NormBracket,
    algebra_norm_upper,
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
    set_product,
    symmetric_group3,
    translate_left,
)
from orliczalg.nfunctions import CATALOG_PAIR_NAMES, NFunction, pair_power
from orliczalg.norms import luxemburg, orlicz_norm, shared_solves
from orliczalg.specio import pair_from_name

ALL_PAIRS = [pair_from_name(name) for name in CATALOG_PAIR_NAMES]


def atomic_decomposition(u: GroupFunction) -> Decomposition:
    """Point-mass pairs: u = sum_t u(t) weight(t)^{-1} (chi_t * chi_e^).

    A reference decomposition for the tests: exact on finite carriers and
    on windows (each term's support is a single point, so nothing can
    exit), and never cheaper than the merged pair.
    """
    space = u.space
    e = space.identity
    terms = []
    for t, v in u.items():
        f = GroupFunction.delta(space, t, v / space.haar_weight)
        terms.append((f, GroupFunction.delta(space, e)))
    return Decomposition(terms=tuple(terms), target=u)


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
    with pytest.raises(OrliczAlgebraError, match="does not reconstruct"):
        d.validate()


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
    br = algebra_norm_upper(GroupFunction.constant(z6, 1.0), pair_power(2.0))
    assert br.lower == pytest.approx(1.0)
    assert br.upper == pytest.approx(1.0, abs=1e-9)


def test_bracket_point_mass_atomic(z6):
    br = algebra_norm_upper(GroupFunction.delta(z6, 0), pair_power(2.0))
    assert br.lower == pytest.approx(1.0)
    assert br.upper >= 1.0 - 1e-12


DOMINANCE_SPACES = (cyclic(2), cyclic(6), symmetric_group3(), integer_window(32))


@st.composite
def skewed_functions(draw):
    """A random function whose values after the first are scaled down by up
    to 1e-314, so magnitudes across the support differ wildly."""
    space = draw(st.sampled_from(DOMINANCE_SPACES))
    rng = Random(draw(st.integers(0, 2**32)))
    f = random_function(space, rng, support_size=draw(st.integers(1, 5)))
    scales = st.sampled_from((1.0, 1e-6, 1e-16, 1e-150, 1e-300, 1e-314))
    first = f.support[0]
    return GroupFunction(space, {x: v * (1.0 if x == first else draw(scales))
                                 for x, v in f.items()})


@settings(max_examples=150, deadline=None)
@given(skewed_functions(), st.sampled_from(CATALOG_PAIR_NAMES))
def test_atomic_cost_is_never_below_the_merged_cost(f, name):
    # both share the right factor chi_e, and N_Phi is subadditive:
    # sum_t N_Phi(u(t)/w chi_t) >= N_Phi(u/w)
    pair = pair_from_name(name)
    merged = decomposition_cost(merged_decomposition(f), pair)
    assert algebra_norm_upper(f, pair).upper == merged
    # priced on its own, the smallest point gives the Luxemburg solve's scale
    # 1/k = r / smallest: it leaves the floats at r = 1 when 1/smallest does,
    # and not at all when smallest >= 8 / DBL_MAX, since r reaches 8 at most
    # for the catalog pairs on these spaces
    smallest = min(abs(v) for _, v in f.items()) / f.space.haar_weight
    try:
        atomic = decomposition_cost(atomic_decomposition(f), pair)
    except ScopeError as exc:
        assert "sup|f|" in str(exc)
        assert smallest < 8.0 / sys.float_info.max
    else:
        assert 1.0 / smallest < math.inf
        assert atomic >= merged


def _candidate_loop_upper(u, pair) -> float:
    """The cheapest of the candidates the bracket once chose among, kept as a
    reference: the atomic and merged decompositions and, for u = c chi_S, the
    restarts c chi_{SV} * (chi_V / lam(V))^ with V = {e} and, on finite
    groups, V = G, each kept only if it rebuilds u."""
    space = u.space
    candidates = [atomic_decomposition(u), merged_decomposition(u)]
    levels = {v for _, v in u.items()}
    if len(levels) == 1:
        v_sets = [frozenset([space.identity])]
        if not space.is_window:
            v_sets.append(frozenset(space.elements))
        for v_set in v_sets:
            lam_v = sum(space.haar_weight for _ in v_set)
            f = GroupFunction.indicator(space, set_product(space, u.support, v_set))
            g = GroupFunction.indicator(space, v_set).scale(1.0 / lam_v)
            cand = Decomposition(terms=((f.scale(next(iter(levels))), g),), target=u)
            if cand.reconstruction_error() <= algebra.RECONSTRUCTION_TOL * u.sup_norm():
                candidates.append(cand)
    return min(decomposition_cost(d, pair) for d in candidates)


@pytest.mark.parametrize("space", [cyclic(2), cyclic(6), symmetric_group3(),
                                   integer_window(32)], ids=lambda s: s.name)
def test_bracket_upper_matches_the_candidate_loop(space):
    rng = Random(11)
    for pair in ALL_PAIRS:
        for size in (1, 2, 3, space.size):
            f = random_function(space, rng, support_size=size)
            if size > 1:  # not constant on its support: only atomic and merged
                assert algebra_norm_upper(f, pair).upper == _candidate_loop_upper(f, pair)
            # u = c chi_S: the restart V = {e} is the merged pair up to the
            # solves' residual, so dropping it can only raise the upper end
            for c in (1.0, 0.3, -2.5j, 1e-6, 1e-12):
                u = GroupFunction(space, {x: c for x in f.support})
                upper = algebra_norm_upper(u, pair).upper
                reference = _candidate_loop_upper(u, pair)
                assert reference <= upper <= reference * (1.0 + 3e-13)


@pytest.mark.parametrize("space", [cyclic(6), symmetric_group3()], ids=lambda s: s.name)
def test_bracket_of_a_constant_is_exact(space):
    # the pair (c 1_G, 1_G / lam(G)) costs N_Phi(1_G) ||1_G||_Psi |c| = |c|
    for pair in ALL_PAIRS:
        for c in (1.0, 0.75, -3.0, 1e-9):
            br = algebra_norm_upper(GroupFunction.constant(space, c), pair)
            assert len(br.witness.terms) == 1
            assert br.upper == pytest.approx(br.lower, rel=1e-12)


def test_bracket_order_always(z6, window):
    rng = Random(4)
    for space in (z6, window):
        for pair in ALL_PAIRS:
            f = random_function(space, rng, support_size=6)
            br = algebra_norm_upper(f, pair)
            assert br.lower <= br.upper + 1e-9


@pytest.mark.parametrize("space, points", [
    (cyclic(6), [0, 1, 2]),
    (cyclic(6), list(range(6))),
    (symmetric_group3(), symmetric_group3().elements[:3]),
    (integer_window(32), list(range(-2, 3))),
], ids=["Z6-half", "Z6-all", "S3-half", "Zwindow32"])
def test_bracket_upper_is_homogeneous_down_to_tiny_scales(space, points):
    # the reconstruction tolerance scales with sup|u|, so no decomposition
    # of another function passes at small c
    for pair in ALL_PAIRS:
        unit = algebra_norm_upper(GroupFunction.indicator(space, points), pair).upper
        for c in (1.0, 1e-6, 1e-9, 1e-12):
            u = GroupFunction(space, {x: c for x in points})
            br = algebra_norm_upper(u, pair)
            assert br.upper == pytest.approx(c * unit, rel=1e-12, abs=0.0)
            assert br.witness.reconstruction_error() <= 1e-9 * c


def test_cost_translation_invariance(z6):
    rng = Random(5)
    pair = pair_from_name("cosh")
    f = random_function(z6, rng)
    d = algebra_norm_upper(f, pair).witness
    base = decomposition_cost(d, pair)
    for t in z6.elements:
        moved = Decomposition(
            terms=tuple((translate_left(t, a), b) for a, b in d.terms),
            target=translate_left(t, f))
        moved.validate()
        assert decomposition_cost(moved, pair) == pytest.approx(
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
    assert any(c.name == "not-truncated" and not c.passed for c in cert.checks())
    _, whole = build_plateau(integer_window(7), [3, 4, 5], pair_power(2.0), 1.0)
    assert not whole.truncated and whole.passed


@pytest.mark.parametrize("field", ["on_set_error", "range_low", "imag_error", "reflected_error"])
def test_plateau_certificate_with_a_nan_field_fails(window, field):
    _, cert = build_plateau(window, [-1, 0, 1], pair_power(2.0), 1.0)
    assert cert.passed
    assert not dataclasses.replace(cert, **{field: math.nan}).passed


def test_build_plateau_convolves_only_the_plateau_and_its_reflection(window, monkeypatch):
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return convolve(f, g)
    monkeypatch.setattr(algebra, "convolve", counting)
    build_plateau(window, [-1, 0, 1], pair_power(2.0), 1.0)
    assert len(calls) == 2


def test_build_plateau_runs_four_inverse_solves(window, monkeypatch):
    # both cost routes share one chain tail after the middle bound
    calls = []
    real = NFunction.inverse

    def counting(self, t):
        calls.append(t)
        return real(self, t)
    monkeypatch.setattr(NFunction, "inverse", counting)
    build_plateau(window, [-1, 0, 1], pair_from_name("entropy"), 1.0)
    assert len(calls) == 4


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


def test_sup_norm_floor_guards_are_relative(z6, monkeypatch):
    u = GroupFunction.delta(z6, 0, 1e-12)
    d = atomic_decomposition(u)
    with pytest.raises(OrliczAlgebraError, match="bracket inverted"):
        NormBracket(upper=1e-12, lower=2e-12, witness=d)
    real = algebra.luxemburg

    def halved(phi, f):
        rep = real(phi, f)
        return dataclasses.replace(rep, value=rep.value / 2)
    monkeypatch.setattr(algebra, "luxemburg", halved)
    with pytest.raises(OrliczAlgebraError, match="sup-norm floor"):
        decomposition_cost(d, pair_power(2.0))


def test_sup_norm_lower_bound_of_cost(z6):
    rng = Random(7)
    for pair in ALL_PAIRS:
        f = random_function(z6, rng)
        br = algebra_norm_upper(f, pair)
        assert f.sup_norm() <= decomposition_cost(br.witness, pair) + 1e-9


def _reference_cost(d: Decomposition, pair) -> float:
    """Each term priced on its own, the oracle on, summed in term order,
    with no solve memo active."""
    assert norms._SOLVES.get() is None
    cost = 0.0
    for f, g in d.terms:
        cost += luxemburg(pair.phi, f).value * orlicz_norm(pair.swap(), g).value
    return cost


COST_SPACES = (cyclic(5), symmetric_group3(), integer_window(7))


@st.composite
def decompositions(draw):
    space = draw(st.sampled_from(COST_SPACES))
    rng = Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("atomic", "merged", "plateau", "pooled")))
    if kind == "atomic":
        return atomic_decomposition(random_function(space, rng))
    if kind == "merged":
        return merged_decomposition(random_function(space, rng))
    # on the window, E F stays inside [-6, 6]
    points = [x for x in space.elements if not space.is_window or abs(x) <= 3]
    subsets = st.sets(st.sampled_from(points), min_size=1, max_size=3)
    if kind == "plateau":
        return plateau_from_sets(space, draw(subsets), draw(subsets))[1]
    # several terms sharing right factors drawn from a pool in which two
    # factors have the same support and different values
    h = random_function(space, rng, support_size=2)
    pool = [h, h.scale(0.5), random_function(space, rng, support_size=2)]
    terms = tuple((random_function(space, rng), draw(st.sampled_from(pool)))
                  for _ in range(draw(st.integers(1, 4))))
    target = Decomposition(terms=terms, target=GroupFunction.zero(space)).reconstruct()
    return Decomposition(terms=terms, target=target)


@settings(max_examples=100, deadline=None)
@given(decompositions(), st.sampled_from(CATALOG_PAIR_NAMES))
def test_cost_equals_the_oracle_checked_term_by_term_sum(d, name):
    pair = pair_from_name(name)
    reference = _reference_cost(d, pair)
    assert decomposition_cost(d, pair) == reference
    with shared_solves():
        # the second cost reads every solve from the outer scope's memo
        assert decomposition_cost(d, pair) == reference
        assert decomposition_cost(d, pair) == reference
    space = d.target.space
    if not space.is_window:
        u, v = (random_function(space, Random(len(d.terms) + k)) for k in range(2))
        one = GroupFunction.constant(space, 1.0)
        assert (submultiplicativity_report(u, v, pair).beta
                == orlicz_norm(pair.swap(), one).value)


def test_atomic_cost_prices_the_repeated_right_factor_once(z6, monkeypatch):
    solved = []
    real = norms._solve_once

    def counting(kind, phi, f, solve):
        def counted():
            solved.append(kind)
            return solve()
        return real(kind, phi, f, counted)

    monkeypatch.setattr(norms, "_solve_once", counting)
    u = random_function(z6, Random(3), support_size=5)
    d = atomic_decomposition(u)
    assert len(d.terms) == 5
    decomposition_cost(d, pair_from_name("cosh"))
    # delta_e is the right factor of every term: one Amemiya solve; the
    # five left factors sit at five points and are solved one by one
    assert solved.count("amemiya") == 1
    assert solved.count("luxemburg") == 5


def test_merged_pair_that_overflows_is_out_of_scope():
    z8 = cyclic(8)
    with pytest.raises(ScopeError, match=r"sup\|f\| = 1e\+308 over the Haar weight 0.125"):
        merged_decomposition(GroupFunction.delta(z8, 0, 1e308))
    f, _ = merged_decomposition(GroupFunction.delta(z8, 0, 1e307)).terms[0]
    assert f(0) == 8e307


@pytest.mark.parametrize("kind, epsilon", [("power-2", 1e308)])
def test_chain_tail_past_the_inverse_float_range_is_out_of_scope(kind, epsilon):
    pair = pair_from_name(kind)
    with pytest.raises(ScopeError, match=re.escape(f"eps = {epsilon:g} gives t =")):
        build_plateau(integer_window(16), [0], pair, epsilon)


def test_chain_tail_names_a_t_that_underflows_and_a_bound_that_overflows():
    pair = pair_from_name("power-2")
    with pytest.raises(ScopeError, match=r"= 0: t underflows to 0$"):
        algebra._chain_tail(pair, 2.0, 2.0, 1e308, 1.0)
    with pytest.raises(ScopeError, match=r"= 1e-308, but the bound 2 \(1\+eps\) overflows$"):
        algebra._chain_tail(pair, 1.0, 1.0, 1e308, 1.0)


@pytest.mark.parametrize("kind, epsilon", [("cosh", 1e20), ("power-2", 1e150),
                                           ("entropy", 1e50)])
def test_chain_tail_at_a_normal_float_t_certifies(kind, epsilon):
    _, cert = build_plateau(integer_window(16), [0], pair_from_name(kind), epsilon)
    assert all(c.passed for c in cert.checks())
