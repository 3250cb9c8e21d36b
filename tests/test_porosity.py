"""Level-set membership and the avoidance-pair witness pipeline."""

import dataclasses
import math
from random import Random

import pytest

import orliczalg.porosity as porosity
from orliczalg.algebra import build_plateau
from orliczalg.errors import (
    InfeasibleWindowError,
    OrliczAlgebraError,
    ScopeError,
    TheoremContradictionError,
)
from orliczalg.groups import GroupFunction, cyclic, integer_window, translate_left
from orliczalg.nfunctions import pair_from_name, pair_power
from orliczalg.porosity import (
    Perturbation,
    build_witness,
    level_integral,
    level_membership,
    make_instance,
)

CATALOG = ("power-2", "power-3", "entropy", "cosh")


@pytest.fixture(scope="module")
def window():
    return integer_window(256)


@pytest.fixture(scope="module")
def box(window):
    return GroupFunction.indicator(window, range(-5, 6))


def overlap_oracle(a: int, width: int, x: int) -> int:
    """|[-w, w] cap [x - w, x + w]| by interval arithmetic."""
    lo = max(-width, x - width)
    hi = min(width, x + width)
    return max(0, hi - lo + 1)


def test_level_integral_oracle(window, box):
    # two centered boxes: the integral at shift x is the overlap count
    for x in (-3, -1, 0, 1, 2, 7, 11):
        want = float(overlap_oracle(5, 5, x))
        assert level_integral(box, box, x) == pytest.approx(want)


def test_level_membership_boundary_cases(window, box):
    member, top, arg = level_membership(box, box, 11, 1)
    assert member and top == pytest.approx(11.0) and arg == 0
    member10, top10, _ = level_membership(box, box, 10, 1)
    assert not member10 and top10 == pytest.approx(11.0)
    zero = GroupFunction.zero(window)
    member0, top0, _ = level_membership(zero, zero, 1, 1)
    assert member0 and top0 == 0.0


def test_make_instance_validates_membership(window, box):
    inst = make_instance(box, box, 11, 32.0, 1)
    assert inst.threshold == pytest.approx(5.5)
    assert not inst.boundary_flag
    with pytest.raises(OrliczAlgebraError):
        make_instance(box, box, 10, 32.0, 1)


def test_instance_scope_errors(window, box):
    z8 = cyclic(8)
    with pytest.raises(ScopeError):
        make_instance(GroupFunction.delta(z8, 0), GroupFunction.delta(z8, 0), 1, 1.0)
    with pytest.raises(OrliczAlgebraError):
        make_instance(box, box, 11, -1.0, 1)


def test_witness_acceptance_instance(window, box):
    inst = make_instance(box, box, 11, 32.0, 1)
    wit = build_witness(inst, pair_power(2.0), probe_count=25, seed=3)
    assert wit.quadrant == (1, 1)
    assert wit.m0 == 2                      # two 3-point translates
    assert wit.lam_k == 6.0                 # lam(K) = 6 > 5.5
    assert wit.lam_k > wit.threshold
    assert wit.guaranteed_integral == pytest.approx(12.0)  # (R^2/512) lam(K)
    assert wit.guaranteed_integral > inst.n
    assert wit.all_probes_violate
    assert wit.plateau_cert.cost_phi + wit.plateau_cert.cost_psi <= 8.0
    assert wit.dist_f_bound <= inst.radius / 2.0
    assert wit.dist_g_bound <= inst.radius / 2.0


def test_witness_probe_diagnostics(window, box):
    inst = make_instance(box, box, 11, 32.0, 1)
    wit = build_witness(inst, pair_from_name("entropy"), probe_count=10, seed=5)
    R = inst.radius
    for probe in wit.probes:
        assert probe.h_min_on_k >= R / 16.0
        assert probe.k_min_on_k > R / 32.0
        assert probe.budget_f <= 0.99 * R / 32.0
        assert probe.budget_g <= 0.99 * R / 32.0
        assert probe.integral_value > inst.n


def test_witness_deterministic_per_seed(window, box):
    inst = make_instance(box, box, 11, 32.0, 1)
    a = build_witness(inst, pair_power(2.0), probe_count=15, seed=9)
    b = build_witness(inst, pair_power(2.0), probe_count=15, seed=9)
    assert a.collected == b.collected
    assert [(p.violating_x, p.integral_value) for p in a.probes] == \
        [(p.violating_x, p.integral_value) for p in b.probes]
    c = build_witness(inst, pair_power(2.0), probe_count=15, seed=10)
    assert [(p.delta_f.kind, p.delta_f.position) for p in a.probes] != \
        [(p.delta_f.kind, p.delta_f.position) for p in c.probes]


def test_witness_small_n_single_translate(window):
    # 512 * 2 / 32^2 = 1, so one 3-point translate already exceeds it
    zero = GroupFunction.zero(window)
    inst = make_instance(zero, zero, 2, 32.0, 1)
    wit = build_witness(inst, pair_power(2.0), probe_count=5, seed=1)
    assert wit.m0 == 1
    assert wit.lam_k == 3.0
    assert wit.all_probes_violate


def test_witness_zero_pair_constructs(window):
    zero = GroupFunction.zero(window)
    inst = make_instance(zero, zero, 11, 32.0, 1)
    wit = build_witness(inst, pair_power(2.0), probe_count=10, seed=2)
    assert wit.all_probes_violate


def test_witness_infeasible_window_reports_radius():
    tiny = integer_window(6)
    zero = GroupFunction.zero(tiny)
    inst = make_instance(zero, zero, 11, 4.0, 1)   # needs lam(K) > 352
    with pytest.raises(InfeasibleWindowError) as err:
        build_witness(inst, pair_power(2.0), probe_count=1, seed=0)
    assert err.value.minimal_radius is not None
    assert err.value.minimal_radius > 6


def test_negative_quadrant_sign_flips(window):
    # f strictly negative on most of the window outweighs the complement,
    # so s(1) = -1 wins and the perturbation must point the same way for
    # |h| >= R/16 on K (zero values count toward the Re >= 0 side)
    f = GroupFunction.indicator(window, range(-200, 201)).scale(-0.01)
    g = GroupFunction.indicator(window, range(-5, 6))
    inst = make_instance(f, g, 11, 32.0, 1)
    wit = build_witness(inst, pair_power(2.0), probe_count=10, seed=4)
    assert wit.quadrant[0] == -1
    assert wit.all_probes_violate
    for probe in wit.probes:
        assert probe.h_min_on_k >= inst.radius / 16.0


# -- the translated probe bump against fresh builds ---------------------------

@pytest.fixture(scope="module")
def fresh_bumps(window):
    """(pair name, pos) -> build_plateau over {pos - 1, pos, pos + 1}, built anew."""
    return {(name, pos): build_plateau(window, range(pos - 1, pos + 2),
                                       pair_from_name(name), 1.0)
            for name in CATALOG for pos in range(-64, 65)}


@pytest.mark.parametrize("name", CATALOG)
def test_translated_bump_matches_fresh_build(window, fresh_bumps, name):
    bump, cert = build_plateau(window, range(-1, 2), pair_from_name(name), 1.0)
    for pos in range(-64, 65):
        fresh, fresh_cert = fresh_bumps[name, pos]
        moved = translate_left(pos, bump)
        assert not moved.truncated and not fresh.truncated
        assert moved.support == fresh.support
        assert moved.max_abs_diff(fresh) == 0.0
        assert cert.cost_phi == fresh_cert.cost_phi
        assert cert.cost_psi == fresh_cert.cost_psi


@pytest.mark.parametrize("name", CATALOG)
def test_plateau_probe_costs_equal_fresh_certificate(window, box, fresh_bumps, name):
    inst = make_instance(box, box, 11, 32.0, 1)
    wit = build_witness(inst, pair_from_name(name), probe_count=100, seed=13)
    plateau_deltas = [d for p in wit.probes for d in (p.delta_f, p.delta_g)
                      if d.kind == "plateau"]
    assert plateau_deltas
    for delta in plateau_deltas:
        _, fresh_cert = fresh_bumps[name, delta.position]
        assert delta.cost_phi == abs(delta.amplitude) * fresh_cert.cost_phi
        assert delta.cost_psi == abs(delta.amplitude) * fresh_cert.cost_psi


def _fresh_bump_draw(fresh_bumps, name):
    """The per-probe draw with a plateau built anew at each position, as a reference."""
    def draw(space, bump, bump_cert, rng, R, kappa_phi, kappa_psi, *, intersection):
        w = space.window_radius
        eta = rng.uniform(0.0, porosity.BALL_SAFETY)
        a = rng.uniform(0.0, 2.0 * math.pi)
        phase = complex(math.cos(a), math.sin(a))
        budget = eta * R / 32.0
        if rng.random() < 0.5:
            pos = rng.randint(-w, w)
            amp = (budget / ((kappa_phi + kappa_psi) if intersection else kappa_phi)) * phase
            return (Perturbation("atom", pos, amp, abs(amp) * kappa_phi,
                                 abs(amp) * kappa_psi), GroupFunction.delta(space, pos, amp))
        pos = rng.randint(-max(4, w // 4), max(4, w // 4))
        fresh, cert = fresh_bumps[name, pos]
        amp = (budget / ((cert.cost_phi + cert.cost_psi) if intersection
                         else cert.cost_phi)) * phase
        return (Perturbation("plateau", pos, amp, abs(amp) * cert.cost_phi,
                             abs(amp) * cert.cost_psi), fresh.scale(amp))
    return draw


@pytest.mark.parametrize("name", ["entropy", "cosh"])
def test_witness_probes_equal_fresh_bump_path(window, box, fresh_bumps, monkeypatch, name):
    inst = make_instance(box, box, 11, 32.0, 1)
    pair = pair_from_name(name)
    moved = build_witness(inst, pair, probe_count=100, seed=17)
    monkeypatch.setattr(porosity, "_draw_perturbation", _fresh_bump_draw(fresh_bumps, name))
    fresh = build_witness(inst, pair, probe_count=100, seed=17)
    assert any(p.delta_g.kind == "plateau" for p in fresh.probes)
    assert moved.probes == fresh.probes


# -- windows that would truncate a plateau ------------------------------------

@pytest.mark.parametrize("radius", [7, 8, 9])
def test_truncated_k_plateau_is_infeasible(radius):
    # K = [-1, 4] needs V = [-3, 3], so the plateau's support reaches 10
    space = integer_window(radius)
    box = GroupFunction.indicator(space, range(-5, 6))
    inst = make_instance(box, box, 11, 32.0, 1)
    with pytest.raises(InfeasibleWindowError) as err:
        build_witness(inst, pair_power(2.0), probe_count=5, seed=7)
    assert err.value.minimal_radius == 10


def test_k_plateau_at_minimal_radius_is_whole():
    space = integer_window(10)
    box = GroupFunction.indicator(space, range(-5, 6))
    wit = build_witness(make_instance(box, box, 11, 32.0, 1), pair_power(2.0),
                        probe_count=5, seed=7)
    assert not wit.u.truncated and wit.plateau_cert.passed


def test_probe_bumps_must_fit_the_window():
    # probes sit in [-4, 4] and the bump reaches 3 past its center
    zero6 = GroupFunction.zero(integer_window(6))
    with pytest.raises(InfeasibleWindowError) as err:
        build_witness(make_instance(zero6, zero6, 1, 100.0, 1), pair_power(2.0),
                      probe_count=20, seed=0)
    assert err.value.minimal_radius == 7
    zero7 = GroupFunction.zero(integer_window(7))
    wit = build_witness(make_instance(zero7, zero7, 1, 100.0, 1), pair_power(2.0),
                        probe_count=20, seed=0)
    assert 4 in {abs(d.position) for p in wit.probes for d in (p.delta_f, p.delta_g)
                 if d.kind == "plateau"}


def test_failed_probe_bump_certificate_raises(window, box, monkeypatch):
    real = porosity.build_plateau

    def spoiled(space, plateau_set, pair, epsilon):
        u, cert = real(space, plateau_set, pair, epsilon)
        if isinstance(plateau_set, range):      # the probe bump, not K
            cert = dataclasses.replace(cert, on_set_error=0.5)
        return u, cert

    monkeypatch.setattr(porosity, "build_plateau", spoiled)
    inst = make_instance(box, box, 11, 32.0, 1)
    with pytest.raises(TheoremContradictionError) as err:
        build_witness(inst, pair_power(2.0), probe_count=5, seed=0)
    assert "probe bump" in str(err.value)
    assert any("u != 1" in f for f in err.value.state["failures"])
