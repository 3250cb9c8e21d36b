"""Level-set membership and the avoidance-pair witness pipeline."""

import cmath
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
from orliczalg.groups import (
    GroupFunction,
    cyclic,
    integer_window,
    random_function,
    translate_left,
)
from orliczalg.nfunctions import pair_power
from orliczalg.porosity import (
    Perturbation,
    ProbeRecord,
    build_witness,
    level_integral,
    level_membership,
    make_instance,
)
from orliczalg.specio import pair_from_name

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
    assert all(c.passed for c in wit.checks())
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
    assert all(c.passed for c in wit.checks())


def test_witness_zero_pair_constructs(window):
    zero = GroupFunction.zero(window)
    inst = make_instance(zero, zero, 11, 32.0, 1)
    wit = build_witness(inst, pair_power(2.0), probe_count=10, seed=2)
    assert all(c.passed for c in wit.checks())


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
    assert all(c.passed for c in wit.checks())
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
            return (Perturbation("atom", pos, amp, abs(amp) * kappa_phi, abs(amp) * kappa_psi),
                    tuple(GroupFunction.delta(space, pos, amp).items()))
        pos = rng.randint(-max(4, w // 4), max(4, w // 4))
        fresh, cert = fresh_bumps[name, pos]
        amp = (budget / ((cert.cost_phi + cert.cost_psi) if intersection
                         else cert.cost_phi)) * phase
        return (Perturbation("plateau", pos, amp, abs(amp) * cert.cost_phi,
                             abs(amp) * cert.cost_psi), tuple(fresh.scale(amp).items()))
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


# -- the probe path against GroupFunction sums -----------------------------------

def _reference_neighborhood(space, k, K, R, r):
    """Largest rho <= r with |k| > R/32 on [-rho, rho] + K, read through k(x)."""
    for rho in range(r, -1, -1):
        if all(abs(k(x + j)) > R / 32.0 for x in K for j in range(-rho, rho + 1)
               if abs(x + j) <= space.window_radius):
            return rho
    return 0


def _reference_level_max(h, k, r):
    """(max, arg max) of level_integral over [-r, r], the first maximum kept."""
    best, best_x = -math.inf, None
    for x in range(-r, r + 1):
        val = level_integral(h, k, x)
        if val > best:
            best, best_x = val, x
    return best, best_x


def _reference_summand(space, bump, delta):
    """The summand of a Perturbation record, built as a GroupFunction."""
    if delta.kind == "atom":
        return GroupFunction.delta(space, delta.position, delta.amplitude)
    return translate_left(delta.position, bump).scale(delta.amplitude)


def reference_probes(inst, pair, wit, probe_count, seed):
    """wit's probes evaluated on h = f~ + delta f and k = g~ + delta g built as
    GroupFunctions, with the draws of the same seed; each summand is rebuilt
    from its record, never read from the drawn pairs."""
    space, R, r, K = inst.f.space, inst.radius, inst.v_radius, wit.collected
    s1, s2 = wit.quadrant
    f_tilde = inst.f + wit.u.scale(s1 * R / 8.0)
    g_tilde = inst.g + wit.u.scale(s2 * R / 16.0)
    rng = Random(seed)
    kappa = porosity._atom_costs(space, pair)
    bump = build_plateau(space, range(-1, 2), pair, 1.0)
    records = []
    for idx in range(probe_count):
        delta_f, _ = porosity._draw_perturbation(space, *bump, rng, R, *kappa,
                                                 intersection=False)
        delta_g, _ = porosity._draw_perturbation(space, *bump, rng, R, *kappa,
                                                 intersection=True)
        h = f_tilde + _reference_summand(space, bump[0], delta_f)
        k = g_tilde + _reference_summand(space, bump[0], delta_g)
        best, best_x = _reference_level_max(h, k, r)
        records.append(ProbeRecord(
            index=idx, delta_f=delta_f, delta_g=delta_g, budget_f=delta_f.cost_phi,
            budget_g=delta_g.cost_phi + delta_g.cost_psi,
            h_min_on_k=min(abs(h(x)) for x in K), k_min_on_k=min(abs(k(x)) for x in K),
            certified_u_radius=_reference_neighborhood(space, k, K, R, r),
            violating_x=best_x, integral_value=best))
    return tuple(records)


def _complex_on_box(window, modulus, turn):
    """modulus * e^{i turn x} on [-5, 5]."""
    return GroupFunction(window, {x: cmath.rect(modulus, turn * x) for x in range(-5, 6)})


@pytest.fixture(scope="module")
def complex_pair(window):
    # |f||g| = 0.5 <= 1 on [-5, 5]: the level integral stays below 11
    return _complex_on_box(window, 0.5, 0.7), _complex_on_box(window, 1.0, -1.9)


@pytest.mark.parametrize("seed", [1, 21])
@pytest.mark.parametrize("name", CATALOG)
@pytest.mark.parametrize("values", ["box", "complex"])
def test_probes_equal_the_group_function_reference(box, complex_pair, values, name, seed):
    f, g = (box, box) if values == "box" else complex_pair
    inst = make_instance(f, g, 11, 32.0, 1)
    pair = pair_from_name(name)
    wit = build_witness(inst, pair, probe_count=40, seed=seed)
    assert wit.probes == reference_probes(inst, pair, wit, 40, seed)


def test_probes_equal_the_reference_with_a_wider_neighborhood(box):
    inst = make_instance(box, box, 11, 32.0, 2)
    pair = pair_from_name("entropy")
    wit = build_witness(inst, pair, probe_count=40, seed=5)
    assert {p.violating_x for p in wit.probes} <= set(range(-2, 3))
    assert wit.probes == reference_probes(inst, pair, wit, 40, 5)


def test_perturbation_that_cancels_a_value_leaves_the_support(window, box, monkeypatch):
    inst = make_instance(box, box, 11, 32.0, 1)
    pair = pair_power(2.0)
    plain = build_witness(inst, pair, probe_count=10, seed=3)
    y = plain.collected[0]
    f_tilde = inst.f + plain.u.scale(plain.quadrant[0] * inst.radius / 8.0)
    cancel = GroupFunction.delta(window, y, -f_tilde(y))
    assert (f_tilde + cancel).support == tuple(x for x in f_tilde.support if x != y)
    f_values = dict(f_tilde.items())
    f_abs = {x: abs(v) for x, v in f_tilde.items()}
    h = porosity._perturbed_abs(f_values, f_abs, tuple(cancel.items()))
    assert y not in h and list(h) == [x for x in f_abs if x != y]
    real = porosity._draw_perturbation

    def cancelling(space, *args, intersection):
        delta, pairs = real(space, *args, intersection=intersection)
        if intersection:
            return delta, pairs
        return (delta._replace(kind="atom", position=y, amplitude=-f_tilde(y)),
                tuple(cancel.items()))

    monkeypatch.setattr(porosity, "_draw_perturbation", cancelling)
    wit = build_witness(inst, pair, probe_count=10, seed=3)
    assert all(p.h_min_on_k == 0.0 for p in wit.probes)
    assert wit.probes == reference_probes(inst, pair, wit, 10, 3)


def test_perturbed_abs_equals_the_group_function_sum(window):
    rng = Random(8)
    for _ in range(50):
        c = random_function(window, rng, support_size=rng.randint(0, 12))
        delta = random_function(window, rng, support_size=rng.randint(1, 4))
        if rng.random() < 0.5:      # overlap the supports
            delta = GroupFunction(window, {x: v for x, (_, v) in zip(c.support, delta.items())})
        want = {x: abs(v) for x, v in (c + delta).items()}
        got = porosity._perturbed_abs(dict(c.items()),
                                      {x: abs(v) for x, v in c.items()}, tuple(delta.items()))
        assert list(got.items()) == list(want.items())


def _resorted_abs(space, values, values_abs, pairs):
    """|c + delta| with the whole support re-sorted by carrier index: the
    reference for the splice of ``_perturbed_abs``."""
    out = dict(values_abs)
    for y, d in pairs:
        v = values.get(y, 0j) + d
        if v != 0:
            out[y] = abs(v)
        else:
            del out[y]
    return {y: out[y] for y in sorted(out, key=space.index)}


def test_perturbed_abs_splices_new_points_as_the_resort_would(window, monkeypatch):
    rng = Random(29)
    for _ in range(300):
        c = random_function(window, rng, support_size=rng.randint(0, 40))
        values = dict(c.items())
        w = window.window_radius
        if rng.random() < 0.5:      # an atom, on or off the support
            y = rng.choice(c.support) if c.support and rng.random() < 0.5 \
                else rng.randint(-w, w)
            pairs = [(y, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))]
        else:                       # a bump of three points
            pos = rng.randint(-w + 1, w - 1)
            pairs = [(pos + j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                     for j in (-1, 0, 1)]
        for i, (y, _) in enumerate(pairs):  # cancel a value on the support
            if y in values and rng.random() < 0.3:
                pairs[i] = (y, -values[y])
        pairs = tuple(pairs)
        values_abs = {x: abs(v) for x, v in c.items()}
        got = porosity._perturbed_abs(values, values_abs, pairs)
        assert list(got.items()) == list(_resorted_abs(window, values, values_abs, pairs).items())
    # the splice reads no carrier index: a window's order is its integers'
    c = random_function(window, rng, support_size=200)
    calls = []
    real = type(window).index
    monkeypatch.setattr(type(window), "index", lambda self, x: calls.append(x) or real(self, x))
    y = next(x for x in range(-256, 257) if x not in dict(c.items()))
    porosity._perturbed_abs(dict(c.items()), {x: abs(v) for x, v in c.items()}, ((y, 1.0 + 0j),))
    assert calls == []


@pytest.mark.parametrize("name", CATALOG)
def test_probes_build_no_group_function(box, monkeypatch, name):
    # every GroupFunction of a witness is built before its probe loop
    inst = make_instance(box, box, 11, 32.0, 1)
    pair = pair_from_name(name)
    real = GroupFunction.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(GroupFunction, "__init__", counting)
    counts = []
    for probe_count in (1, 100):
        built.clear()
        build_witness(inst, pair, probe_count=probe_count, seed=21)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_certified_neighborhood_equals_the_reference():
    # dense k near the edge of a small window, one value exactly at the
    # floor R/32, so that the floor, its strictness and the window's edge
    # all decide rho
    space, rng = integer_window(12), Random(6)
    radii = []
    for _ in range(200):
        r, R = rng.randint(1, 3), 32.0 * rng.uniform(0.05, 0.6)
        k = random_function(space, rng, support_size=rng.randint(15, 25))
        k = GroupFunction(space, {**dict(k.items()), rng.randint(-12, 12): R / 32.0})
        K = tuple(sorted(rng.sample(range(-12, 13), rng.randint(1, 4))))
        got = porosity._certified_neighborhood({x: abs(v) for x, v in k.items()},
                                               porosity._neighborhoods(space, K, r), R)
        assert got == _reference_neighborhood(space, k, K, R, r)
        radii.append(got)
    assert set(radii) == {0, 1, 2, 3}


def test_level_membership_equals_the_level_integral_maximum(window):
    rng = Random(4)
    for r in (1, 2, 3):
        for _ in range(10):
            f = random_function(window, rng, support_size=rng.randint(0, 20))
            g = random_function(window, rng, support_size=rng.randint(0, 20))
            _, best, best_x = level_membership(f, g, 11, r)
            assert (best, best_x) == _reference_level_max(f, g, r)


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
    assert any(c.name == "value-one-on-set" for c in err.value.state["failures"])


def test_witness_whose_probes_do_not_violate_raises_with_the_failing_check(
        window, box, monkeypatch):
    inst = make_instance(box, box, 11, 32.0, 1)
    monkeypatch.setattr(porosity, "_level_max",
                        lambda f_abs, g_abs, w, r: (float(inst.n), 0))
    with pytest.raises(TheoremContradictionError) as info:
        build_witness(inst, pair_power(2.0), probe_count=3, seed=3)
    state = info.value.state
    assert [c.name for c in state["failures"]] == ["all-probes-violate"]
    assert [p.index for p in state["non_violating"]] == [0, 1, 2]
    assert state["K"] == (-1, 0, 1, 2, 3, 4) and state["quadrant"] == (1, 1)
    assert state["seed"] == 3


def test_witness_collects_until_both_mass_clauses_hold(window, box):
    # 512 n / R^2 rounds one ulp below 108, so lam(K) = 108 > threshold
    # while (R^2/512) 108 == 11.0 == n: collection must go on to 111
    inst = make_instance(box, box, 11, 7.221367470787521, 1)
    assert inst.threshold < 108.0 and inst.radius ** 2 / 512.0 * 108.0 == 11.0
    wit = build_witness(inst, pair_power(2.0), probe_count=5, seed=0)
    assert wit.lam_k == 111.0
    assert wit.guaranteed_integral > inst.n
    assert all(c.passed for c in wit.checks())


# -- step 1 (the quadrant) against the four-region scan ------------------------

def _quadrant_region(f, g, s1, s2):
    """{x : s1 Re f(x) >= 0 or < 0 as s1 is 1 or -1, likewise for g}, read at every window point."""
    def side(fn, s, x):
        re = fn(x).real
        return re >= 0.0 if s == 1 else re < 0.0
    return {x for x in f.space.elements if side(f, s1, x) and side(g, s2, x)}


def reference_collection(inst):
    """(quadrant, base points, K) of steps 1 and 2 from four regions, the
    quadrant with the most candidate-translate points in its region winning
    (ties to the first in order); None for base points and K when the
    window holds too little mass."""
    r = inst.v_radius
    candidates = porosity._translate_candidates(inst.f.space, r)
    best, region, total = None, None, -1
    for q in porosity.QUADRANT_ORDER:
        here = _quadrant_region(inst.f, inst.g, *q)
        count = sum(1 for a in candidates for j in range(-r, r + 1) if a + j in here)
        if count > total:
            best, region, total = q, here, count
    base_points, collected = [], []
    for a in candidates:
        base_points.append(a)
        collected.extend(x for j in range(-r, r + 1) if (x := a + j) in region)
        checks = porosity._mass_checks(float(len(collected)), inst.threshold, inst.radius, inst.n)
        if all(c.passed for c in checks):
            return best, tuple(base_points), tuple(sorted(collected))
    return best, None, None


def _random_signed(space, rng, density):
    """A function with random complex values on about ``density`` of the window,
    real parts leaning to one sign drawn per function; a fifth of them have
    real part 0.0 or -0.0."""
    values, lean = {}, rng.choice((-0.6, 0.0, 0.6))
    for x in space.elements:
        if rng.random() < density:
            re = rng.choice((0.0, -0.0)) if rng.random() < 0.2 else rng.uniform(-1.0, 1.0) + lean
            values[x] = complex(re, rng.uniform(-1.0, 1.0))
    return GroupFunction(space, values)


def _instance(f, g, n, R, v_radius):
    """An instance that skips the level-set test, which steps 1 and 2 do not read."""
    return porosity.PorosityInstance(f=f, g=g, n=n, radius=R, v_radius=v_radius,
                                     max_integral=0.0, boundary_flag=False)


def assert_collection_equals_reference(inst):
    quadrant, base_points, K = reference_collection(inst)
    if K is None:
        with pytest.raises(InfeasibleWindowError):
            porosity._collect_translates(inst)
    else:
        assert porosity._collect_translates(inst) == (quadrant, base_points, K)


@pytest.mark.parametrize("radius, v_radius, R", [(48, 1, 32.0), (48, 2, 24.0),
                                                 (64, 3, 32.0), (12, 1, 16.0)])
@pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_quadrant_equals_the_four_region_reference(radius, v_radius, R, density, seed):
    space, rng = integer_window(radius), Random(seed)
    f, g = _random_signed(space, rng, density), _random_signed(space, rng, density)
    assert_collection_equals_reference(_instance(f, g, 11, R, v_radius))


def test_quadrant_of_zero_functions_and_zero_real_parts_is_the_first():
    space = integer_window(32)
    zero = GroupFunction.zero(space)
    imaginary = GroupFunction(space, {x: complex(-0.0 if x % 2 else 0.0, x)
                                      for x in range(-32, 33)})
    for f, g in ((zero, zero), (imaginary, zero), (zero, imaginary), (imaginary, imaginary)):
        inst = _instance(f, g, 11, 32.0, 1)
        assert reference_collection(inst)[0] == (1, 1)
        assert_collection_equals_reference(inst)


def test_quadrant_tie_goes_to_the_first_in_order():
    # 31 candidate points each in (-1, 1) and (1, -1), and x = 0 in (1, 1)
    space = integer_window(32)
    f = GroupFunction(space, {x: -1.0 for x in range(-32, 0)})
    g = GroupFunction(space, {x: -1.0 for x in range(1, 33)})
    inst = _instance(f, g, 11, 32.0, 1)
    assert reference_collection(inst)[0] == (1, -1)
    assert_collection_equals_reference(inst)
