"""Acceptance battery: one test per criterion, stated tolerances, one
printed pass/fail line each. Run with `pytest -s tests/test_acceptance.py`
to see the lines; any assertion failure fails the criterion."""

import math
import time
from random import Random

import pytest

import orliczalg.cli as cli
from orliczalg.algebra import algebra_norm_upper, build_plateau, submultiplicativity_report
from orliczalg.errors import TheoremContradictionError
from orliczalg.groups import (
    GroupFunction,
    cyclic,
    direct_product,
    integer_window,
    random_function,
    symmetric_group3,
)
from orliczalg.nfunctions import (
    CATALOG_PAIR_NAMES,
    conjugate,
    inverse_product_ratio,
    pair_cosh,
    pair_entropy,
    pair_power,
)
from orliczalg.norms import char_fn_norm, luxemburg, orlicz_norm
from orliczalg.numerics import geometric_grid
from orliczalg.porosity import build_witness, make_instance
from orliczalg.specio import pair_from_name
from orliczalg.structure import convolution_unit, enumerate_characters, multiplicative_functional_search, segal_report


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num} pass: {detail}")


def test_criterion_1_conjugacy_closed_forms():
    started = time.monotonic()
    ys = geometric_grid(1e-2, 1e2, 33)
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        q = p / (p - 1.0)
        psi = conjugate(pair_power(p).phi)
        for y in ys:
            want = y ** q / q
            err = abs(psi(y) - want) / want
            worst = max(worst, err)
            assert err <= 1e-8, (p, y, err)
    for pair, label in ((pair_entropy(), "entropy"), (pair_cosh(), "cosh")):
        psi = conjugate(pair.phi)
        for y in ys:
            want = pair.psi(y)
            err = abs(psi(y) - want) / (1.0 + want)
            assert err <= 1e-6, (label, y, err)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(1, f"power/entropy/cosh conjugates match closed forms, "
               f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_inverse_product_inequality():
    ts = geometric_grid(1e-3, 1e3, 41)
    for name in CATALOG_PAIR_NAMES:
        pair = pair_from_name(name)
        for t in ts:
            r = inverse_product_ratio(pair, t)
            assert 1.0 < r <= 2.0 + 1e-9, (name, t, r)
    quad = pair_power(2.0)
    quad_dev = max(abs(inverse_product_ratio(quad, t) - 2.0) for t in ts)
    assert quad_dev <= 1e-8
    _report(2, f"ratio in (1, 2] on 41 points x 4 pairs; quadratic deviation "
               f"from 2 is {quad_dev:.2e}")


def test_criterion_3_characteristic_norm_closed_form():
    z12 = cyclic(12)
    rng = Random(123)
    worst = 0.0
    for name in CATALOG_PAIR_NAMES:
        pair = pair_from_name(name)
        for _ in range(20):
            subset = rng.sample(list(z12.elements), rng.randint(1, 12))
            closed = char_fn_norm(pair.phi, z12, subset)
            bisected = luxemburg(pair.phi, GroupFunction.indicator(z12, subset)).value
            worst = max(worst, abs(closed - bisected))
            assert abs(closed - bisected) <= 1e-10
    _report(3, f"indicator norms: bisection vs closed form on 80 subsets, "
               f"worst gap {worst:.2e}")


def test_criterion_4_norm_equivalence_and_oracle():
    rng = Random(321)
    spaces = [cyclic(4), cyclic(6), cyclic(8), direct_product(cyclic(2), cyclic(2)),
              symmetric_group3()]
    count = 0
    worst_oracle = 0.0
    for space in spaces:
        for name in CATALOG_PAIR_NAMES:
            pair = pair_from_name(name)
            for _ in range(10):
                f = random_function(space, rng, amplitude=3.0)
                n = luxemburg(pair.phi, f).value
                rep = orlicz_norm(pair, f)
                assert n <= rep.value + 1e-9
                assert rep.value <= 2.0 * n + 1e-9
                gap = abs(rep.value - rep.oracle_value)
                assert gap <= 1e-6 * max(1.0, rep.value)
                worst_oracle = max(worst_oracle, gap)
                count += 1
    assert count >= 200
    _report(4, f"sandwich N <= ||.|| <= 2N on {count} random functions; "
               f"worst oracle gap {worst_oracle:.2e}")


def test_criterion_5_plateau_certificates():
    window = integer_window(64)
    pair = pair_power(2.0)
    for eps in (1.0, 0.5, 0.1):
        u, cert = build_plateau(window, [-1, 0, 1], pair, eps)
        assert cert.on_set_error <= 1e-12
        assert cert.range_low >= -1e-12 and cert.range_high <= 1.0 + 1e-12
        assert cert.support_ok
        assert cert.cost_phi < 2.0 * (1.0 + eps)
        assert cert.cost_psi < 2.0 * (1.0 + eps)
        for step in (*cert.chain_phi, *cert.chain_psi):
            assert step.slack >= 0.0, (eps, step.name, step.slack)
    _report(5, "plateau over [-1, 1]: value, range, support and certified "
               "cost chain pass for eps in {1, 0.5, 0.1}")


def test_criterion_6_porosity_witness(monkeypatch, capsys):
    started = time.monotonic()
    window = integer_window(256)
    box = GroupFunction.indicator(window, range(-5, 6))
    inst = make_instance(box, box, 11, 32.0, 1)
    wit = build_witness(inst, pair_power(2.0), probe_count=100, seed=2024)
    assert wit.lam_k == 6.0 and wit.threshold == pytest.approx(5.5)
    assert wit.lam_k > wit.threshold
    assert wit.guaranteed_integral == pytest.approx(12.0)
    assert wit.guaranteed_integral > 11
    assert len(wit.probes) == 100
    assert all(c.passed for c in wit.checks())
    again = build_witness(inst, pair_power(2.0), probe_count=100, seed=2024)
    assert [(p.violating_x, p.integral_value) for p in wit.probes] == \
        [(p.violating_x, p.integral_value) for p in again.probes]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0

    # probe-failure surfacing contract: a contradiction exits 4
    def boom(*args, **kwargs):
        raise TheoremContradictionError("probe failed to violate", state={"probe": 0})
    monkeypatch.setattr(cli, "build_witness", boom)
    code = cli.main(["porosity", "witness", "--probes", "1"])
    capsys.readouterr()
    assert code == 4
    _report(6, f"lam(K) = 6 > 5.5, floor 12 > 11, 100/100 probes violate, "
               f"deterministic, {elapsed:.2f}s; contradiction path exits 4")


def test_criterion_7_convolution_closure_chain():
    z8 = cyclic(8)
    pair = pair_power(2.0)
    rng = Random(7)
    worst_inner = worst_outer = math.inf
    alpha_closed = 1.0 / pair.phi.inverse(1.0)
    for _ in range(100):
        u, v = random_function(z8, rng), random_function(z8, rng)
        rep = submultiplicativity_report(u, v, pair)
        assert rep.alpha == pytest.approx(alpha_closed)
        assert rep.inner_slack >= -1e-9
        assert rep.outer_slack >= -1e-9
        worst_inner = min(worst_inner, rep.inner_slack)
        worst_outer = min(worst_outer, rep.outer_slack)
    _report(7, f"closure chain on 100 random pairs of Z8 functions, worst "
               f"slacks {worst_inner:.2e} / {worst_outer:.2e}")


def test_criterion_8_segal_battery():
    spaces = [cyclic(2), cyclic(4), cyclic(6),
              direct_product(cyclic(2), cyclic(2)), symmetric_group3()]
    rng = Random(88)
    for space in spaces:
        for name in CATALOG_PAIR_NAMES:
            pair = pair_from_name(name)
            rep = segal_report(space, pair, samples=8, seed=88)
            assert all(c.passed for c in rep), (space.name, name,
                                                [(c.name, c.slack) for c in rep if not c.passed])
            inv = next(c for c in rep if c.name == "translation-cost-invariance")
            assert inv.passed  # deviation bounded by 1e-12 inside the check
            for _ in range(4):
                f = random_function(space, rng)
                assert f.one_norm() <= algebra_norm_upper(f, pair).upper + 1e-9
    _report(8, "Segal axioms pass on 5 groups x 4 pairs; cost invariance "
               "within 1e-12; ||f||_1 below every sampled upper bound")


def test_criterion_9_units():
    for space in (cyclic(2), cyclic(4), cyclic(6),
                  direct_product(cyclic(2), cyclic(2)), symmetric_group3(),
                  cyclic(64)):
        rep = convolution_unit(space, pair_power(2.0), epsilon=1.0)
        assert rep.max_error <= 1e-12, space.name
        assert rep.pointwise_cert.passed
        assert rep.pointwise_cert.cost_phi < 2.0 * (1.0 + 1.0)
        one = rep.pointwise_unit
        assert all(one(x) == pytest.approx(1.0, abs=1e-12) for x in space.elements)
    _report(9, "convolution unit exact to 1e-12 exhaustively up to |G| = 64; "
               "pointwise unit certified below 2 (1 + eps)")


def test_criterion_10_character_space():
    for space in (cyclic(2), cyclic(3), cyclic(4),
                  direct_product(cyclic(2), cyclic(2)), cyclic(6)):
        started = time.monotonic()
        a = enumerate_characters(space)
        b = multiplicative_functional_search(space)
        elapsed = time.monotonic() - started
        assert len(a) == space.size
        assert a.exponent_set() == b.exponent_set()
        assert elapsed < 1.0, (space.name, elapsed)
    _report(10, "character routes agree exactly with |G| members on "
                "Z2, Z3, Z4, Z2xZ2, Z6, each under 1s")
