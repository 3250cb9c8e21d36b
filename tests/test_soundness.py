"""Certificates re-verified without the solver that made them.

Each check recomputes what a certificate claims from outside the norm
solves: the modular at the reported Luxemburg value in 200-bit mpmath with
the exact Haar weight, the Orlicz ends (the Psi-modular of the dual point
and its pairing against the Amemiya objective) the same way, the bracket
of a one-point function against its sup norm, and the pointwise unit's
cost against the exact cost 1 of 1_G. No tolerance is allowed where a
certified end must not cross the quantity it bounds; the reported Orlicz
value, a float objective, is held to the rounding of its sum.
"""

import io
import sys
from contextlib import redirect_stdout
from random import Random

import mpmath

import orliczalg.cli as cli
import orliczalg.norms as norms
from orliczalg.algebra import algebra_norm_upper
from orliczalg.groups import (
    GroupFunction,
    cyclic,
    direct_product,
    integer_window,
    random_function,
    symmetric_group3,
)
from orliczalg.nfunctions import CATALOG_PAIR_NAMES
from orliczalg.norms import luxemburg
from orliczalg.specio import pair_from_name

#: Phi of each catalog pair in mpmath, at the working precision
EXACT_PHI = {
    "power-2": lambda x: x * x / 2,
    "power-3": lambda x: x ** 3 / 3,
    "entropy": lambda x: (1 + x) * mpmath.log1p(x) - x,
    "cosh": lambda x: mpmath.cosh(x) - 1,
}


def _exact_modular_at(pair_name, f, k):
    """rho_Phi(f / k) in 200-bit arithmetic: exact |f(x)|, the exact weight."""
    weight = f.space.weight(next(iter(f.support)))
    phi, k = EXACT_PHI[pair_name], mpmath.mpf(k)
    total = mpmath.fsum(phi(mpmath.sqrt(mpmath.mpf(v.real) ** 2 + mpmath.mpf(v.imag) ** 2) / k)
                        for _, v in f.items())
    return total * weight.numerator / weight.denominator


def test_luxemburg_values_are_feasible_in_exact_arithmetic():
    infeasible = []
    with mpmath.workprec(200):
        for name in CATALOG_PAIR_NAMES:
            phi = pair_from_name(name).phi
            for space in (cyclic(8), cyclic(64), cyclic(128)):
                for seed in range(30):
                    f = random_function(space, Random(seed))
                    value = luxemburg(phi, f).value
                    if _exact_modular_at(name, f, value) > 1:
                        infeasible.append((name, space.name, seed))
    assert infeasible == []


def test_bracket_upper_end_of_a_one_point_function_is_at_least_its_sup():
    # the merged pair prices c delta_x at N_Phi(c delta_x / w) ||delta_e||_Psi,
    # exactly |c|; the float product must not read below it
    rng = Random(15)
    spaces = [cyclic(2), cyclic(4), cyclic(6), cyclic(8),
              direct_product(cyclic(2), cyclic(2)), symmetric_group3(), integer_window(32)]
    pairs = [pair_from_name(name) for name in CATALOG_PAIR_NAMES]
    below = []
    for i in range(600):
        space, pair = spaces[i % len(spaces)], pairs[i // len(spaces) % len(pairs)]
        u = GroupFunction.delta(space, rng.choice(space.elements),
                                complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
        upper = algebra_norm_upper(u, pair).upper
        if not upper >= u.sup_norm():
            below.append((space.name, pair.phi.label, upper, u.sup_norm()))
    assert below == []


def test_pointwise_unit_cost_on_z6_cosh_is_at_least_one():
    # N_Phi(1_G) ||1_G||_Psi = 1 exactly on a finite group of mass 1
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["unit", "check", "--group", '{"type": "Zn", "n": 6}',
                         "--nfunction", '{"kind": "cosh"}']) == 0
    report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
    assert float(report["pointwise-unit-cost"]) >= 1.0


#: Psi of each catalog pair in mpmath: the complement of EXACT_PHI
EXACT_PSI = {
    "power-2": lambda y: y * y / 2,
    "power-3": lambda y: 2 * y * mpmath.sqrt(y) / 3,
    "entropy": lambda y: mpmath.expm1(y) - y,
    "cosh": lambda y: y * mpmath.asinh(y) - mpmath.sqrt(1 + y * y) + 1,
}


def _exact_abs(v):
    if not v.imag:
        return mpmath.mpf(abs(v.real))
    return mpmath.sqrt(mpmath.mpf(v.real) ** 2 + mpmath.mpf(v.imag) ** 2)


def test_orlicz_ends_are_sound_in_exact_arithmetic():
    # The dual point g = phi(k |f|) at the Amemiya solve's feasible end k is
    # Psi-feasible, so by Young's inequality its pairing with f is at most
    # the objective (1 + rho_Phi(k f)) / k at that evaluated k; the reported
    # value is the least objective evaluated, within the rounding of an
    # n-term sum of that exact objective.
    problems = []
    with mpmath.workprec(200):
        for space in (cyclic(64), cyclic(4096)):
            w = mpmath.mpf(1) / space.size
            for seed in range(10):
                f = random_function(space, Random(seed))
                f_abs = {x: _exact_abs(v) for x, v in f.items()}
                rounding = (len(f.support) + 4) * sys.float_info.epsilon
                for name in CATALOG_PAIR_NAMES:
                    pair, phi, psi = pair_from_name(name), EXACT_PHI[name], EXACT_PSI[name]
                    value, r, _, past_cap = norms._amemiya_solve(pair.phi, f)
                    k = r / f.sup_norm()
                    _, g, _ = norms._dual_point(pair, f, k)
                    k = mpmath.mpf(k)
                    g_abs = {x: _exact_abs(v) for x, v in g.items()}
                    rho_psi = mpmath.fsum(psi(a) for a in g_abs.values()) * w
                    pairing = mpmath.fsum(a * g_abs[x] for x, a in f_abs.items()) * w
                    objective = (1 + mpmath.fsum(phi(k * a) for a in f_abs.values()) * w) / k
                    if past_cap or rho_psi > 1 or pairing > objective or \
                            abs(value - objective) > rounding * objective:
                        problems.append((name, space.name, seed, float(rho_psi),
                                         float(objective - pairing), float(value - objective)))
    assert problems == []
