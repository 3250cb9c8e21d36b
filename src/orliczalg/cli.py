"""Command-line entry point.

Verbs mirror the library surface:

    nfunc conjugate | nfunc check
    norm modular | norm luxemburg | norm orlicz | norm charfn
    group check | group convolve | group leptin
    aphi bound | aphi plateau | aphi submult
    porosity witness
    segal report
    unit check
    characters enumerate | characters brute
    suite

Every verb writes one report (machine format is line-oriented key=value
with stable ordering and is byte-identical for identical config and
seed; the human format adds wall-clock time). Defaulted parameters are
echoed, never silent. Exit codes: 0 all checks pass, 1 check failures,
2 parse errors, 3 scope or window-infeasibility errors, 4 a violated
must-hold inequality (with a state dump).

The environment variable ORLICZALG_CONFIG may point to a JSON file with
default overrides for {"seed", "format", "output", "tol_slack",
"tol_value"}; command-line flags win.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from random import Random

from . import __version__
from .algebra import algebra_norm_upper, build_plateau, submultiplicativity_report
from .errors import (
    InfeasibleWindowError,
    OrliczAlgebraError,
    ScopeError,
    SpecFormatError,
    TheoremContradictionError,
)
from .groups import (
    GroupFunction,
    GroupSpace,
    convolve,
    cyclic,
    direct_product,
    integer_window,
    leptin_search,
    random_function,
    symmetric_group3,
)
from .nfunctions import (
    CATALOG_PAIR_NAMES,
    conjugate_value,
    inverse_product_ratio,
    pair_from_name,
    validate_nfunction,
    validate_pair,
    young_gap,
)
from .norms import char_fn_norm, luxemburg, modular, orlicz_norm
from .numerics import geometric_grid
from .porosity import build_witness, make_instance
from .specio import (
    Report,
    _decode_element,
    function_from_rows,
    function_to_rows,
    group_from_spec,
    pair_from_spec,
    read_json,
)
from .structure import convolution_unit, enumerate_characters, multiplicative_functional_search, segal_report

CONFIG_ENV = "ORLICZALG_CONFIG"
CONFIG_KEYS = {"seed", "format", "output", "tol_slack", "tol_value"}


@dataclass
class RunConfig:
    seed: int = 0
    format: str = "machine"
    output: str | None = None
    tol_slack: float = 1e-9
    tol_value: float = 1e-12
    defaulted: set[str] = field(default_factory=set)

    def echo(self, report: Report) -> None:
        for key in ("seed", "format", "output", "tol_slack", "tol_value"):
            origin = "default" if key in self.defaulted else "set"
            report.add(f"config.{key}", f"{getattr(self, key)} ({origin})")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(defaulted=set(CONFIG_KEYS))
    path = os.environ.get(CONFIG_ENV)
    if path:
        data = read_json(path)
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise SpecFormatError(f"config file: unknown keys {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, value)
            cfg.defaulted.discard(key)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
            cfg.defaulted.discard(key)
    if cfg.format not in ("machine", "human"):
        raise SpecFormatError(f"unknown output format {cfg.format!r}")
    return cfg


def _parse_points(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise SpecFormatError(f"bad numeric list {text!r}") from exc


def _named_group(name: str) -> GroupSpace:
    """Battery shorthand: Z8, Z2xZ2xZ3, S3, Zwindow256, or a spec path."""
    if name.lstrip().startswith("{") or name.endswith(".json"):
        return group_from_spec(name)
    if name == "S3":
        return symmetric_group3()
    if name.startswith("Zwindow"):
        return integer_window(int(name[len("Zwindow"):]))
    if "x" in name:
        return direct_product(*(_named_group(part) for part in name.split("x")))
    if name.startswith("Z"):
        return cyclic(int(name[1:]))
    raise SpecFormatError(f"unknown group name {name!r}")


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _run_nfunc_conjugate(args, cfg: RunConfig) -> Report:
    rep = Report("nfunc conjugate")
    pair = pair_from_spec(args.nfunction)
    rep.add("nfunction", pair.phi.label)
    rep.add("construction", pair.construction)
    points = _parse_points(args.points) if args.points else geometric_grid(1e-2, 1e2, 9)
    if not args.points:
        rep.add("points", "geometric 1e-2..1e2 x9 (default)")
    for y in points:
        value, truncated = conjugate_value(pair.phi, y)
        rep.add(f"conjugate.{y:g}", value)
        if truncated:
            rep.add(f"conjugate.{y:g}.truncated", "true (cap-limited)")
        closed = pair.psi(y)
        rep.check(f"closed-form-agreement.{y:g}",
                  abs(value - closed) <= 1e-6 * (1.0 + abs(closed)),
                  closed - value + 1e-6 * (1.0 + abs(closed)),
                  "numeric conjugate vs catalog complement")
    return rep


def _run_nfunc_check(args, cfg: RunConfig) -> Report:
    rep = Report("nfunc check")
    pair = pair_from_spec(args.nfunction)
    rep.add("nfunction", pair.phi.label)
    rep.add("complement", pair.psi.label)
    rep.add("construction", pair.construction)
    validate_nfunction(pair.phi)
    validate_nfunction(pair.psi)
    rep.check("axioms", True, 0.0, "convexity, limits, strict growth on grids")
    validate_pair(pair)
    rep.check("young-and-biconjugacy", True, 0.0, "grid square + double conjugate")
    ratios = [inverse_product_ratio(pair, t) for t in geometric_grid(1e-3, 1e3, 41)]
    rep.add("inverse-product.min", min(ratios))
    rep.add("inverse-product.max", max(ratios))
    rep.check("inverse-product-range",
              min(ratios) > 1.0 and max(ratios) <= 2.0 + cfg.tol_slack,
              2.0 + cfg.tol_slack - max(ratios), "t in [1e-3, 1e3], 41 points")
    gaps = [young_gap(pair, x, pair.phi.deriv(x)) for x in geometric_grid(1e-2, 1e1, 7)]
    rep.check("young-equality-at-derivative", all(abs(g) <= 1e-8 for g in gaps),
              1e-8 - max(abs(g) for g in gaps), "gap at (x, phi'(x))")
    return rep


def _function_arg(space: GroupSpace, source: str) -> GroupFunction:
    return function_from_rows(space, source)


def _run_norm(args, cfg: RunConfig) -> Report:
    rep = Report(f"norm {args.norm_verb}")
    space = group_from_spec(args.group)
    rep.add("group", space.name)
    pair = pair_from_spec(args.nfunction)
    rep.add("nfunction", pair.phi.label)
    if args.norm_verb == "charfn":
        subset = [_decode_element(x) for x in read_json(args.subset)]
        value = char_fn_norm(pair.phi, space, subset)
        rep.add("value", value)
        rep.add("provenance", "closed-form (inverse by bisection)")
        chk = luxemburg(pair.phi, GroupFunction.indicator(space, subset))
        rep.add("bisection-value", chk.value)
        rep.check("closed-form-vs-bisection", abs(value - chk.value) <= 1e-10,
                  1e-10 - abs(value - chk.value))
        return rep
    f = _function_arg(space, args.function)
    rep.add("support-size", len(f.support))
    if args.norm_verb == "modular":
        rep.add("value", modular(pair.phi, f))
        rep.add("provenance", "computed (direct sum)")
    elif args.norm_verb == "luxemburg":
        r = luxemburg(pair.phi, f)
        rep.add("value", r.value)
        rep.add("method", r.method)
        rep.add("residual", r.residual)
        rep.add("iterations", r.iterations)
        rep.check("modular-at-value", r.residual <= max(cfg.tol_value, 1e-10),
                  max(cfg.tol_value, 1e-10) - r.residual, "rho(f/k) = 1 residual")
    else:
        r = orlicz_norm(pair, f)
        rep.add("value", r.value)
        rep.add("method", r.method)
        rep.add("oracle-value", r.oracle_value)
        rep.add("provenance", "computed (minimization) vs computed (dual oracle)")
        rep.check("oracle-agreement", r.agreed,
                  1e-6 * max(1.0, r.value) - abs(r.value - (r.oracle_value or 0.0)))
        n = luxemburg(pair.phi, f).value
        rep.check("norm-equivalence", n <= r.value + cfg.tol_slack
                  and r.value <= 2.0 * n + cfg.tol_slack,
                  min(r.value + cfg.tol_slack - n, 2.0 * n + cfg.tol_slack - r.value))
    return rep


def _run_group(args, cfg: RunConfig) -> Report:
    rep = Report(f"group {args.group_verb}")
    space = group_from_spec(args.group)
    rep.add("group", space.name)
    rep.add("size", space.size)
    if args.group_verb == "check":
        space.validate(seed=cfg.seed)
        rep.check("laws", True, 0.0,
                  "associativity, identity, inverses (exhaustive <= 64)")
        rep.add("abelian", space.is_abelian)
        rep.add("weight", str(space.weight(space.identity)))
        if not space.is_window:
            rep.check("normalized", space.total_mass() == 1, 0.0, "sum of weights = 1")
    elif args.group_verb == "convolve":
        f = _function_arg(space, args.left)
        g = _function_arg(space, args.right)
        out = convolve(f, g)
        rep.add("truncated", out.truncated)
        for x, v in out.items():
            rep.add(f"value.{x}", v)
        if args.save:
            import json as _json
            with open(args.save, "w", encoding="utf-8") as fh:
                _json.dump(function_to_rows(out), fh)
            rep.add("saved", args.save)
    else:  # leptin
        compact = [_decode_element(x) for x in read_json(args.compact)]
        ls = leptin_search(space, compact, args.epsilon)
        rep.add("members", list(ls.members))
        rep.add("lam-u", str(ls.lam_u))
        rep.add("lam-ku", str(ls.lam_ku))
        rep.add("ratio", float(ls.ratio))
        rep.add("margin", ls.margin)
        rep.check("strict-ratio", ls.margin > 0.0, ls.margin,
                  "lam(KU) < (1+eps) lam(U)")
    return rep


def _run_aphi(args, cfg: RunConfig) -> Report:
    rep = Report(f"aphi {args.aphi_verb}")
    space = group_from_spec(args.group)
    pair = pair_from_spec(args.nfunction)
    rep.add("group", space.name)
    rep.add("nfunction", pair.phi.label)
    if args.aphi_verb == "bound":
        f = _function_arg(space, args.function)
        bracket = algebra_norm_upper(f, pair, budget=args.budget)
        rep.add("budget", args.budget)
        rep.add("lower", bracket.lower)
        rep.add("upper", bracket.upper)
        rep.add("witness-terms", len(bracket.witness.terms))
        rep.add("provenance", "lower: sup norm; upper: decomposition cost (computed)")
        rep.check("bracket-order", bracket.lower <= bracket.upper + cfg.tol_slack,
                  bracket.upper + cfg.tol_slack - bracket.lower)
    elif args.aphi_verb in ("plateau", "lemma-r"):
        plateau_set = [_decode_element(x) for x in read_json(args.set)]
        u, cert = build_plateau(space, plateau_set, pair, args.epsilon)
        rep.add("epsilon", args.epsilon)
        rep.add("leptin-ratio", float(cert.leptin.ratio))
        rep.add("cost-bound", cert.cost_bound)
        rep.add("cost-phi", cert.cost_phi)
        rep.add("cost-psi", cert.cost_psi)
        rep.check("value-one-on-set", cert.on_set_error <= cfg.tol_value,
                  cfg.tol_value - cert.on_set_error)
        rep.check("range", cert.range_low >= -cfg.tol_value
                  and cert.range_high <= 1.0 + cfg.tol_value,
                  min(cert.range_low + cfg.tol_value,
                      1.0 + cfg.tol_value - cert.range_high))
        rep.check("support-containment", cert.support_ok, 0.0, "inside E V V^(-1)")
        rep.check("not-truncated", not cert.truncated, 0.0, "window holds E V V^(-1)")
        for label, chain in (("phi", cert.chain_phi), ("psi", cert.chain_psi)):
            for step in chain:
                rep.add(f"chain.{label}.{step.name}.bound", step.bound)
                rep.check(f"chain.{label}.{step.name}", step.ok, step.slack,
                          f"guard={step.guard:g}")
            cost = cert.cost_phi if label == "phi" else cert.cost_psi
            rep.check(f"cost-{label}-below-bound", cost < cert.cost_bound,
                      cert.cost_bound - cost)
    else:  # submult
        u = _function_arg(space, args.left)
        v = _function_arg(space, args.right)
        sub = submultiplicativity_report(u, v, pair)
        rep.add("alpha", sub.alpha)
        rep.add("beta", sub.beta)
        rep.add("alpha-provenance", "closed-form 1/Phi^(-1)(1), agreement "
                f"{sub.alpha_agreement:g}")
        rep.add("upper", sub.upper)
        rep.add("middle", sub.middle)
        rep.add("outer", sub.outer)
        rep.check("inner-chain", sub.inner_slack >= -cfg.tol_slack, sub.inner_slack)
        rep.check("outer-chain", sub.outer_slack >= -cfg.tol_slack, sub.outer_slack)
    return rep


def _default_porosity_function(space: GroupSpace) -> GroupFunction:
    return GroupFunction.indicator(space, range(-5, 6))


def _run_porosity(args, cfg: RunConfig) -> Report:
    rep = Report("porosity witness")
    space = integer_window(args.window)
    pair = pair_from_spec(args.nfunction)
    rep.add("window", args.window)
    rep.add("nfunction", pair.phi.label)
    f = _function_arg(space, args.f) if args.f else _default_porosity_function(space)
    g = _function_arg(space, args.g) if args.g else _default_porosity_function(space)
    if not args.f:
        rep.add("f", "indicator of [-5, 5] (default)")
    if not args.g:
        rep.add("g", "indicator of [-5, 5] (default)")
    inst = make_instance(f, g, args.n, args.ball_radius, args.v_radius)
    rep.add("n", inst.n)
    rep.add("ball-radius", inst.radius)
    rep.add("v-radius", inst.v_radius)
    rep.add("membership-max-integral", inst.max_integral)
    rep.add("boundary-flag", inst.boundary_flag)
    witness = build_witness(inst, pair, probe_count=args.probes, seed=cfg.seed)
    rep.add("quadrant", f"({witness.quadrant[0]},{witness.quadrant[1]})")
    rep.add("m0", witness.m0)
    rep.add("base-points", list(witness.base_points))
    rep.add("collected-set", list(witness.collected))
    rep.add("lam-k", witness.lam_k)
    rep.add("threshold-512n-R2", witness.threshold)
    rep.check("lam-k-exceeds-threshold", witness.lam_k > witness.threshold,
              witness.lam_k - witness.threshold)
    rep.add("guaranteed-integral", witness.guaranteed_integral)
    rep.check("guaranteed-exceeds-n", witness.guaranteed_integral > inst.n,
              witness.guaranteed_integral - inst.n, "(R^2/512) lam(K) > n")
    rep.add("plateau-cost-phi", witness.plateau_cert.cost_phi)
    rep.add("plateau-cost-psi", witness.plateau_cert.cost_psi)
    rep.check("plateau-budget",
              witness.plateau_cert.cost_phi + witness.plateau_cert.cost_psi <= 8.0,
              8.0 - witness.plateau_cert.cost_phi - witness.plateau_cert.cost_psi)
    rep.add("dist-f-bound", witness.dist_f_bound)
    rep.add("dist-g-bound", witness.dist_g_bound)
    rep.check("ball-inclusion", witness.dist_f_bound <= inst.radius / 2.0
              and witness.dist_g_bound <= inst.radius / 2.0,
              inst.radius / 2.0 - max(witness.dist_f_bound, witness.dist_g_bound))
    rep.add("probes", len(witness.probes))
    violations = sum(1 for p in witness.probes if p.integral_value > inst.n)
    rep.add("violations", violations)
    rep.check("all-probes-violate", violations == len(witness.probes),
              float(violations - len(witness.probes)))
    worst = min(p.integral_value for p in witness.probes)
    rep.add("min-probe-integral", worst)
    for p in witness.probes:
        rep.add(f"probe.{p.index}",
                f"df={p.delta_f.kind}@{p.delta_f.position} "
                f"dg={p.delta_g.kind}@{p.delta_g.position} "
                f"budget_f={p.budget_f!r} budget_g={p.budget_g!r} "
                f"x={p.violating_x} integral={p.integral_value!r} "
                f"hmin={p.h_min_on_k!r} kmin={p.k_min_on_k!r} urad={p.certified_u_radius}")
    return rep


def _run_segal(args, cfg: RunConfig) -> Report:
    rep = Report("segal report")
    space = group_from_spec(args.group)
    pair = pair_from_spec(args.nfunction)
    rep.add("group", space.name)
    rep.add("nfunction", pair.phi.label)
    rep.add("samples", args.samples)
    sr = segal_report(space, pair, samples=args.samples, seed=cfg.seed)
    for c in sr.checks:
        rep.check(c.name, c.passed, c.slack, c.detail)
    return rep


def _run_unit(args, cfg: RunConfig) -> Report:
    rep = Report("unit check")
    space = group_from_spec(args.group)
    pair = pair_from_spec(args.nfunction)
    rep.add("group", space.name)
    rep.add("nfunction", pair.phi.label)
    ur = convolution_unit(space, pair, epsilon=args.epsilon)
    rep.add("unit-amplitude", ur.unit.sup_norm())
    rep.add("basis-sweep-error", ur.max_error)
    rep.check("two-sided-unit", ur.max_error <= cfg.tol_value,
              cfg.tol_value - ur.max_error, f"exhaustive over {space.size} basis masses")
    rep.add("norm-bracket", f"[{ur.bracket.lower!r}, {ur.bracket.upper!r}]")
    rep.add("pointwise-unit-cost", ur.pointwise_cert.cost_phi)
    rep.check("pointwise-unit-certified",
              ur.pointwise_cert.passed
              and ur.pointwise_cert.cost_phi < ur.pointwise_cert.cost_bound,
              ur.pointwise_cert.cost_bound - ur.pointwise_cert.cost_phi,
              "1_G from the plateau over E = G")
    return rep


def _run_characters(args, cfg: RunConfig) -> Report:
    rep = Report(f"characters {args.characters_verb}")
    space = group_from_spec(args.group)
    rep.add("group", space.name)
    enumerated = enumerate_characters(space)
    if args.characters_verb == "enumerate":
        chosen = enumerated
    else:
        chosen = multiplicative_functional_search(space, tolerance=cfg.tol_slack)
        rep.check("routes-agree",
                  chosen.exponent_set() == enumerated.exponent_set(), 0.0,
                  "exhaustive weight search vs generator-image enumeration")
    rep.add("count", len(chosen))
    rep.add("root-order", chosen.order)
    rep.check("completeness", len(chosen) == space.size,
              float(len(chosen) - space.size), "|characters| = |G|")
    for i, c in enumerate(chosen.characters):
        rep.add(f"character.{i}", list(c.exponents))
    return rep


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

DEFAULT_SUITE_GROUPS = ("Z2", "Z4", "Z6", "Z2xZ2", "S3", "Zwindow256")


def _run_suite(args, cfg: RunConfig) -> Report:
    rep = Report("suite")
    group_names = [g for g in (args.groups.split(",") if args.groups is not None
                               else DEFAULT_SUITE_GROUPS) if g]
    pair_names = [p for p in (args.pairs.split(",") if args.pairs is not None
                              else CATALOG_PAIR_NAMES) if p]
    rep.add("groups", ",".join(group_names) if group_names else "(empty)")
    rep.add("pairs", ",".join(pair_names) if pair_names else "(empty)")
    rep.add("samples", args.samples)
    rep.add("probes", args.probes)
    entries: list[tuple[str, bool, float]] = []

    for pname in pair_names:
        pair = pair_from_name(pname)
        validate_pair(pair)
        entries.append((f"pair-axioms.{pname}", True, 0.0))
        ratios = [inverse_product_ratio(pair, t) for t in geometric_grid(1e-3, 1e3, 41)]
        entries.append((f"inverse-product.{pname}",
                        min(ratios) > 1.0 and max(ratios) <= 2.0 + cfg.tol_slack,
                        2.0 + cfg.tol_slack - max(ratios)))

    for gname in group_names:
        space = _named_group(gname)
        space.validate(seed=cfg.seed)
        entries.append((f"group-laws.{gname}", True, 0.0))
        for pname in pair_names:
            pair = pair_from_name(pname)
            rng = Random(cfg.seed)
            if space.is_window:
                u, cert = build_plateau(space, range(-1, 2), pair, 0.5)
                entries.append((f"plateau.{gname}.{pname}", cert.passed,
                                cert.cost_bound - cert.cost_phi))
                inst = make_instance(_default_porosity_function(space),
                                     _default_porosity_function(space), 11, 32.0, 1)
                witness = build_witness(inst, pair, probe_count=args.probes,
                                        seed=cfg.seed)
                entries.append((f"porosity.{gname}.{pname}",
                                witness.all_probes_violate,
                                min(p.integral_value - inst.n for p in witness.probes)))
                continue
            worst = math.inf
            for _ in range(args.samples):
                f = random_function(space, rng)
                n = luxemburg(pair.phi, f).value
                o = orlicz_norm(pair, f)
                worst = min(worst, o.value + cfg.tol_slack - n,
                            2.0 * n + cfg.tol_slack - o.value,
                            1e-6 * max(1.0, o.value) - abs(o.value - o.oracle_value))
            entries.append((f"norm-equivalence.{gname}.{pname}",
                            worst >= 0.0, worst))
            sr = segal_report(space, pair, samples=max(4, args.samples // 2),
                              seed=cfg.seed)
            entries.append((f"segal.{gname}.{pname}", sr.passed,
                            min(c.slack for c in sr.checks)))
            ur = convolution_unit(space, pair)
            entries.append((f"unit.{gname}.{pname}",
                            ur.max_error <= cfg.tol_value,
                            cfg.tol_value - ur.max_error))
            uu, vv = random_function(space, rng), random_function(space, rng)
            sub = submultiplicativity_report(uu, vv, pair)
            entries.append((f"submult.{gname}.{pname}",
                            sub.passed(cfg.tol_slack),
                            min(sub.inner_slack, sub.outer_slack)))
        if not space.is_window and space.is_abelian:
            a = enumerate_characters(space)
            b = multiplicative_functional_search(space)
            entries.append((f"characters.{gname}",
                            len(a) == space.size
                            and a.exponent_set() == b.exponent_set(), 0.0))

    entries.sort(key=lambda e: e[0])
    slacks = sorted(s for _, _, s in entries)
    for name, ok, slack in entries:
        rep.check(name, ok if cfg.tol_slack > 0 else ok and slack >= 0.0, slack)
    rep.add("checks-total", len(entries))
    rep.add("checks-failed", len(rep.failures))
    if slacks:
        rep.add("slack.min", slacks[0])
        rep.add("slack.p50", slacks[len(slacks) // 2])
        rep.add("slack.max", slacks[-1])
    return rep


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orliczalg",
        description="Desk-scale numerics for Orlicz convolution algebras")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="global RNG seed")
    common.add_argument("--format", choices=("machine", "human"), default=None)
    common.add_argument("--output", default=None, help="write the report here")
    common.add_argument("--tol-slack", dest="tol_slack", type=float, default=None,
                        help="slack tolerance for inequality checks")
    common.add_argument("--tol-value", dest="tol_value", type=float, default=None,
                        help="tolerance for exactness checks")
    tops = parser.add_subparsers(dest="command", required=True)

    nfunc = tops.add_parser("nfunc").add_subparsers(dest="nfunc_verb", required=True)
    for verb in ("conjugate", "check"):
        sp = nfunc.add_parser(verb, parents=[common])
        sp.add_argument("--nfunction", required=True, help="N-function spec (path or JSON)")
        if verb == "conjugate":
            sp.add_argument("--points", default=None, help="comma-separated ordinates")

    norm = tops.add_parser("norm").add_subparsers(dest="norm_verb", required=True)
    for verb in ("modular", "luxemburg", "orlicz", "charfn"):
        sp = norm.add_parser(verb, parents=[common])
        sp.add_argument("--group", required=True)
        sp.add_argument("--nfunction", required=True)
        if verb == "charfn":
            sp.add_argument("--subset", required=True, help="JSON list of elements")
        else:
            sp.add_argument("--function", required=True, help="function data (path or JSON)")

    group = tops.add_parser("group").add_subparsers(dest="group_verb", required=True)
    gc = group.add_parser("check", parents=[common])
    gc.add_argument("--group", required=True)
    gv = group.add_parser("convolve", parents=[common])
    gv.add_argument("--group", required=True)
    gv.add_argument("--left", required=True)
    gv.add_argument("--right", required=True)
    gv.add_argument("--save", default=None)
    gl = group.add_parser("leptin", parents=[common])
    gl.add_argument("--group", required=True)
    gl.add_argument("--compact", required=True, help="JSON list of elements")
    gl.add_argument("--epsilon", type=float, required=True)

    aphi = tops.add_parser("aphi").add_subparsers(dest="aphi_verb", required=True)
    ab = aphi.add_parser("bound", parents=[common])
    ab.add_argument("--group", required=True)
    ab.add_argument("--nfunction", required=True)
    ab.add_argument("--function", required=True)
    ab.add_argument("--budget", type=int, default=3)
    for verb in ("plateau", "lemma-r"):
        ap = aphi.add_parser(verb, parents=[common])
        ap.add_argument("--group", required=True)
        ap.add_argument("--nfunction", required=True)
        ap.add_argument("--set", required=True, help="JSON list of elements")
        ap.add_argument("--epsilon", type=float, default=1.0)
    asub = aphi.add_parser("submult", parents=[common])
    asub.add_argument("--group", required=True)
    asub.add_argument("--nfunction", required=True)
    asub.add_argument("--left", required=True)
    asub.add_argument("--right", required=True)

    por = tops.add_parser("porosity").add_subparsers(dest="porosity_verb", required=True)
    pw = por.add_parser("witness", parents=[common])
    pw.add_argument("--nfunction", default='{"kind": "power", "p": 2}')
    pw.add_argument("--n", type=int, default=11)
    pw.add_argument("--R", dest="ball_radius", type=float, default=32.0)
    pw.add_argument("--V-radius", "--v-radius", dest="v_radius", type=int, default=1)
    pw.add_argument("--window", type=int, default=256)
    pw.add_argument("--probes", type=int, default=100)
    pw.add_argument("--f", default=None, help="left function data")
    pw.add_argument("--g", default=None, help="right function data")

    seg = tops.add_parser("segal").add_subparsers(dest="segal_verb", required=True)
    sr = seg.add_parser("report", parents=[common])
    sr.add_argument("--group", required=True)
    sr.add_argument("--nfunction", required=True)
    sr.add_argument("--samples", type=int, default=20)

    unit = tops.add_parser("unit").add_subparsers(dest="unit_verb", required=True)
    uc = unit.add_parser("check", parents=[common])
    uc.add_argument("--group", required=True)
    uc.add_argument("--nfunction", required=True)
    uc.add_argument("--epsilon", type=float, default=1.0)

    chars = tops.add_parser("characters").add_subparsers(dest="characters_verb",
                                                         required=True)
    for verb in ("enumerate", "brute"):
        cp = chars.add_parser(verb, parents=[common])
        cp.add_argument("--group", required=True)

    suite = tops.add_parser("suite", parents=[common])
    suite.add_argument("--groups", default=None,
                       help="comma-separated names (default battery); '' for empty")
    suite.add_argument("--pairs", default=None)
    suite.add_argument("--samples", type=int, default=8)
    suite.add_argument("--probes", type=int, default=20)
    return parser


_HANDLERS = {
    "nfunc": lambda a, c: (_run_nfunc_conjugate if a.nfunc_verb == "conjugate"
                           else _run_nfunc_check)(a, c),
    "norm": _run_norm,
    "group": _run_group,
    "aphi": _run_aphi,
    "porosity": _run_porosity,
    "segal": _run_segal,
    "unit": _run_unit,
    "characters": _run_characters,
    "suite": _run_suite,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg = _load_config(args)
        report = _HANDLERS[args.command](args, cfg)
    except SpecFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ScopeError, InfeasibleWindowError) as exc:
        print(f"scope error: {exc}", file=sys.stderr)
        return 3
    except TheoremContradictionError as exc:
        print(f"CONTRADICTION of a proved statement: {exc}", file=sys.stderr)
        for key, value in exc.state.items():
            print(f"state.{key}={value!r}", file=sys.stderr)
        return 4
    except OrliczAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg.echo(report)
    wall = time.monotonic() - started
    text = report.render(cfg.format, wall_clock=wall if cfg.format == "human" else None)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
