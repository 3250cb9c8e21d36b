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
2 parse errors, 3 scope or window-infeasibility errors (or, in ``suite``,
an entry reported out of scope while no check failed), 4 a violated
must-hold inequality (with a state dump).

Every clause that ``suite`` folds is built as a ``CheckResult`` next to
its data, in the library (``axiom_checks`` and the other pair clauses in
``nfunctions``, ``GroupSpace.checks``, ``orlicz_checks``, the plateau,
submult, witness, Segal and unit reports' ``checks``, and
``character_checks``). A verb handler prints those clauses between its
value lines; ``suite`` folds each family's clauses into one entry, which
passes when every check passed and carries the smallest slack. Only the
clauses of a single verb that the suite never folds are built here.
``main`` names the report, ``verb=<command> <verb>`` (just ``suite`` for
the suite), from the one ``verb`` dest that every command's verbs share,
and the command's handler fills it.

The environment variable ORLICZALG_CONFIG may point to a JSON file with
default overrides for {"seed", "format", "output", "tol_slack",
"tol_value"}; command-line flags win.
"""

from __future__ import annotations

import argparse
import json
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
    integer_window,
    leptin_search,
    random_function,
)
from .nfunctions import (
    CATALOG_PAIR_NAMES,
    _capped_grid,
    axiom_checks,
    conjugate_value,
    inverse_product_check,
    young_equality_check,
)
from .norms import (
    char_fn_norm,
    luxemburg,
    modular,
    orlicz_checks,
    orlicz_norm,
    root_inside_cap,
    shared_solves,
)
from .numerics import geometric_grid
from .porosity import build_witness, make_instance
from .specio import (
    Report,
    _decode_element,
    finite_float,
    function_from_rows,
    function_to_rows,
    group_from_name,
    group_from_spec,
    pair_from_name,
    pair_from_spec,
    read_json,
    write_text,
)
from .structure import (
    character_checks,
    convolution_unit,
    enumerate_characters,
    multiplicative_functional_search,
    segal_report,
)

CONFIG_ENV = "ORLICZALG_CONFIG"
CONFIG_KEYS = ("seed", "format", "output", "tol_slack", "tol_value")


@dataclass
class RunConfig:
    seed: int = 0
    format: str = "machine"
    output: str | None = None
    tol_slack: float = 1e-9
    tol_value: float = 1e-12
    defaulted: set[str] = field(default_factory=set)

    def echo(self, report: Report) -> None:
        for key in CONFIG_KEYS:
            origin = "default" if key in self.defaulted else "set"
            report.add(f"config.{key}", f"{getattr(self, key)} ({origin})")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(defaulted=set(CONFIG_KEYS))
    path = os.environ.get(CONFIG_ENV)
    if path:
        data = read_json(path)
        unknown = set(data) - set(CONFIG_KEYS)
        if unknown:
            raise SpecFormatError(f"config file: unknown keys {sorted(unknown)}")
        for key, value in data.items():
            if key in ("tol_slack", "tol_value"):
                value = finite_float(value, f"config file: {key}")
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


def _parse_points(text: str, pair) -> list[float]:
    """The ordinates of ``--points``: at least one, each within Psi's domain cap
    and within phi(Phi's domain cap), where the numeric conjugate is defined."""
    points = [finite_float(t, "--points entry") for t in text.split(",") if t.strip()]
    if not points:
        raise SpecFormatError("--points lists no ordinate")
    phi, psi = pair.phi, pair.psi
    top = phi.derivative(phi.domain_cap)
    for y in points:
        if abs(y) > psi.domain_cap:
            raise SpecFormatError(f"--points entry {y:g} exceeds the domain cap "
                                  f"{psi.domain_cap:g} of {psi.label}")
        if abs(y) > top:
            raise SpecFormatError(f"--points entry {y:g} exceeds {top:g}, the derivative "
                                  f"of {phi.label} at its domain cap")
    return points


def positive_count(text: str) -> int:
    """Argument type of counts such as ``--probes`` and ``--n``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _split_names(text: str) -> list[str]:
    """The nonempty comma-separated parts of text, splitting only outside {} and []."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "{[") - (ch in "}]")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return [p for p in [*parts, text[start:]] if p]


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _space_and_pair(args, rep: Report):
    """Read --group and --nfunction, writing the group and nfunction lines."""
    space = group_from_spec(args.group)
    rep.add("group", space.name)
    pair = pair_from_spec(args.nfunction)
    rep.add("nfunction", pair.phi.label)
    return space, pair


def _run_nfunc(args, cfg: RunConfig, rep: Report) -> None:
    pair = pair_from_spec(args.nfunction)
    rep.add("nfunction", pair.phi.label)
    if args.verb == "check":
        rep.add("complement", pair.psi.label)
        rep.add("construction", pair.construction)
        rep.record(*axiom_checks(pair))
        low, high, in_range = inverse_product_check(pair, cfg.tol_slack)
        rep.add("inverse-product.min", low)
        rep.add("inverse-product.max", high)
        rep.record(in_range, young_equality_check(pair))
        return
    rep.add("construction", pair.construction)
    if args.points is None:
        cap, phi_top = pair.psi.domain_cap, pair.phi.derivative(pair.phi.domain_cap)
        points = _capped_grid(1e-2, 1e2, min(cap, phi_top), 9)
        top = ("1e2" if points == geometric_grid(1e-2, 1e2, 9) else
               f"{points[-1]:g} ({'Psi' if cap <= phi_top else 'phi at Phi'}'s domain cap)")
        rep.add("points", f"geometric 1e-2..{top} x9 (default)")
    else:
        points = _parse_points(args.points, pair)
    for y in points:
        value = conjugate_value(pair.phi, y)[0]
        rep.add(f"conjugate.{y:g}", value)
        closed = pair.psi(y)
        tol = 1e-6 * (1.0 + abs(closed))
        rep.check(f"closed-form-agreement.{y:g}", abs(value - closed) <= tol,
                  tol - abs(value - closed),
                  "numeric conjugate vs catalog complement")


def _run_norm(args, cfg: RunConfig, rep: Report) -> None:
    space, pair = _space_and_pair(args, rep)
    if args.verb == "charfn":
        subset = [_decode_element(x, "--subset") for x in read_json(args.subset)]
        value = char_fn_norm(pair.phi, space, subset)
        rep.add("value", value)
        rep.add("provenance", "closed-form (inverse in closed form)" if pair.phi.evaluate_inverse
                else "closed-form (inverse by log-coordinate solve)")
        chk = luxemburg(pair.phi, GroupFunction.indicator(space, subset))
        rep.add("regula-falsi-value", chk.value)
        rep.check("closed-form-vs-regula-falsi", abs(value - chk.value) <= 1e-10,
                  1e-10 - abs(value - chk.value))
        return
    f = function_from_rows(space, args.function)
    rep.add("support-size", len(f.support))
    if args.verb == "modular":
        rep.add("value", modular(pair.phi, f))
        rep.add("provenance", "computed (direct sum)")
    elif args.verb == "luxemburg":
        r = root_inside_cap(pair.phi, f, luxemburg(pair.phi, f))
        rep.add("value", r.value)
        rep.add("method", r.method)
        rep.add("residual", r.residual)
        rep.add("iterations", r.iterations)
        rep.check("modular-at-value", r.residual <= max(cfg.tol_value, 1e-10),
                  max(cfg.tol_value, 1e-10) - r.residual, "rho(f/k) = 1 residual")
    else:
        r = root_inside_cap(pair.phi, f, orlicz_norm(pair, f))
        lux = root_inside_cap(pair.phi, f, luxemburg(pair.phi, f)).value
        rep.add("value", r.value)
        rep.add("method", r.method)
        rep.add("oracle-value", r.oracle_value)
        rep.add("provenance", "computed (minimization) vs computed (dual point at the Amemiya root)")
        rep.record(*orlicz_checks(r, lux, cfg.tol_slack))


def _run_group(args, cfg: RunConfig, rep: Report) -> None:
    space = group_from_spec(args.group)
    rep.add("group", space.name)
    rep.add("size", space.size)
    if args.verb == "check":
        laws, *normalized = space.checks()
        rep.record(laws)
        rep.add("abelian", space.is_abelian)
        rep.add("weight", str(space.weight(space.identity)))
        rep.record(*normalized)
    elif args.verb == "convolve":
        f = function_from_rows(space, args.left)
        g = function_from_rows(space, args.right)
        out = convolve(f, g)
        rep.add("truncated", out.truncated)
        for x, v in out.items():
            rep.add(f"value.{x}", v)
        if args.save:
            write_text(args.save, json.dumps(function_to_rows(out)))
            rep.add("saved", args.save)
    else:  # leptin
        compact = [_decode_element(x, "--compact") for x in read_json(args.compact)]
        ls = leptin_search(space, compact, args.epsilon)
        rep.add("members", list(ls.members))
        rep.add("lam-u", str(ls.lam_u))
        rep.add("lam-ku", str(ls.lam_ku))
        rep.add("ratio", float(ls.ratio))
        rep.add("margin", ls.margin)
        rep.check("strict-ratio", ls.margin > 0.0, ls.margin,
                  "lam(KU) < (1+eps) lam(U)")


def _run_aphi(args, cfg: RunConfig, rep: Report) -> None:
    space, pair = _space_and_pair(args, rep)
    if args.verb == "bound":
        f = function_from_rows(space, args.function)
        bracket = algebra_norm_upper(f, pair)
        rep.add("lower", bracket.lower)
        rep.add("upper", bracket.upper)
        rep.add("witness-terms", len(bracket.witness.terms))
        rep.add("provenance", "lower: sup norm; upper: decomposition cost (computed)")
        rep.check("bracket-order", bracket.lower <= bracket.upper + cfg.tol_slack,
                  bracket.upper + cfg.tol_slack - bracket.lower)
    elif args.verb == "plateau":
        plateau_set = [_decode_element(x, "--set") for x in read_json(args.set)]
        _, cert = build_plateau(space, plateau_set, pair, args.epsilon)
        rep.add("epsilon", args.epsilon)
        rep.add("leptin-ratio", float(cert.leptin.ratio))
        rep.add("cost-bound", cert.cost_bound)
        rep.add("cost-phi", cert.cost_phi)
        rep.add("cost-psi", cert.cost_psi)
        bounds = {f"chain.{label}.{step.name}": step.bound
                  for label, chain in (("phi", cert.chain_phi), ("psi", cert.chain_psi))
                  for step in chain}
        for c in cert.checks(cfg.tol_value):
            if c.name in bounds:
                rep.add(f"{c.name}.bound", bounds[c.name])
            rep.record(c)
    else:  # submult
        u = function_from_rows(space, args.left)
        v = function_from_rows(space, args.right)
        sub = submultiplicativity_report(u, v, pair)
        rep.add("alpha", sub.alpha)
        rep.add("beta", sub.beta)
        rep.add("alpha-provenance", "closed-form 1/Phi^(-1)(1), agreement "
                f"{sub.alpha_agreement:g}")
        rep.add("upper", sub.upper)
        rep.add("middle", sub.middle)
        rep.add("outer", sub.outer)
        rep.record(*sub.checks(cfg.tol_slack))


#: the window radius of ``porosity witness`` by default
DEFAULT_WINDOW = 256


def _default_porosity_function(space: GroupSpace) -> GroupFunction:
    """The indicator of [-5, 5]; a window too small to hold it is out of scope."""
    if space.window_radius < 5:
        raise InfeasibleWindowError("the default indicator of [-5, 5] needs window radius 5",
                                    minimal_radius=5)
    return GroupFunction.indicator(space, range(-5, 6))


def _on_fitting_window(space: GroupSpace, build):
    """build(space), for a construction on a default witness function.

    Where the window is too small, the minimal radius that each
    InfeasibleWindowError names is built in turn, and the run exits 3
    once, naming the radius at which build first succeeds. The chain is
    followed up to the default window, DEFAULT_WINDOW, where a witness
    builds in milliseconds; an error that names no radius, or one past
    it, is raised as it stands.
    """
    try:
        return build(space)
    except InfeasibleWindowError as exc:
        err = exc
    radius = space.window_radius
    while radius < (err.minimal_radius or 0) <= DEFAULT_WINDOW:
        radius = err.minimal_radius
        try:
            build(integer_window(radius))
        except InfeasibleWindowError as exc:
            err = exc
        else:
            raise InfeasibleWindowError("the witness on the default indicator of [-5, 5] "
                                        f"needs window radius {radius}",
                                        minimal_radius=radius) from None
    raise err


def _run_porosity(args, cfg: RunConfig, rep: Report) -> None:
    space = integer_window(args.window)
    pair = pair_from_spec(args.nfunction)

    def construct(space: GroupSpace):
        f = function_from_rows(space, args.f) if args.f else _default_porosity_function(space)
        g = function_from_rows(space, args.g) if args.g else _default_porosity_function(space)
        inst = make_instance(f, g, args.n, args.ball_radius, args.v_radius)
        return inst, build_witness(inst, pair, probe_count=args.probes, seed=cfg.seed)

    inst, witness = (construct(space) if args.f and args.g
                     else _on_fitting_window(space, construct))
    rep.add("window", args.window)
    rep.add("nfunction", pair.phi.label)
    if not args.f:
        rep.add("f", "indicator of [-5, 5] (default)")
    if not args.g:
        rep.add("g", "indicator of [-5, 5] (default)")
    rep.add("n", inst.n)
    rep.add("ball-radius", inst.radius)
    rep.add("v-radius", inst.v_radius)
    rep.add("membership-max-integral", inst.max_integral)
    rep.add("boundary-flag", inst.boundary_flag)
    threshold, guaranteed, budget, ball, all_violate = witness.checks()
    rep.add("quadrant", f"({witness.quadrant[0]},{witness.quadrant[1]})")
    rep.add("m0", witness.m0)
    rep.add("base-points", list(witness.base_points))
    rep.add("collected-set", list(witness.collected))
    rep.add("lam-k", witness.lam_k)
    rep.add("threshold-512n-R2", witness.threshold)
    rep.record(threshold)
    rep.add("guaranteed-integral", witness.guaranteed_integral)
    rep.record(guaranteed)
    rep.add("plateau-cost-phi", witness.plateau_cert.cost_phi)
    rep.add("plateau-cost-psi", witness.plateau_cert.cost_psi)
    rep.record(budget)
    rep.add("dist-f-bound", witness.dist_f_bound)
    rep.add("dist-g-bound", witness.dist_g_bound)
    rep.record(ball)
    rep.add("probes", len(witness.probes))
    rep.add("violations", len(witness.probes) - len(witness.non_violating))
    rep.record(all_violate)
    rep.add("min-probe-integral", min(p.integral_value for p in witness.probes))
    for p in witness.probes:
        rep.add(f"probe.{p.index}",
                f"df={p.delta_f.kind}@{p.delta_f.position} "
                f"dg={p.delta_g.kind}@{p.delta_g.position} "
                f"budget_f={p.budget_f!r} budget_g={p.budget_g!r} "
                f"x={p.violating_x} integral={p.integral_value!r} "
                f"hmin={p.h_min_on_k!r} kmin={p.k_min_on_k!r} urad={p.certified_u_radius}")


def _run_segal(args, cfg: RunConfig, rep: Report) -> None:
    space, pair = _space_and_pair(args, rep)
    rep.add("samples", args.samples)
    rep.record(*segal_report(space, pair, samples=args.samples, seed=cfg.seed))


def _run_unit(args, cfg: RunConfig, rep: Report) -> None:
    space, pair = _space_and_pair(args, rep)
    ur = convolution_unit(space, pair, epsilon=args.epsilon)
    two_sided, pointwise = ur.checks(cfg.tol_value)
    rep.add("unit-amplitude", ur.unit.sup_norm())
    rep.add("basis-sweep-error", ur.max_error)
    rep.record(two_sided)
    rep.add("norm-bracket", f"[{ur.bracket.lower!r}, {ur.bracket.upper!r}]")
    rep.add("pointwise-unit-cost", ur.pointwise_cert.cost_phi)
    rep.record(pointwise)


def _run_characters(args, cfg: RunConfig, rep: Report) -> None:
    space = group_from_spec(args.group)
    rep.add("group", space.name)
    enumerated = enumerate_characters(space)
    searched = (None if args.verb == "enumerate"
                else multiplicative_functional_search(space, tolerance=cfg.tol_slack))
    *agree, complete = character_checks(space, enumerated, searched)
    chosen = enumerated if searched is None else searched
    rep.record(*agree)
    rep.add("count", len(chosen))
    rep.add("root-order", chosen.order)
    rep.record(complete)
    for i, c in enumerate(chosen.characters):
        rep.add(f"character.{i}", list(c.exponents))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

DEFAULT_SUITE_GROUPS = ("Z2", "Z4", "Z6", "Z2xZ2", "S3", "Zwindow256")


def _run_suite(args, cfg: RunConfig, rep: Report) -> None:
    group_names = (_split_names(args.groups) if args.groups is not None
                   else list(DEFAULT_SUITE_GROUPS))
    pair_names = [p for p in (args.pairs.split(",") if args.pairs is not None
                              else CATALOG_PAIR_NAMES) if p]
    rep.add("groups", ",".join(group_names) if group_names else "(empty)")
    rep.add("pairs", ",".join(pair_names) if pair_names else "(empty)")
    rep.add("samples", args.samples)
    rep.add("probes", args.probes)
    pairs = [(pname, pair_from_name(pname)) for pname in pair_names]
    entries: dict[str, list] = {}  # entry name -> the CheckResults folded into it
    out_of_scope: list[tuple[str, str]] = []  # (entry name, ScopeError message)

    def entry(name: str, *checks) -> None:
        entries.setdefault(name, []).extend(checks)

    for pname, pair in pairs:
        entry(f"pair-axioms.{pname}", *axiom_checks(pair), young_equality_check(pair))
        entry(f"inverse-product.{pname}", inverse_product_check(pair, cfg.tol_slack)[2])

    for gname in group_names:
        space = group_from_name(gname)
        entry(f"group-laws.{gname}", *space.checks())
        for pname, pair in pairs:
            key = f"{gname}.{pname}"
            if space.is_window:
                def window_checks(space: GroupSpace):
                    _, cert = build_plateau(space, range(-1, 2), pair, 0.5)
                    inst = make_instance(_default_porosity_function(space),
                                         _default_porosity_function(space), 11, 32.0, 1)
                    return cert.checks(cfg.tol_value), build_witness(
                        inst, pair, probe_count=args.probes, seed=cfg.seed).checks()

                plateau, witness = _on_fitting_window(space, window_checks)
                entry(f"plateau.{key}", *plateau)
                entry(f"porosity.{key}", *witness)
                continue
            rng = Random(cfg.seed)
            for _ in range(args.samples):
                f = random_function(space, rng)
                entry(f"norm-equivalence.{key}", *orlicz_checks(
                    orlicz_norm(pair, f), luxemburg(pair.phi, f).value, cfg.tol_slack))
            entry(f"segal.{key}", *segal_report(space, pair, samples=max(4, args.samples // 2),
                                                seed=cfg.seed))
            entry(f"unit.{key}", *convolution_unit(space, pair).checks(cfg.tol_value))
            u, v = random_function(space, rng), random_function(space, rng)
            entry(f"submult.{key}", *submultiplicativity_report(u, v, pair).checks(cfg.tol_slack))
        if not space.is_window and space.is_abelian:
            try:
                entry(f"characters.{gname}", *character_checks(
                    space, enumerate_characters(space),
                    multiplicative_functional_search(space, tolerance=cfg.tol_slack)))
            except ScopeError as exc:  # past the enumeration's or the search's limit
                out_of_scope.append((f"characters.{gname}", str(exc)))

    folded = sorted((name, all(c.passed for c in checks), min(c.slack for c in checks))
                    for name, checks in entries.items())
    for name, ok, slack in folded:
        rep.check(name, ok, slack)
    rep.add("checks-total", len(folded))
    rep.add("checks-failed", len(rep.failures))
    for name, reason in out_of_scope:
        rep.skip(name, reason)
    slacks = sorted(slack for _, _, slack in folded)
    if slacks:
        rep.add("slack.min", slacks[0])
        rep.add("slack.p50", slacks[len(slacks) // 2])
        rep.add("slack.max", slacks[-1])


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The argument tree of ``command``: its verbs and options are built and
    every other command is registered by name alone, so the usage line and
    the choices of every error message read as for the whole tree. A first
    word that is not a command (``--help``, none, a typo) builds no subtree."""
    parser = argparse.ArgumentParser(
        prog="orliczalg",
        description="Desk-scale numerics for Orlicz convolution algebras")
    parser.add_argument("--version", action="version", version=__version__)
    tops = parser.add_subparsers(dest="command", required=True)
    for name, (_, add) in _COMMANDS.items():
        if name == command:
            add(tops)
        else:
            # never parses: argv[0] picks the one command that is built
            tops.add_parser(name, add_help=False)
    return parser


def _common() -> argparse.ArgumentParser:
    """The parent parser of the options every verb takes."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="global RNG seed")
    common.add_argument("--format", choices=("machine", "human"), default=None)
    common.add_argument("--output", default=None, help="write the report here")
    common.add_argument("--tol-slack", dest="tol_slack", type=finite_float, default=None,
                        help="slack tolerance for inequality checks")
    common.add_argument("--tol-value", dest="tol_value", type=finite_float, default=None,
                        help="tolerance for exactness checks")
    return common


_DATA_HELP = {"--group": "group spec (path or JSON)",
              "--nfunction": "N-function spec (path or JSON)"}


def _required(*flags: str) -> argparse.ArgumentParser:
    """A parent parser of required string options: specs, else function data."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, required=True,
                            help=_DATA_HELP.get(flag, "function data (path or JSON)"))
    return parent


def _add_nfunc(tops) -> None:
    parents = [_common(), _required("--nfunction")]
    nfunc = tops.add_parser("nfunc").add_subparsers(dest="verb", required=True)
    nfunc.add_parser("conjugate", parents=parents).add_argument(
        "--points", default=None, help="comma-separated ordinates")
    nfunc.add_parser("check", parents=parents)


def _add_norm(tops) -> None:
    on_pair, function = [_common(), _required("--group", "--nfunction")], _required("--function")
    norm = tops.add_parser("norm").add_subparsers(dest="verb", required=True)
    for verb in ("modular", "luxemburg", "orlicz"):
        norm.add_parser(verb, parents=[*on_pair, function])
    norm.add_parser("charfn", parents=on_pair).add_argument(
        "--subset", required=True, help="JSON list of elements")


def _add_group(tops) -> None:
    parents = [_common(), _required("--group")]
    grp = tops.add_parser("group").add_subparsers(dest="verb", required=True)
    grp.add_parser("check", parents=parents)
    grp.add_parser("convolve", parents=[*parents, _required("--left", "--right")]).add_argument(
        "--save", default=None)
    gl = grp.add_parser("leptin", parents=parents)
    gl.add_argument("--compact", required=True, help="JSON list of elements")
    gl.add_argument("--epsilon", type=finite_float, required=True)


def _add_aphi(tops) -> None:
    on_pair = [_common(), _required("--group", "--nfunction")]
    aphi = tops.add_parser("aphi").add_subparsers(dest="verb", required=True)
    aphi.add_parser("bound", parents=[*on_pair, _required("--function")])
    ap = aphi.add_parser("plateau", parents=on_pair)
    ap.add_argument("--set", required=True, help="JSON list of elements")
    ap.add_argument("--epsilon", type=finite_float, default=1.0)
    aphi.add_parser("submult", parents=[*on_pair, _required("--left", "--right")])


def _add_porosity(tops) -> None:
    por = tops.add_parser("porosity").add_subparsers(dest="verb", required=True)
    pw = por.add_parser("witness", parents=[_common()])
    pw.add_argument("--nfunction", default='{"kind": "power", "p": 2}')
    pw.add_argument("--n", type=positive_count, default=11)
    pw.add_argument("--R", dest="ball_radius", type=finite_float, default=32.0)
    pw.add_argument("--V-radius", "--v-radius", dest="v_radius", type=positive_count,
                    default=1)
    pw.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    pw.add_argument("--probes", type=positive_count, default=100)
    pw.add_argument("--f", default=None, help="left function data")
    pw.add_argument("--g", default=None, help="right function data")


def _add_segal(tops) -> None:
    seg = tops.add_parser("segal").add_subparsers(dest="verb", required=True)
    seg.add_parser("report", parents=[_common(), _required("--group", "--nfunction")]
                   ).add_argument("--samples", type=positive_count, default=20)


def _add_unit(tops) -> None:
    unit = tops.add_parser("unit").add_subparsers(dest="verb", required=True)
    unit.add_parser("check", parents=[_common(), _required("--group", "--nfunction")]
                    ).add_argument("--epsilon", type=finite_float, default=1.0)


def _add_characters(tops) -> None:
    parents = [_common(), _required("--group")]
    chars = tops.add_parser("characters").add_subparsers(dest="verb", required=True)
    for verb in ("enumerate", "brute"):
        chars.add_parser(verb, parents=parents)


def _add_suite(tops) -> None:
    suite = tops.add_parser("suite", parents=[_common()])
    suite.add_argument("--groups", default=None,
                       help="comma-separated names or specs (default battery); '' for empty")
    suite.add_argument("--pairs", default=None)
    suite.add_argument("--samples", type=positive_count, default=8)
    suite.add_argument("--probes", type=positive_count, default=20)


#: command name -> (handler, builder of its argument subtree), in usage order
_COMMANDS = {
    "nfunc": (_run_nfunc, _add_nfunc),
    "norm": (_run_norm, _add_norm),
    "group": (_run_group, _add_group),
    "aphi": (_run_aphi, _add_aphi),
    "porosity": (_run_porosity, _add_porosity),
    "segal": (_run_segal, _add_segal),
    "unit": (_run_unit, _add_unit),
    "characters": (_run_characters, _add_characters),
    "suite": (_run_suite, _add_suite),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    started = time.monotonic()
    verb = getattr(args, "verb", None)  # suite has no verbs
    report = Report(f"{args.command} {verb}" if verb else args.command)
    try:
        cfg = _load_config(args)
        with shared_solves():
            run, _ = _COMMANDS[args.command]
            run(args, cfg, report)
        cfg.echo(report)
        wall = time.monotonic() - started
        text = report.render(cfg.format, wall_clock=wall if cfg.format == "human" else None)
        if cfg.output:
            write_text(cfg.output, text)
        else:
            sys.stdout.write(text)
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
    for key, reason in report.out_of_scope:
        print(f"scope error: {key}: {reason}", file=sys.stderr)
    if report.failures:
        return 1
    return 3 if report.out_of_scope else 0


if __name__ == "__main__":
    raise SystemExit(main())
