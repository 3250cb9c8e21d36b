"""Certified norm brackets for the convolution algebra of Orlicz type.

An element is represented by explicit decompositions u = sum_i f_i * g_i^
(g^ the check involution) with mixed-norm cost sum_i N_Phi(f_i) ||g_i||_Psi,
Luxemburg norm on the left factor and Orlicz norm on the right. The sup
norm lower-bounds the algebra norm and the pairs that ``algebra_norm_upper``
prices upper-bound it; the infimum itself is never claimed, only the bracket.

The plateau constructor produces, for a finite set E and epsilon > 0, a
function u with u = 1 on E, 0 <= u <= 1, support inside E V V^{-1}, and a
single-pair decomposition

    u = chi_{EV} * (chi_V / lam(V))^     with V a Leptin set for (E, eps),

whose cost is certified below 2 (1 + eps) by an explicit inequality
chain: the norm equivalence ||.||_Psi <= 2 N_Psi + guard, the closed-form
norm of characteristic functions, monotonicity under the Leptin ratio
lam(EV) < (1 + eps) lam(V), and the lower half of the inverse-product
bound t < Phi^{-1}(t) Psi^{-1}(t). Every step carries its numeric slack.

``PlateauCertificate.checks`` is the one definition of the plateau
clauses and ``SubmultReport.checks`` that of the closure chain, as
``CheckResult``s (defined in ``errors``): the CLI, the suite, the
witness and the unit check read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

from .errors import CheckResult, InfeasibleWindowError, OrliczAlgebraError, ScopeError, SpecFormatError
from .groups import (
    GroupFunction,
    GroupSpace,
    LeptinSet,
    convolve,
    leptin_search,
    reflect,
    set_inverse,
    set_product,
)
from .nfunctions import ComplementaryPair
from .norms import luxemburg, orlicz_norm, shared_solves

RECONSTRUCTION_TOL = 1e-9
#: additive cushion on equality-type chain steps, matching the stated
#: norm-equivalence tolerance
CHAIN_GUARD = 1e-9


@dataclass(frozen=True)
class Decomposition:
    """u = sum_i f_i * (g_i)^ as an explicit list of pairs."""

    terms: tuple[tuple[GroupFunction, GroupFunction], ...]
    target: GroupFunction

    def reconstruct(self) -> GroupFunction:
        """sum_i f_i * (g_i)^, summed from the first term's convolution (zero()
        when there are no terms)."""
        convs = [convolve(f, reflect(g)) for f, g in self.terms]
        return reduce(add, convs) if convs else GroupFunction.zero(self.target.space)

    def reconstruction_error(self) -> float:
        return self.reconstruct().max_abs_diff(self.target)

    def validate(self) -> None:
        """Reconstruction error within RECONSTRUCTION_TOL sup|target|; relative, so
        that no decomposition of another function passes for a tiny target."""
        err = self.reconstruction_error()
        bound = RECONSTRUCTION_TOL * self.target.sup_norm()
        if err > bound:
            raise OrliczAlgebraError(
                f"decomposition does not reconstruct its target: error {err:g} > {bound:g}")


def decomposition_cost(d: Decomposition, pair: ComplementaryPair) -> float:
    """sum_i N_Phi(f_i) ||g_i||_Psi with sound upper-bound norm values.

    d is priced as given: a decomposition that may not rebuild its target is
    validated where it is built. Both factors are upper bounds on their own
    (the feasible Luxemburg root endpoint, the Amemiya minimum), so no dual
    oracle runs here; it runs only where its value or flags reach a report.
    The terms are priced inside ``shared_solves()``, so each distinct
    (weight, values) factor is solved once per call, or once per CLI
    command.
    """
    dual = pair.swap()
    cost = 0.0
    # the mixed pairing: Luxemburg norm under Phi on f, Orlicz norm under
    # Psi on g (whose dual constraint set is the N_Phi unit ball)
    with shared_solves():
        for f, g in d.terms:
            cost += (luxemburg(pair.phi, f).value
                     * orlicz_norm(dual, g, cross_check=False).value)
    # Hoelder floor: sup|u| <= mixed cost
    floor = d.target.sup_norm()
    if cost < floor * (1.0 - RECONSTRUCTION_TOL):
        raise OrliczAlgebraError(
            f"cost {cost:g} fell below the sup-norm floor {floor:g}; "
            "norm computation is inconsistent")
    return cost


@dataclass(frozen=True)
class NormBracket:
    """lower <= ||u||_A <= upper, with the decomposition achieving upper."""

    upper: float
    lower: float
    witness: Decomposition

    def __post_init__(self):
        if self.lower * (1.0 - RECONSTRUCTION_TOL) > self.upper:
            raise OrliczAlgebraError(
                f"bracket inverted: lower {self.lower:g} > upper {self.upper:g}")


def merged_decomposition(u: GroupFunction) -> Decomposition:
    """Single pair (u / weight, chi_e); exact for uniform weights."""
    space = u.space
    w = space.haar_weight
    f = GroupFunction(space, {t: v / w for t, v in u.items()}, u.truncated)
    if not math.isfinite(f.sup_norm()) and math.isfinite(u.sup_norm()):
        raise ScopeError(f"sup|f| = {u.sup_norm():g} over the Haar weight {w:g} is above "
                         "the float range: the merged pair (f / weight, chi_e) overflows")
    return Decomposition(terms=((f, GroupFunction.delta(space, space.identity)),),
                         target=u)


def algebra_norm_upper(u: GroupFunction, pair: ComplementaryPair) -> NormBracket:
    """The bracket sup|u| <= ||u||_A <= cost of the merged pair (u / weight, chi_e).

    A nonzero constant u = c 1_G on a finite group also prices the exact
    plateau pair (c 1_G, 1_G / lam(G)), whose cost N_Phi(1_G) ||1_G||_Psi |c|
    is the sup norm |c|; the cheaper pair is the witness. No other pair is
    priced: the atomic decomposition shares the right factor chi_e, and the
    Luxemburg norm is subadditive, so its cost is never below the merged one.
    """
    if u.is_zero:
        return NormBracket(upper=0.0, lower=0.0, witness=Decomposition(terms=(), target=u))
    witness = merged_decomposition(u)
    upper = decomposition_cost(witness, pair)
    space, levels = u.space, {v for _, v in u.items()}
    if not space.is_window and len(u.support) == space.size and len(levels) == 1:
        lam_g = sum([space.haar_weight] * space.size)
        one = GroupFunction.constant(space, 1.0)
        constant = Decomposition(terms=((one.scale(levels.pop()), one.scale(1.0 / lam_g)),),
                                 target=u)
        constant.validate()
        cost = decomposition_cost(constant, pair)
        if cost < upper:
            upper, witness = cost, constant
    return NormBracket(upper=upper, lower=u.sup_norm(), witness=witness)


# ---------------------------------------------------------------------------
# plateau construction with certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    """One inequality step: previous bound <= bound + guard, slack reported."""

    name: str
    bound: float
    slack: float
    guard: float = 0.0

    @property
    def ok(self) -> bool:
        return self.slack >= 0.0


def _equivalence_step(v1: float, cost: float, guard_scale: float) -> ChainStep:
    """cost <= v1: the norm equivalence ||.|| <= 2 N(.) applied to one
    factor, with its cushion scaled by the factor multiplying that norm."""
    guard = CHAIN_GUARD * max(1.0, guard_scale)
    return ChainStep("orlicz-le-two-luxemburg", v1, v1 + guard - cost, guard)


def _chain_tail(pair: ComplementaryPair, lam_v: float, lam_ev: float,
                epsilon: float, v1: float) -> tuple[ChainStep, ...]:
    """Inequality chain from the middle bound v1 = 2 N_Phi(chi_EV) N_Psi(chi_V) / lam(V)
    up to 2 (1 + eps); both cost routes of a plateau pass through v1."""
    phi, psi = pair.phi, pair.psi
    steps = []
    # closed-form characteristic norms (equality up to root-finder residual)
    cf_ev = 1.0 / phi.inverse(1.0 / lam_ev)
    cf_v = 1.0 / psi.inverse(1.0 / lam_v)
    v2 = 2.0 * cf_ev * cf_v / lam_v
    steps.append(ChainStep("characteristic-norm-closed-form", v2, v2 + CHAIN_GUARD - v1,
                           CHAIN_GUARD))
    # Leptin ratio: lam(EV) < (1+eps) lam(V), both inverses move the same way
    t = 1.0 / ((1.0 + epsilon) * lam_v)
    v4 = 2.0 * (1.0 + epsilon)
    given = f"eps = {epsilon:g} gives t = 1/((1+eps) lam(V)) = {t:g}"
    if t == 0.0:
        raise ScopeError(f"{given}: t underflows to 0")
    if v4 == math.inf:
        raise ScopeError(f"{given}, but the bound 2 (1+eps) overflows")
    inv_phi, inv_psi = phi.inverse(t), psi.inverse(t)
    if not (inv_phi > 0.0 and inv_psi > 0.0):
        raise ScopeError(f"{given}, where {'Phi' if inv_phi == 0.0 else 'Psi'}^(-1)(t) "
                         "underflows to 0")
    v3 = 2.0 / (lam_v * inv_phi * inv_psi)
    steps.append(ChainStep("leptin-ratio-monotonicity", v3, v3 - v2))
    # lower half of the inverse-product inequality: t < Phi^{-1}(t) Psi^{-1}(t)
    steps.append(ChainStep("inverse-product-lower-bound", v4, v4 - v3))
    return tuple(steps)


@dataclass(frozen=True)
class PlateauCertificate:
    """Machine-checked clauses for a plateau function u built over (E, eps).

    Clauses: value 1 on E, range [0, 1], support containment in E V V^{-1},
    no window truncation (E V V^{-1} inside the carrier), the cost chain on
    the Phi side, the mirrored chain certifying the swapped-norm cost of
    the reflected function, and the reflected decomposition rebuilding
    reflect(u). ``checks`` returns them; ``passed`` is "all of them pass".
    """

    epsilon: float
    leptin: LeptinSet
    cost_phi: float
    cost_psi: float
    on_set_error: float
    range_low: float
    range_high: float
    imag_error: float
    support_bound: frozenset
    support_ok: bool
    truncated: bool
    chain_phi: tuple[ChainStep, ...]
    chain_psi: tuple[ChainStep, ...]
    reflected_error: float

    @property
    def cost_bound(self) -> float:
        return 2.0 * (1.0 + self.epsilon)

    def checks(self, value_tol: float = 1e-12) -> tuple[CheckResult, ...]:
        """Every clause in report order; ``value_tol`` bounds the value clauses."""
        out = [
            CheckResult("value-one-on-set", self.on_set_error <= value_tol,
                        value_tol - self.on_set_error),
            CheckResult("range", self.range_low >= -value_tol
                        and self.range_high <= 1.0 + value_tol,
                        min(self.range_low + value_tol, 1.0 + value_tol - self.range_high)),
            CheckResult("imag-residue", self.imag_error <= value_tol,
                        value_tol - self.imag_error),
            CheckResult("support-containment", self.support_ok, 0.0, "inside E V V^(-1)"),
            CheckResult("not-truncated", not self.truncated, 0.0, "window holds E V V^(-1)"),
        ]
        for label, chain, cost in (("phi", self.chain_phi, self.cost_phi),
                                   ("psi", self.chain_psi, self.cost_psi)):
            out += [CheckResult(f"chain.{label}.{step.name}", step.ok, step.slack,
                                f"guard={step.guard:g}") for step in chain]
            out.append(CheckResult(f"cost-{label}-below-bound", cost < self.cost_bound,
                                   self.cost_bound - cost))
        out.append(CheckResult("reflected-decomposition",
                               self.reflected_error <= RECONSTRUCTION_TOL,
                               RECONSTRUCTION_TOL - self.reflected_error,
                               "g * f^ rebuilds reflect(u)"))
        return tuple(out)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())


def plateau_from_sets(space: GroupSpace, plateau_set: Iterable,
                      base_set: Iterable) -> tuple[GroupFunction, Decomposition]:
    """v = chi_{EF} * (chi_F / lam(F))^ for explicit E, F; v(x) = lam(xF cap EF)/lam(F).

    The workhorse behind the certified constructor; no Leptin bound is
    attached, so any finite F of positive mass is allowed.
    """
    E = tuple(plateau_set)
    F = tuple(base_set)
    if not E or not F:
        raise SpecFormatError("plateau construction needs nonempty sets")
    ef = set_product(space, E, F)
    for x in ef:
        if not space.contains(x):
            raise InfeasibleWindowError(
                f"{space.name}: E F reaches {x!r} outside the carrier")
    lam_f = sum([space.haar_weight] * len(F))
    f = GroupFunction.indicator(space, ef)
    g = GroupFunction.indicator(space, F).scale(1.0 / lam_f)
    v = convolve(f, reflect(g))
    return v, Decomposition(terms=((f, g),), target=v)


def build_plateau(space: GroupSpace, plateau_set: Iterable, pair: ComplementaryPair,
                  epsilon: float) -> tuple[GroupFunction, PlateauCertificate]:
    """Certified plateau: u = 1 on E, 0 <= u <= 1, cost < 2 (1 + eps) both ways."""
    E = tuple(sorted(plateau_set, key=lambda x: space.index(x)))
    lep = leptin_search(space, E, epsilon)
    V = tuple(lep.members)
    u, decomposition = plateau_from_sets(space, E, V)
    f, g = decomposition.terms[0]

    on_err = max(abs(u(x) - 1.0) for x in E)
    re_vals = [u(x).real for x in u.support]
    im_err = max((abs(u(x).imag) for x in u.support), default=0.0)
    supp_bound = set_product(space, set_product(space, frozenset(E), frozenset(V)),
                             set_inverse(space, V))
    support_ok = all(x in supp_bound for x in u.support)

    lam_v = float(lep.lam_u)
    lam_ev = float(lep.lam_ku)
    n_ev = luxemburg(pair.phi, f).value                                 # N_Phi(chi_EV)
    n_v = luxemburg(pair.psi, GroupFunction.indicator(space, V)).value  # N_Psi(chi_V)
    v1 = 2.0 * n_ev * n_v / lam_v
    tail = _chain_tail(pair, lam_v, lam_ev, epsilon, v1)
    cost_phi = decomposition_cost(decomposition, pair)
    chain_phi = (_equivalence_step(v1, cost_phi, n_ev),) + tail

    # Swapped route: the reflection decomposes as g * f^ with the same
    # sets, so its Psi-side cost N_Psi(g) ||f||_Phi passes through the
    # same middle bound (the equivalence cushion now rides on N_Psi(g)).
    reflected = Decomposition(terms=((g, f),), target=reflect(u))
    reflected_err = reflected.reconstruction_error()
    cost_psi = decomposition_cost(reflected, pair.swap())
    chain_psi = (_equivalence_step(v1, cost_psi, n_v / lam_v),) + tail

    cert = PlateauCertificate(
        epsilon=epsilon, leptin=lep, cost_phi=cost_phi, cost_psi=cost_psi, on_set_error=on_err,
        range_low=min(re_vals), range_high=max(re_vals), imag_error=im_err,
        support_bound=supp_bound,
        support_ok=support_ok, truncated=u.truncated, chain_phi=chain_phi,
        chain_psi=chain_psi, reflected_error=reflected_err)
    return u, cert


# ---------------------------------------------------------------------------
# convolution closure constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubmultReport:
    """Chain upper(u*v) <= N_Phi(u) ||v^||_Psi <= alpha beta ||u||_inf ||v||_inf."""

    alpha: float
    beta: float
    upper: float
    middle: float
    outer: float
    alpha_agreement: float

    @property
    def inner_slack(self) -> float:
        return self.middle - self.upper

    @property
    def outer_slack(self) -> float:
        return self.outer - self.middle

    def checks(self, tol_slack: float) -> tuple[CheckResult, CheckResult]:
        """Both links of the chain, each holding up to ``tol_slack``."""
        return (CheckResult("inner-chain", self.inner_slack >= -tol_slack, self.inner_slack),
                CheckResult("outer-chain", self.outer_slack >= -tol_slack, self.outer_slack))


def submultiplicativity_report(u: GroupFunction, v: GroupFunction,
                               pair: ComplementaryPair) -> SubmultReport:
    """Verify the closure chain on a finite normalized carrier.

    alpha = N_Phi(1_G) = 1 / Phi^{-1}(1) (closed form, cross-checked by
    the Luxemburg solve), beta = ||1_G||_Psi. The convolution u*v always
    admits the single pair (u, v^), so the reported upper bound never
    exceeds the middle term.
    """
    space = u.space
    space.require_finite("convolution submultiplicativity")
    if v.space is not space:
        raise ScopeError("operands live on different spaces")
    alpha_closed = 1.0 / pair.phi.inverse(1.0)
    one = GroupFunction.constant(space, 1.0)
    alpha_solved = luxemburg(pair.phi, one).value
    beta = orlicz_norm(pair.swap(), one, cross_check=False).value  # ||1_G||_Psi
    w = convolve(u, v)
    if u.is_zero or v.is_zero:
        return SubmultReport(alpha=alpha_closed, beta=beta, upper=0.0, middle=0.0,
                             outer=0.0, alpha_agreement=abs(alpha_closed - alpha_solved))
    given = Decomposition(terms=((u, reflect(v)),), target=w)
    given.validate()
    cost_given = decomposition_cost(given, pair)
    bracket = algebra_norm_upper(w, pair)
    upper = min(cost_given, bracket.upper)
    middle = cost_given
    outer = alpha_closed * beta * u.sup_norm() * v.sup_norm()
    return SubmultReport(alpha=alpha_closed, beta=beta, upper=upper, middle=middle,
                         outer=outer, alpha_agreement=abs(alpha_closed - alpha_solved))
