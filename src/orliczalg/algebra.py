"""Certified norm brackets for the convolution algebra of Orlicz type.

An element is represented by explicit decompositions u = sum_i f_i * g_i^
(g^ the check involution) with mixed-norm cost sum_i N_Phi(f_i) ||g_i||_Psi,
Luxemburg norm on the left factor and Orlicz norm on the right. Any valid
decomposition upper-bounds the algebra norm; the sup norm lower-bounds it.
The exact infimum over decompositions is never claimed, only the bracket.

The plateau constructor produces, for a finite set E and epsilon > 0, a
function u with u = 1 on E, 0 <= u <= 1, support inside E V V^{-1}, and a
single-pair decomposition

    u = chi_{EV} * (chi_V / lam(V))^     with V a Leptin set for (E, eps),

whose cost is certified below 2 (1 + eps) by an explicit inequality
chain: the norm equivalence ||.||_Psi <= 2 N_Psi + guard, the closed-form
norm of characteristic functions, monotonicity under the Leptin ratio
lam(EV) < (1 + eps) lam(V), and the lower half of the inverse-product
bound t < Phi^{-1}(t) Psi^{-1}(t). Every step carries its numeric slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InfeasibleWindowError, OrliczAlgebraError, ScopeError, SpecFormatError
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
from .norms import luxemburg, orlicz_norm

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
        total = GroupFunction.zero(self.target.space)
        for f, g in self.terms:
            total = total + convolve(f, reflect(g))
        return total

    def reconstruction_error(self) -> float:
        return self.reconstruct().max_abs_diff(self.target)

    def validate(self) -> None:
        err = self.reconstruction_error()
        bound = RECONSTRUCTION_TOL * (1.0 + self.target.sup_norm())
        if err > bound:
            raise OrliczAlgebraError(
                f"decomposition does not reconstruct its target: error {err:g} > {bound:g}")


def decomposition_cost(d: Decomposition, pair: ComplementaryPair, *,
                       validate: bool = True) -> float:
    """sum_i N_Phi(f_i) ||g_i||_Psi with sound upper-bound norm values."""
    if validate:
        d.validate()
    cost = 0.0
    # the mixed pairing: Luxemburg norm under Phi on f, Orlicz norm under
    # Psi on g (whose dual constraint set is the N_Phi unit ball)
    for f, g in d.terms:
        cost += luxemburg(pair.phi, f).value * orlicz_norm(pair.swap(), g).value
    # Hoelder floor: sup|u| <= mixed cost
    floor = d.target.sup_norm()
    if cost < floor - RECONSTRUCTION_TOL:
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
        if self.lower > self.upper + RECONSTRUCTION_TOL:
            raise OrliczAlgebraError(
                f"bracket inverted: lower {self.lower:g} > upper {self.upper:g}")


def atomic_decomposition(u: GroupFunction) -> Decomposition:
    """Point-mass pairs: u = sum_t u(t) weight(t)^{-1} (chi_t * chi_e^).

    Exact on finite carriers and on windows (each term's support is a
    single point, so nothing can exit).
    """
    space = u.space
    e = space.identity
    terms = []
    for t, v in u.items():
        f = GroupFunction.delta(space, t, v / space.weight_float(t))
        terms.append((f, GroupFunction.delta(space, e)))
    return Decomposition(terms=tuple(terms), target=u)


def merged_decomposition(u: GroupFunction) -> Decomposition:
    """Single pair (u / weight, chi_e); exact for uniform weights."""
    space = u.space
    f = GroupFunction(space, {t: v / space.weight_float(t) for t, v in u.items()},
                      u.truncated)
    return Decomposition(terms=((f, GroupFunction.delta(space, space.identity)),),
                         target=u)


def rebalanced(d: Decomposition, pair: ComplementaryPair) -> Decomposition:
    """Scale each term so N_Phi(f_i) = ||g_i||_Psi.

    Cost-neutral by 1-homogeneity of both norms; kept as a canonical form
    so witnesses are stable under rescaling of their factors.
    """
    terms = []
    for f, g in d.terms:
        nf = luxemburg(pair.phi, f).value
        ng = orlicz_norm(pair.swap(), g, cross_check=False).value
        if nf > 0.0 and ng > 0.0:
            s = math.sqrt(ng / nf)
            terms.append((f.scale(s), g.scale(1.0 / s)))
        else:
            terms.append((f, g))
    return Decomposition(terms=tuple(terms), target=d.target)


def _is_indicator_like(u: GroupFunction) -> complex | None:
    """The common value when all nonzero values of u coincide, else None."""
    vals = {v for _, v in u.items()}
    if len(vals) == 1:
        return next(iter(vals))
    return None


def algebra_norm_upper(u: GroupFunction, pair: ComplementaryPair, *,
                       budget: int = 3) -> NormBracket:
    """Best decomposition cost found within the move budget.

    budget 0 returns the atomic bound; higher budgets add the merged
    single pair, the cost-neutral rebalance, and single-pair plateau
    restarts for indicator-like targets. Deterministic given the budget.
    """
    lower = u.sup_norm()
    if u.is_zero:
        empty = Decomposition(terms=(), target=u)
        return NormBracket(upper=0.0, lower=0.0, witness=empty)
    candidates: list[Decomposition] = [atomic_decomposition(u)]
    if budget >= 1:
        candidates.append(merged_decomposition(u))
    if budget >= 3:
        level = _is_indicator_like(u)
        if level is not None:
            support = u.support
            for v_set in _plateau_v_candidates(u.space, support):
                try:
                    ev = set_product(u.space, support, v_set)
                    if not all(u.space.contains(x) for x in ev):
                        continue
                    lam_v = sum(u.space.weight_float(x) for x in v_set)
                    f = GroupFunction.indicator(u.space, ev).scale(level)
                    g = GroupFunction.indicator(u.space, v_set).scale(1.0 / lam_v)
                    cand = Decomposition(terms=((f, g),), target=u)
                    cand.validate()
                except (OrliczAlgebraError, InfeasibleWindowError):
                    continue
                candidates.append(cand)
    best: tuple[float, Decomposition] | None = None
    for cand in candidates:
        cost = decomposition_cost(cand, pair, validate=False)
        if best is None or cost < best[0]:
            best = (cost, cand)
    cost, witness = best
    if budget >= 2:
        witness = rebalanced(witness, pair)
        cost = min(cost, decomposition_cost(witness, pair, validate=False))
    return NormBracket(upper=cost, lower=lower, witness=witness)


def _plateau_v_candidates(space: GroupSpace, support: Sequence) -> list[frozenset]:
    out = [frozenset([space.identity])]
    if not space.is_window:
        out.append(frozenset(space.elements))
    else:
        for eps in (1.0, 0.5):
            try:
                out.append(frozenset(leptin_search(space, support, eps).members))
            except InfeasibleWindowError:
                pass
    return out


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


def _certified_chain(pair: ComplementaryPair, lam_v: float, lam_ev: float,
                     epsilon: float, start_cost: float, n_ev: float, n_v: float,
                     guard_scale: float) -> tuple[ChainStep, ...]:
    """Inequality chain from a computed single-pair cost up to 2 (1 + eps).

    ``n_ev``/``n_v`` are the bisected Luxemburg norms N_Phi(chi_{EV}) and
    N_Psi(chi_V). Both cost routes (the plateau itself and its
    reflection) land on the same middle bound 2 n_ev n_v / lam(V) after
    the norm-equivalence step; ``guard_scale`` is the factor multiplying
    the Orlicz norm that the equivalence cushion applies to.
    """
    phi, psi = pair.phi, pair.psi
    steps = []
    # norm equivalence ||.|| <= 2 N(.) + cushion on one factor
    guard1 = CHAIN_GUARD * max(1.0, guard_scale)
    v1 = 2.0 * n_ev * n_v / lam_v
    steps.append(ChainStep("orlicz-le-two-luxemburg", v1, v1 + guard1 - start_cost, guard1))
    # closed-form characteristic norms (equality up to root-finder residual)
    cf_ev = 1.0 / phi.inverse(1.0 / lam_ev)
    cf_v = 1.0 / psi.inverse(1.0 / lam_v)
    v2 = 2.0 * cf_ev * cf_v / lam_v
    steps.append(ChainStep("characteristic-norm-closed-form", v2, v2 + CHAIN_GUARD - v1,
                           CHAIN_GUARD))
    # Leptin ratio: lam(EV) < (1+eps) lam(V), both inverses move the same way
    t = 1.0 / ((1.0 + epsilon) * lam_v)
    v3 = 2.0 / (lam_v * phi.inverse(t) * psi.inverse(t))
    steps.append(ChainStep("leptin-ratio-monotonicity", v3, v3 - v2))
    # lower half of the inverse-product inequality: t < Phi^{-1}(t) Psi^{-1}(t)
    v4 = 2.0 * (1.0 + epsilon)
    steps.append(ChainStep("inverse-product-lower-bound", v4, v4 - v3))
    return tuple(steps)


@dataclass(frozen=True)
class PlateauCertificate:
    """Machine-checked clauses for a plateau function u built over (E, eps).

    Clauses: value 1 on E, range [0, 1], support containment in E V V^{-1},
    no window truncation (E V V^{-1} inside the carrier), the cost chain on
    the Phi side, and the mirrored chain certifying the swapped-norm cost
    of the reflected function.
    """

    epsilon: float
    plateau_set: tuple
    leptin: LeptinSet
    decomposition: Decomposition
    cost_phi: float
    cost_psi: float
    on_set_error: float
    range_low: float
    range_high: float
    imag_error: float
    support_bound: tuple
    support_ok: bool
    truncated: bool
    chain_phi: tuple[ChainStep, ...]
    chain_psi: tuple[ChainStep, ...]
    reflected_error: float

    @property
    def cost_bound(self) -> float:
        return 2.0 * (1.0 + self.epsilon)

    def failures(self, *, value_tol: float = 1e-12) -> list[str]:
        bad = []
        if self.on_set_error > value_tol:
            bad.append(f"u != 1 on the set (error {self.on_set_error:g})")
        if self.range_low < -value_tol or self.range_high > 1.0 + value_tol:
            bad.append(f"range [{self.range_low:g}, {self.range_high:g}] escapes [0, 1]")
        if self.imag_error > value_tol:
            bad.append(f"imaginary residue {self.imag_error:g}")
        if not self.support_ok:
            bad.append("support escapes E V V^(-1)")
        if self.truncated:
            bad.append("the window truncates the plateau (E V V^(-1) exits it)")
        for label, chain, cost in (("phi", self.chain_phi, self.cost_phi),
                                   ("psi", self.chain_psi, self.cost_psi)):
            for step in chain:
                if not step.ok:
                    bad.append(f"{label} chain step {step.name} slack {step.slack:g}")
            if not cost < self.cost_bound:
                bad.append(f"{label} cost {cost:g} not below {self.cost_bound:g}")
        if self.reflected_error > RECONSTRUCTION_TOL:
            bad.append(f"reflected decomposition error {self.reflected_error:g}")
        return bad

    @property
    def passed(self) -> bool:
        return not self.failures()


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
    lam_f = sum(space.weight_float(x) for x in F)
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
    cost_phi = decomposition_cost(decomposition, pair)
    chain_phi = _certified_chain(pair, lam_v, lam_ev, epsilon, cost_phi,
                                 n_ev, n_v, guard_scale=n_ev)

    # Swapped route: the reflection decomposes as g * f^ with the same
    # sets, so its Psi-side cost N_Psi(g) ||f||_Phi passes through the
    # same middle bound (the equivalence cushion now rides on N_Psi(g)).
    reflected = Decomposition(terms=((g, f),), target=reflect(u))
    reflected_err = reflected.reconstruction_error()
    cost_psi = decomposition_cost(reflected, pair.swap())
    chain_psi = _certified_chain(pair, lam_v, lam_ev, epsilon, cost_psi,
                                 n_ev, n_v, guard_scale=n_v / lam_v)

    cert = PlateauCertificate(
        epsilon=epsilon, plateau_set=E, leptin=lep, decomposition=decomposition,
        cost_phi=cost_phi, cost_psi=cost_psi, on_set_error=on_err,
        range_low=min(re_vals), range_high=max(re_vals), imag_error=im_err,
        support_bound=tuple(sorted(supp_bound, key=_sort_key(space))),
        support_ok=support_ok, truncated=u.truncated, chain_phi=chain_phi,
        chain_psi=chain_psi, reflected_error=reflected_err)
    return u, cert


def _sort_key(space: GroupSpace):
    return (lambda x: space.index(x)) if not space.is_window else (lambda x: x)


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

    def passed(self, tol: float = 1e-9) -> bool:
        return self.inner_slack >= -tol and self.outer_slack >= -tol


def submultiplicativity_report(u: GroupFunction, v: GroupFunction,
                               pair: ComplementaryPair, *, budget: int = 1) -> SubmultReport:
    """Verify the closure chain on a finite normalized carrier.

    alpha = N_Phi(1_G) = 1 / Phi^{-1}(1) (closed form, cross-checked by
    bisection), beta = ||1_G||_Psi. The convolution u*v always admits the
    single pair (u, v^), so the reported upper bound never exceeds the
    middle term.
    """
    space = u.space
    space.require_normalized("convolution submultiplicativity")
    if v.space is not space:
        raise ScopeError("operands live on different spaces")
    alpha_closed = 1.0 / pair.phi.inverse(1.0)
    one = GroupFunction.constant(space, 1.0)
    alpha_bisect = luxemburg(pair.phi, one).value
    beta = orlicz_norm(pair.swap(), one).value  # ||1_G||_Psi
    w = convolve(u, v)
    if u.is_zero or v.is_zero:
        return SubmultReport(alpha=alpha_closed, beta=beta, upper=0.0, middle=0.0,
                             outer=0.0, alpha_agreement=abs(alpha_closed - alpha_bisect))
    given = Decomposition(terms=((u, reflect(v)),), target=w)
    given.validate()
    cost_given = decomposition_cost(given, pair, validate=False)
    bracket = algebra_norm_upper(w, pair, budget=budget)
    upper = min(cost_given, bracket.upper)
    middle = cost_given
    outer = alpha_closed * beta * u.sup_norm() * v.sup_norm()
    return SubmultReport(alpha=alpha_closed, beta=beta, upper=upper, middle=middle,
                         outer=outer, alpha_agreement=abs(alpha_closed - alpha_bisect))
