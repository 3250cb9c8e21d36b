"""Modular, Luxemburg-Nakano and Orlicz norms on finitely supported functions.

The modular is rho_Phi(f) = sum_x Phi(|f(x)|) weight(x), summed in
carrier order. ``modular(phi, f, c)`` is the single kernel for
rho_Phi(c f): the solves below evaluate it at each step on f as given,
without building a scaled function, and ``slope=True`` adds
c d/dc rho_Phi(c f) from the same pass.

Every norm is one monotone root solve, ``_window_root``: in r, the
solve's scale times sup|f|, it ends at an evaluated point where the
solved quantity lies in [1 - RESIDUAL_TOL, 1]. It runs
``numerics.log_root`` on the log of that quantity against log r, aimed
at the middle of the window: a straight line for Phi(x) = x^p/p, and
nearly straight for the other catalog pairs. The first pass, at r = 1,
also measures the log-slope S/rho of the modular there, and the first
step follows it, so a power-pair solve takes 2 or 3 modular passes; an
entropy or cosh solve takes 5 to 8, stepping along secants and then in
the Anderson-Bjorck bracket.

* The Luxemburg norm N_Phi(f) = inf{k > 0 : rho_Phi(f/k) <= 1} solves
  rho_Phi(s f) = 1 in s = 1/k. The reported value is k at the evaluated
  point where rho_Phi(f/k) <= 1 in floats, so it is a sound upper bound;
  aiming below 1 leaves it about RESIDUAL_TOL/2 of room in rho.
* The Orlicz norm, defined as sup{ sum |f g| dlam : rho_Psi(g) <= 1 }, is
  the Amemiya minimum

      ||f||_Phi = inf_{k > 0} (1 + rho_Phi(k f)) / k,

  whose minimiser solves Young's equality
  h(k) = sum_x Psi(phi(k |f(x)|)) weight(x) = 1, with
  Psi(phi(t)) = t phi(t) - Phi(t) (Krasnosel'skii-Rutickii; Rao-Ren,
  ch. III), so h needs no conjugate. The value is the least objective
  over the k evaluated, which again upper-bounds the true norm.
* The lower end of the bracket is the dual point at the Amemiya root:
  g = phi(k |f|) meets Young's equality with k f, so at the root
  rho_Psi(g) = h(k) = 1 and the Hoelder pairing sum |f g| dlam equals
  the norm. The solve ends about RESIDUAL_TOL/2 below the root, so one
  direct pass of Psi certifies rho_Psi(g) <= 1 in floats; where it reads
  above 1, g is divided by its Luxemburg norm N_Psi(g), which certifies
  it. The pairing is then a lower bound by weak duality
  for any k, and the objective (1 + rho_Phi(k f)) / k the upper bound.
  Value and lower end must agree to a relative ``ORACLE_AGREEMENT_RTOL``
  (``oracle_agreement_slack`` >= 0, the one definition of agreement) or
  the report carries a disagreement flag, never a silent number.

On finite carriers the constraint sets {rho_Psi(g) <= 1} and
{N_Psi(g) <= 1} coincide (convexity plus Phi(0) = 0), which is why the
dual constraint is stated on the modular.

Inside ``shared_solves()`` (one CLI command, one ``decomposition_cost``)
each distinct solve runs once: the Luxemburg solve and the Amemiya solve
of ``orlicz_norm`` are stored under (kind, N-function, Haar weight,
values in carrier order), the only inputs a solve reads. The N-function
is keyed by identity, as it compares: two separately built ``power(2)``
are two keys. A hit is the same float operations on the same inputs, so
it returns the bits a fresh solve would: a translate or relabelling
whose values keep their order, or an equal function on another carrier
of the same weight, is not solved again. The dual point of a
cross-checked call still runs on every call. Outside any scope every
call solves directly.

A function so small that a solve's scale 1/k (Luxemburg) or k (Amemiya)
leaves the floats at its root is out of scope: the solve raises
``ScopeError`` rather than read the overflow as a cap and report a wrong
end. A scale that takes |k f| past Phi's domain cap reads as infeasible
too; a solve that ends against such a point outside its window returns
its best feasible point, still a sound upper bound, flagged ``PAST_CAP``.
Pricing reads that bound; a caller that reports the root calls
``root_inside_cap``, which turns the flag into ``ScopeError`` naming the
cap.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import CapExceededError, CheckResult, ScopeError, SpecFormatError
from .groups import GroupFunction, GroupSpace
from .nfunctions import ComplementaryPair, NFunction
from .numerics import log_root

ORACLE_AGREEMENT_RTOL = 1e-6
#: feasible-side stop of the norm solves: rho within this of 1
RESIDUAL_TOL = 1e-12
#: the solves aim at the middle of their window [1 - RESIDUAL_TOL, 1], in log
_AIM = math.log1p(-0.5 * RESIDUAL_TOL)
#: the method label of the Luxemburg solve: its bracket kernel, ``numerics.regula_falsi``
METHOD = "regula-falsi"
#: the flag of a solve that ended against Phi's domain cap outside its window
PAST_CAP = "past-domain-cap"

#: the solves of the active ``shared_solves()`` scope, None outside any scope
_SOLVES: ContextVar[dict | None] = ContextVar("orliczalg_norm_solves", default=None)


@dataclass(frozen=True)
class NormReport:
    """A computed norm value with how it was obtained.

    value = 0 exactly iff the input was identically zero. ``oracle_value``
    is the cross-check when one was run: for the Orlicz norm, the
    certified lower end of the duality bracket; ``flags`` carries a
    cross-check failure the caller must not ignore ("oracle-disagreement",
    "oracle-nonconvergence"), and ``PAST_CAP`` where the root lies past
    Phi's domain cap, so that value is a feasible point, not the root.
    """

    value: float
    method: str
    residual: float
    iterations: int
    oracle_value: float | None = None
    flags: tuple[str, ...] = ()

    @property
    def agreed(self) -> bool:
        return not any(f.startswith("oracle-") for f in self.flags)


def modular(phi: NFunction, f: GroupFunction, c: float = 1.0, *,
            slope: bool = False) -> float | tuple[float, float]:
    """rho_Phi(c f) = sum_x Phi(|c f(x)|) weight(x), in carrier order.

    With ``slope=True`` the same pass also sums c d/dc rho_Phi(c f) =
    sum_x |c f(x)| phi(|c f(x)|) weight(x) and returns the pair
    (rho, slope).
    """
    w, cap, evaluate, derivative = (f.space.haar_weight, phi.domain_cap,
                                    phi.evaluate, phi.derivative)
    rho = total = 0.0
    for x, v in f.items():
        a = abs(c * v)
        if a > cap:
            raise CapExceededError(
                f"{phi.label}: |f({x!r})| = {a:g} exceeds the domain cap")
        rho += evaluate(a) * w
        if slope:
            total += a * derivative(a) * w
    return (rho, total) if slope else rho


@contextmanager
def shared_solves():
    """Scope in which each distinct norm solve runs once; reentrant.

    The outermost scope owns the memo and drops it on exit; an inner scope
    shares it.
    """
    if _SOLVES.get() is not None:
        yield
        return
    token = _SOLVES.set({})
    try:
        yield
    finally:
        _SOLVES.reset(token)


def _solve_once(kind: str, phi: NFunction, f: GroupFunction, solve):
    """``solve()``, or what it returned for the same key in the active scope.

    The key is what a solve reads: Phi (by identity), the space's one
    Haar weight and the values in carrier order. Support positions and
    the carrier itself are not in it, since no solve reads them, so a
    translate with its values in the same order is the same solve. A
    solve that raises stores nothing.
    """
    memo = _SOLVES.get()
    if memo is None:
        return solve()
    key = (kind, phi, f.space.haar_weight, tuple(f._values.values()))
    result = memo.get(key)
    if result is None:
        result = memo[key] = solve()
    return result


def _window_root(value_at) -> tuple[float, float, int, bool]:
    """Evaluated point r where an increasing value_at(r) lies in [1 - RESIDUAL_TOL, 1].

    Callers scale their variable by sup|f|, so the root is near r = 1.
    ``value_at(r, slope)`` returns the value at r and, where ``slope`` is
    set, the pass's log-slope D = S / rho, with S = r d/dr rho and rho the
    modular at r (NaN where rho = 0); otherwise NaN. ``numerics.log_root``
    solves F(t) = log value_at(e^t) - log(1 - RESIDUAL_TOL/2) = 0 from
    t = 0, whose pass alone asks for D, for the first step: D is F's slope
    at 0 for a Luxemburg solve, and for an Amemiya solve on a power pair
    (Young's function h = S - rho is then a multiple of rho). A point whose
    scale leaves the floats (ScopeError) reads as infeasible; the error is
    raised only where the solve ends against such a point outside the
    window. Returns the evaluated (r, value_at(r)) with the largest value
    <= 1 ((0, 0) if none), the number of evaluations, and whether the
    solve ended outside the window against a point past Phi's domain cap
    (CapExceededError, also read as infeasible): the root then lies past
    the cap, and r is still a feasible point. Stops once that value is in
    the window, at bracket collapse, or after MAX_STEPS evaluations.
    """
    best_r, best_v = 0.0, 0.0
    past_t, past = math.inf, None   # least t whose scale left the floats, and its error
    cap_t = math.inf                # least t whose scale left Phi's domain

    def log_excess(t: float, slope: bool = False) -> tuple[float, float]:
        """(F(t), D at e^t where ``slope`` is set, else NaN)."""
        nonlocal best_r, best_v, past_t, past, cap_t
        try:
            r = math.exp(t)
        except OverflowError:
            r = math.inf
        try:
            v, d = value_at(r, slope)
        except CapExceededError:
            cap_t = min(cap_t, t)
            return math.inf, math.nan
        except ScopeError as err:
            if t < past_t:
                past_t, past = t, err
            return math.inf, math.nan
        if best_v < v <= 1.0:
            best_r, best_v = r, v
        return (math.log(v) - _AIM if v > 0.0 else -math.inf), d

    def in_window() -> bool:
        return -RESIDUAL_TOL <= best_v - 1.0 <= 0.0

    end = log_root(lambda t: log_excess(t)[0], *log_excess(0.0, True),
                   done=lambda _: in_window())
    if in_window():
        return best_r, best_v, end.steps, False
    if end.hi >= past_t:
        raise past
    return best_r, best_v, end.steps, end.hi >= cap_t


def _log_slope(rho: float, total: float) -> float:
    """D = S / rho of one ``modular(..., slope=True)`` pass (rho, S); NaN where rho = 0."""
    return total / rho if rho > 0.0 else math.nan


def luxemburg(phi: NFunction, f: GroupFunction) -> NormReport:
    """Luxemburg-Nakano norm: the root of rho_Phi(s f) = 1 in s = 1/k.

    s -> rho_Phi(s f) is convex and increasing with value 0 at s = 0;
    ``_window_root`` solves it in r = s sup|f|, on log rho against log r.
    Returns k = 1/s at the evaluated point where rho_Phi(f/k) <= 1 holds
    in floats (a sound upper bound); residual is |rho_Phi(f/value) - 1|.
    Stops at a residual of at most 1e-12, at bracket collapse, or at 200
    steps in all.
    """
    if f.is_zero:
        return NormReport(value=0.0, method=METHOD, residual=0.0, iterations=0)
    return _solve_once("luxemburg", phi, f, lambda: _luxemburg_solve(phi, f))


def _luxemburg_solve(phi: NFunction, f: GroupFunction) -> NormReport:
    top = f.sup_norm()

    def rho(r: float, slope: bool) -> tuple[float, float]:
        # evaluated at 1/k, k = sup|f| / r, so that the reported k reproduces it
        k = top / r
        c = _finite_scale(1.0 / k if k else math.inf, top)
        if slope:
            value, total = modular(phi, f, c, slope=True)
            return value, _log_slope(value, total)
        return modular(phi, f, c), math.nan

    r, rho_r, steps, past_cap = _window_root(rho)
    if r == 0.0:
        raise ArithmeticError("Luxemburg solve found no feasible point")
    return NormReport(value=top / r, method=METHOD, residual=abs(rho_r - 1.0),
                      iterations=steps, flags=(PAST_CAP,) if past_cap else ())


def _finite_scale(scale: float, top: float) -> float:
    """``scale``, or ScopeError where sup|f| = top puts it past the floats."""
    if scale == math.inf:
        raise ScopeError(f"sup|f| = {top:g} is below the float range of the norm "
                         "solve: its scale overflows")
    return scale


def root_inside_cap(phi: NFunction, f: GroupFunction, r: NormReport) -> NormReport:
    """r, or ScopeError naming Phi's cap where r's solve of f ended against it.

    For the callers that report a root; an upper bound alone, as in
    pricing, may read r's feasible value past the flag.
    """
    if PAST_CAP in r.flags:
        raise ScopeError(f"{phi.label}: the norm's root for sup|f| = {f.sup_norm():g} "
                         f"lies past its domain cap {phi.domain_cap:g}")
    return r


def char_fn_norm(phi: NFunction, space: GroupSpace, subset) -> float:
    """Closed-form Luxemburg norm of an indicator: 1 / Phi^{-1}(1 / lam(F))."""
    points = tuple(subset)
    if not points:
        raise SpecFormatError("characteristic-function norm needs a nonempty subset")
    lam, seen = 0.0, set()
    for x in points:
        space.index(x)
        if x in seen:
            raise SpecFormatError(f"characteristic-function subset repeats {x!r}")
        seen.add(x)
        lam += space.haar_weight
    return 1.0 / phi.inverse(1.0 / lam)


def _dual_point(pair: ComplementaryPair, f: GroupFunction,
                k: float) -> tuple[float, GroupFunction, int]:
    """Certified lower end of the Orlicz bracket from the dual point at k.

    Builds g = phi(|k f|) from the products the Amemiya solve formed and
    certifies rho_Psi(g) <= 1 with one direct pass of Psi (not through
    Young's identity); where that pass reads above 1 or meets the cap,
    divides g by N_Psi(g). Returns the pairing sum |f g| dlam, a lower
    bound for ||f||_Phi by weak duality, with g and the number of
    Luxemburg steps the rescale took (0 without one).
    """
    phi, psi = pair.phi, pair.psi
    g = GroupFunction(f.space, {x: phi.derivative(abs(k * v)) for x, v in f.items()})
    steps = 0
    try:
        feasible = modular(psi, g) <= 1.0
    except CapExceededError:
        feasible = False
    if not feasible:
        rescale = luxemburg(psi, g)
        g, steps = g.scale(1.0 / rescale.value), rescale.iterations
    pairing = holder_pairing(f, g)
    if not math.isfinite(pairing):
        raise ArithmeticError(f"dual pairing {pairing} is not finite")
    return pairing, g, steps


def oracle_agreement_slack(value: float, oracle_value: float | None) -> float:
    """RTOL value - |value - oracle|, a missing oracle counting as 0."""
    return ORACLE_AGREEMENT_RTOL * value - abs(value - (oracle_value or 0.0))


def orlicz_norm(pair: ComplementaryPair, f: GroupFunction, *,
                cross_check: bool = True) -> NormReport:
    """Orlicz norm inf_k (1 + rho_Phi(k f)) / k, bracketed from both sides.

    The minimiser solves Young's equality h(k) = 1, where

        h(k) = sum_x Psi(phi(k |f(x)|)) weight(x) = k d/dk rho_Phi(k f) - rho_Phi(k f)

    is increasing with h(0) = 0, so ``_window_root`` finds it like the
    Luxemburg root (in r = k sup|f|); one ``modular(..., slope=True)``
    pass gives h and the objective at each k. The value is the least
    objective over the k evaluated, so it is an upper bound for the norm.
    With ``cross_check`` the report's ``oracle_value`` is the certified
    lower end of the duality bracket, from the dual point at the evaluated
    k with h(k) <= 1 where the solve ends (``_dual_point``); it runs no
    second solve.
    """
    if f.is_zero:
        return NormReport(value=0.0, method="amemiya-min", residual=0.0, iterations=0,
                          oracle_value=0.0 if cross_check else None)
    value, r, iterations, past_cap = _solve_once("amemiya", pair.phi, f,
                                                 lambda: _amemiya_solve(pair.phi, f))
    flags: tuple[str, ...] = (PAST_CAP,) if past_cap else ()
    oracle_value = None
    if cross_check:
        try:
            oracle_value, _, rescale_iters = _dual_point(pair, f, r / f.sup_norm())
        except ArithmeticError:
            # never a silent value: the report carries the failure
            flags = flags + ("oracle-nonconvergence",)
        else:
            iterations += rescale_iters
            if not oracle_agreement_slack(value, oracle_value) >= 0.0:
                flags = flags + ("oracle-disagreement",)
    residual = abs(value - oracle_value) if oracle_value is not None else math.nan
    return NormReport(value=value, method="amemiya-min", residual=residual,
                      iterations=iterations, oracle_value=oracle_value, flags=flags)


def orlicz_checks(r: NormReport, lux: float, tol_slack: float) -> tuple[CheckResult, CheckResult]:
    """Report r against its dual lower end, and against the Luxemburg value lux <= r <= 2 lux."""
    return (CheckResult("oracle-agreement", r.agreed, oracle_agreement_slack(r.value, r.oracle_value)),
            CheckResult("norm-equivalence",
                        lux <= r.value + tol_slack and r.value <= 2.0 * lux + tol_slack,
                        min(r.value + tol_slack - lux, 2.0 * lux + tol_slack - r.value)))


def _amemiya_solve(phi: NFunction, f: GroupFunction) -> tuple[float, float, int, bool]:
    """(least objective evaluated, feasible end r = k sup|f|, evaluations,
    whether the root lies past Phi's cap)."""
    top = f.sup_norm()
    value = math.inf

    def young(r: float, slope: bool) -> tuple[float, float]:
        nonlocal value
        k = _finite_scale(r / top, top)
        rho, total = modular(phi, f, k, slope=True)
        value = min(value, (1.0 + rho) / k)
        return total - rho, _log_slope(rho, total) if slope else math.nan

    r, _, iterations, past_cap = _window_root(young)
    return value, r, iterations, past_cap


def holder_pairing(f: GroupFunction, g: GroupFunction) -> float:
    """sum |f g| dlam; at most ||f||_Phi whenever N_Psi(g) <= 1.

    ScopeError where f and g are finite but a term |f(x) g(x)| overflows
    before its weight brings it back: sup|f| is past the float range of the
    pairing. A non-finite f or g gives a non-finite sum.
    """
    if f.space is not g.space:
        raise ScopeError("pairing needs functions on the same space")
    w = f.space.haar_weight
    total = sum(abs(v) * abs(g(x)) * w for x, v in f.items())
    if total == math.inf and math.isfinite(f.sup_norm()) and math.isfinite(g.sup_norm()):
        raise ScopeError(f"sup|f| = {f.sup_norm():g} is above the float range of the "
                         "pairing sum |f g| dlam: it overflows")
    return total
