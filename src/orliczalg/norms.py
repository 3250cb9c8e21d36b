"""Modular, Luxemburg-Nakano and Orlicz norms on finitely supported functions.

The modular is rho_Phi(f) = sum_x Phi(|f(x)|) weight(x), summed in
carrier order. ``modular(phi, f, c)`` is the single kernel for
rho_Phi(c f): the solves below evaluate it at each step on f as given,
without building a scaled function, and ``slope=True`` adds
c d/dc rho_Phi(c f) from the same pass.

Every norm is one monotone root solve through ``numerics.illinois``
(Illinois regula falsi), started from the bracket [0, x] on which the
solved map rises from 0 (``_feasible_end``):

* The Luxemburg norm N_Phi(f) = inf{k > 0 : rho_Phi(f/k) <= 1} solves
  rho_Phi(s f) = 1 in s = 1/k. The reported value is k at the feasible
  end, where rho_Phi(f/k) <= 1 in floats, so it is a sound upper bound.
* The Orlicz norm, defined as sup{ sum |f g| dlam : rho_Psi(g) <= 1 }, is
  the Amemiya minimum

      ||f||_Phi = inf_{k > 0} (1 + rho_Phi(k f)) / k,

  whose minimiser solves Young's equality
  h(k) = sum_x Psi(phi(k |f(x)|)) weight(x) = 1, with
  Psi(phi(t)) = t phi(t) - Phi(t) (Krasnosel'skii-Rutickii; Rao-Ren,
  ch. III), so h needs no conjugate. The value is the least objective
  over the k evaluated, which again upper-bounds the true norm.
* An independent maximization oracle recovers the sup directly: the
  Lagrangian stationarity g_x = (Psi')^{-1}(t |f_x|), t = 1/mu, with t
  solving the active constraint rho_Psi(g) = 1 (the modular's Phi-sum on
  the values of g; g is built only at the feasible end), then a final
  rescale by the Luxemburg norm of g so that feasibility is certified and
  the pairing sum is a sound lower bound. Primary value and oracle must
  agree to a relative ``ORACLE_AGREEMENT_RTOL`` (``oracle_agreement_slack``
  >= 0, the one definition of agreement) or the report carries a
  disagreement flag, never a silent number.

On finite carriers the constraint sets {rho_Psi(g) <= 1} and
{N_Psi(g) <= 1} coincide (convexity plus Phi(0) = 0), which is why the
oracle's constraint is stated on the modular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError, ScopeError, SpecFormatError
from .groups import GroupFunction, GroupSpace
from .nfunctions import ComplementaryPair, NFunction
from .numerics import MAX_STEPS, illinois

ORACLE_AGREEMENT_RTOL = 1e-6
#: feasible-side stop of the norm solves: rho within this of 1
RESIDUAL_TOL = 1e-12
#: the method label of the Luxemburg solve
METHOD = "illinois"


@dataclass(frozen=True)
class NormReport:
    """A computed norm value with how it was obtained.

    value = 0 exactly iff the input was identically zero. ``oracle_value``
    is the independent cross-check when one was run (a certified lower
    bound for the Orlicz norm); ``flags`` carries an oracle failure the
    caller must not ignore ("oracle-disagreement", "oracle-nonconvergence").
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


def _phi_sum(phi: NFunction, space: GroupSpace, pairs) -> float:
    """sum Phi(a) weight(x) over (x, a) pairs with a >= 0, in the order given."""
    total = 0.0
    for x, a in pairs:
        if a > phi.domain_cap:
            raise CapExceededError(
                f"{phi.label}: |f({x!r})| = {a:g} exceeds the domain cap")
        total += phi.evaluate(a) * space.weight_float(x)
    return total


def modular(phi: NFunction, f: GroupFunction, c: float = 1.0, *,
            slope: bool = False) -> float | tuple[float, float]:
    """rho_Phi(c f) = sum_x Phi(|c f(x)|) weight(x), in carrier order.

    With ``slope=True`` the same pass also sums c d/dc rho_Phi(c f) =
    sum_x |c f(x)| phi(|c f(x)|) weight(x) and returns the pair
    (rho, slope).
    """
    if not slope:
        return _phi_sum(phi, f.space, ((x, abs(c * v)) for x, v in f.items()))
    space = f.space
    rho = total = 0.0
    for x, v in f.items():
        a = abs(c * v)
        if a > phi.domain_cap:
            raise CapExceededError(
                f"{phi.label}: |f({x!r})| = {a:g} exceeds the domain cap")
        w = space.weight_float(x)
        rho += phi.evaluate(a) * w
        total += a * phi.derivative(a) * w
    return rho, total


def _feasible_end(excess) -> tuple[float, float, int]:
    """Root of an increasing ``excess`` with excess(0) = -1 (rho of 0, minus 1).

    Callers scale their variable by sup|f|, so the root is near 1: the
    first point is 1, doubled until excess > 0, so that [0, x] or a
    feasible point and x bracket the root; then ``illinois`` runs.
    Returns the feasible end (r, excess(r)), excess(r) <= 0, and the
    number of evaluations. Stops at excess >= -RESIDUAL_TOL on the
    feasible side, at bracket collapse, or after MAX_STEPS evaluations.
    """
    x, lo, e_lo, steps = 1.0, 0.0, -1.0, 0
    while True:
        e = excess(x)
        steps += 1
        if e > 0.0:
            break
        lo, e_lo = x, e
        if _close(e):
            return lo, e_lo, steps
        if steps >= MAX_STEPS:
            raise ArithmeticError("bracket expansion found no infeasible point")
        x *= 2.0
    end = illinois(excess, lo, e_lo, x, e, done=_close, max_steps=MAX_STEPS - steps)
    return end.lo, end.f_lo, steps + end.steps


def _close(e: float) -> bool:
    """On the feasible side of the root and within RESIDUAL_TOL of it."""
    return -RESIDUAL_TOL <= e <= 0.0


def luxemburg(phi: NFunction, f: GroupFunction) -> NormReport:
    """Luxemburg-Nakano norm: the root of rho_Phi(s f) = 1 in s = 1/k.

    s -> rho_Phi(s f) is convex and increasing with value 0 at s = 0, so
    the Illinois kernel solves it (in r = s sup|f|) from the bracket
    [0, r], r doubled from 1 until it is infeasible. Returns k = 1/s at
    the feasible end, where rho_Phi(f/k) <= 1 holds in floats (a sound
    upper bound); residual is |rho_Phi(f/value) - 1|. Stops at a residual
    of 1e-12, at bracket collapse, or at 200 steps in all.
    """
    if f.is_zero:
        return NormReport(value=0.0, method=METHOD, residual=0.0, iterations=0)
    top = f.sup_norm()

    def excess(r: float) -> float:
        # evaluated at 1/k, k = sup|f| / r, so that the reported k reproduces it
        k = top / r
        if k == 0.0:
            return math.inf
        try:
            return modular(phi, f, 1.0 / k) - 1.0
        except CapExceededError:
            return math.inf

    r, e, steps = _feasible_end(excess)
    if r == 0.0:
        raise ArithmeticError("Luxemburg solve found no feasible point")
    return NormReport(value=top / r, method=METHOD, residual=abs(e), iterations=steps)


def char_fn_norm(phi: NFunction, space: GroupSpace, subset) -> float:
    """Closed-form Luxemburg norm of an indicator: 1 / Phi^{-1}(1 / lam(F))."""
    points = tuple(subset)
    if not points:
        raise SpecFormatError("characteristic-function norm needs a nonempty subset")
    lam = 0.0
    for x in points:
        space.index(x)
        lam += space.weight_float(x)
    return 1.0 / phi.inverse(1.0 / lam)


def _oracle_maximizer(pair: ComplementaryPair,
                      f: GroupFunction) -> tuple[float, GroupFunction, int]:
    """Certified lower bound for the Orlicz norm via the dual program.

    Solves rho_Psi(g) = 1 over g_x = (Psi')^{-1}(t |f_x|), t = 1/mu, with
    the Illinois kernel (t -> rho_Psi(g) is increasing and 0 at t = 0;
    solved in r = t sup|f|), builds g at the feasible end
    (rho_Psi(g) <= 1), then divides by max(1, N_Psi(g)) so the feasible
    point is certified (N_Psi <= 1) before the pairing sum is taken.
    """
    psi = pair.psi
    space = f.space
    top = f.sup_norm()
    abs_f = [(x, abs(v)) for x, v in f.items()]

    def g_values(t: float):
        for x, a in abs_f:
            try:
                y = psi.deriv_inverse(a * t)
            except CapExceededError:
                y = psi.domain_cap
            if y > 0.0:
                yield x, min(y, psi.domain_cap)

    def excess(r: float) -> float:
        try:
            return _phi_sum(psi, space, g_values(r / top)) - 1.0
        except CapExceededError:
            return math.inf

    r, _, steps = _feasible_end(excess)
    g = GroupFunction(space, dict(g_values(r / top)))
    scale = luxemburg(psi, g).value
    if scale > 1.0:
        g = g.scale(1.0 / scale)
    pairing = holder_pairing(f, g)
    if not math.isfinite(pairing):
        raise ArithmeticError(f"oracle pairing {pairing} is not finite")
    return pairing, g, steps


def oracle_agreement_slack(value: float, oracle_value: float | None) -> float:
    """RTOL value - |value - oracle|, a missing oracle counting as 0."""
    return ORACLE_AGREEMENT_RTOL * value - abs(value - (oracle_value or 0.0))


def orlicz_norm(pair: ComplementaryPair, f: GroupFunction, *,
                cross_check: bool = True) -> NormReport:
    """Orlicz norm inf_k (1 + rho_Phi(k f)) / k, oracle cross-checked.

    The minimiser solves Young's equality h(k) = 1, where

        h(k) = sum_x Psi(phi(k |f(x)|)) weight(x) = k d/dk rho_Phi(k f) - rho_Phi(k f)

    is increasing with h(0) = 0, so the Illinois kernel finds it like the
    Luxemburg root (in r = k sup|f|); one ``modular(..., slope=True)``
    pass gives h and the objective at each k. The value is the least
    objective over the k evaluated, so it is an upper bound for the norm.
    """
    flags: tuple[str, ...] = ()
    if f.is_zero:
        return NormReport(value=0.0, method="amemiya-min", residual=0.0, iterations=0,
                          oracle_value=0.0 if cross_check else None)
    phi = pair.phi
    top = f.sup_norm()
    value = math.inf

    def young_excess(r: float) -> float:
        nonlocal value
        k = r / top
        try:
            rho, slope = modular(phi, f, k, slope=True)
        except CapExceededError:
            return math.inf
        value = min(value, (1.0 + rho) / k)
        return slope - rho - 1.0

    _, _, iterations = _feasible_end(young_excess)
    oracle_value = None
    if cross_check:
        try:
            oracle_value, _, oracle_iters = _oracle_maximizer(pair, f)
        except ArithmeticError:
            # never a silent value: the report carries the failure
            flags = flags + ("oracle-nonconvergence",)
        else:
            iterations += oracle_iters
            if not oracle_agreement_slack(value, oracle_value) >= 0.0:
                flags = flags + ("oracle-disagreement",)
    residual = abs(value - oracle_value) if oracle_value is not None else math.nan
    return NormReport(value=value, method="amemiya-min", residual=residual,
                      iterations=iterations, oracle_value=oracle_value, flags=flags)


def holder_pairing(f: GroupFunction, g: GroupFunction) -> float:
    """sum |f g| dlam; at most ||f||_Phi whenever N_Psi(g) <= 1."""
    if f.space is not g.space:
        raise ScopeError("pairing needs functions on the same space")
    return sum(abs(v) * abs(g(x)) * f.space.weight_float(x) for x, v in f.items())
