"""Modular, Luxemburg-Nakano and Orlicz norms on finitely supported functions.

The modular is rho_Phi(f) = sum_x Phi(|f(x)|) weight(x), summed in
carrier order. ``modular(phi, f, c)`` is the single kernel for
rho_Phi(c f): the root-finders below evaluate it at each step on f as
given, without building a scaled function.

The Luxemburg norm N_Phi(f) = inf{k > 0 : rho_Phi(f/k) <= 1} is found
by a doubling bracket plus bisection on the strictly decreasing map
k -> rho_Phi(f/k); the reported value is the upper bracket endpoint, so
it is a sound upper bound for the true norm.

The Orlicz norm, defined as sup{ sum |f g| dlam : rho_Psi(g) <= 1 }, is
computed through the one-parameter minimization

    ||f||_Phi = inf_{k > 0} (1 + rho_Phi(k f)) / k,

which is unimodal in k, with golden-section search on a bracketing
triple. The minimum over evaluated points again upper-bounds the true
norm. An independent maximization oracle recovers the sup directly: the
Lagrangian stationarity g_x = (Psi')^{-1}(|f_x| / mu) with mu chosen by
root-finding on the active constraint rho_Psi(g) = 1 (the modular's
Phi-sum on the values of g; g is built only at the final mu), then a final
rescale by the Luxemburg norm of g so that feasibility is certified and
the pairing sum is a sound lower bound. Primary value and oracle must
agree (``oracle_agreement_slack`` >= 0, the one definition of agreement)
or the report carries a disagreement flag, never a silent number.

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
from .numerics import bracket_minimum, golden_min

ORACLE_AGREEMENT_RTOL = 1e-6


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


def modular(phi: NFunction, f: GroupFunction, c: float = 1.0) -> float:
    """rho_Phi(c f) = sum_x Phi(|c f(x)|) weight(x), in carrier order."""
    return _phi_sum(phi, f.space, ((x, abs(c * v)) for x, v in f.items()))


def luxemburg(phi: NFunction, f: GroupFunction) -> NormReport:
    """Luxemburg-Nakano norm by doubling bracket plus bisection.

    Returns the upper endpoint k with rho_Phi(f/k) <= 1 (sound upper
    bound); residual is |rho_Phi(f/value) - 1|. Bisection stops at a
    residual of 1e-12, at float collapse, or at 200 steps in all.
    """
    if f.is_zero:
        return NormReport(value=0.0, method="bisection", residual=0.0, iterations=0)

    def rho(k: float) -> float:
        try:
            return modular(phi, f, 1.0 / k)
        except CapExceededError:
            return math.inf

    # Bracket: start at the sup norm (rho there is finite) and expand.
    hi = f.sup_norm()
    iters = 0
    while rho(hi) > 1.0:
        hi *= 2.0
        iters += 1
        if iters > 200:
            raise ArithmeticError("Luxemburg bracket expansion failed")
    lo = hi
    while rho(lo) <= 1.0 and lo > 1e-300:
        lo *= 0.5
        iters += 1
    # Invariant: rho(f/lo) > 1 >= rho(f/hi); bisect to float collapse.
    residual = abs(rho(hi) - 1.0)
    while iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        r = rho(mid)
        if r <= 1.0:
            hi = mid
            residual = abs(r - 1.0)
        else:
            lo = mid
        iters += 1
        if residual <= 1e-12:
            break
    return NormReport(value=hi, method="bisection", residual=residual, iterations=iters)


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

    Solves rho_Psi(g) = 1 over g_x = (Psi')^{-1}(|f_x| / mu) by monotone
    root-finding in mu, then divides by max(1, N_Psi(g)) so the feasible
    point is certified (N_Psi <= 1) before the pairing sum is taken.
    """
    psi = pair.psi
    space = f.space
    abs_f = [(x, abs(v)) for x, v in f.items()]

    def g_values(mu: float):
        for x, a in abs_f:
            t = a / mu
            try:
                y = psi.deriv_inverse(t)
            except CapExceededError:
                y = psi.domain_cap
            if y > 0.0:
                yield x, min(y, psi.domain_cap)

    def constraint(mu: float) -> float:
        try:
            return _phi_sum(psi, space, g_values(mu))
        except CapExceededError:
            return math.inf

    lo = hi = 1.0
    iters = 0
    while constraint(hi) > 1.0:
        hi *= 2.0
        iters += 1
        if iters > 400:
            raise ArithmeticError("oracle bracket expansion failed (upward)")
    while constraint(lo) < 1.0 and lo > 1e-300:
        lo *= 0.5
        iters += 1
    while iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if constraint(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    g = GroupFunction(space, dict(g_values(hi)))  # rho_Psi(g) <= 1 at the upper endpoint
    scale = luxemburg(psi, g).value
    if scale > 1.0:
        g = g.scale(1.0 / scale)
    return holder_pairing(f, g), g, iters


def oracle_agreement_slack(value: float, oracle_value: float | None) -> float:
    """RTOL max(1, value) - |value - oracle|, a missing oracle counting as 0."""
    return ORACLE_AGREEMENT_RTOL * max(1.0, value) - abs(value - (oracle_value or 0.0))


def orlicz_norm(pair: ComplementaryPair, f: GroupFunction, *,
                cross_check: bool = True) -> NormReport:
    """Orlicz norm by the one-parameter minimization, oracle cross-checked."""
    flags: tuple[str, ...] = ()
    if f.is_zero:
        return NormReport(value=0.0, method="amemiya-min", residual=0.0, iterations=0,
                          oracle_value=0.0 if cross_check else None)
    phi = pair.phi

    def objective(k: float) -> float:
        if k <= 0.0:
            return math.inf
        try:
            return (1.0 + modular(phi, f, k)) / k
        except CapExceededError:
            return math.inf

    k0 = 1.0 / f.sup_norm()
    a, _, c = bracket_minimum(objective, k0)
    res = golden_min(objective, a, c)
    value, iterations = res.value, res.iterations
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
