"""Avoidance-pair witnesses on integer windows.

For a pair (f, g) whose convolution-type integrals are bounded by n on a
symmetric neighborhood V = [-r, r],

    sup_{x in V} sum_y |f(y)| |g(x^{-1} y)| <= n,

the witness construction produces a nearby pair (f~, g~) such that every
probed member (h, k) of the ball of radius R/32 around it violates the
bound. The steps are concrete on a window:

1. pick the sign quadrant (s1, s2) maximizing the measure available in
   {s1 Re f >= 0} cap {s2 Re g >= 0} over disjoint translates of V
   (ties prefer (1, 1), then (1, -1), (-1, 1), (-1, -1)),
2. greedily accumulate disjoint translates a_m + V inside that region
   until the collected set K satisfies lam(K) > 512 n / R^2 strictly,
3. build a certified plateau u (value 1 on K, both norm costs below 4,
   so their sum is below 8),
4. set f~ = f + s1 (R/8) u and g~ = g + s2 (R/16) u,
5. probe the ball: perturbations are scaled point atoms and plateau
   bumps with certified decomposition-cost at most 0.99 R/32 (upper
   bounds are sound for ball membership, so every probe genuinely lies
   inside), the g-side budget being the sum of both norm costs
   (intersection norm). The bumps are one certified plateau over
   {-1, 0, 1} moved by translation, which keeps values and costs bit for
   bit under counting measure; so the window must hold the bump's support
   at every probe position in [-hw, hw], hw = max(4, W // 4),
6. for each probe, find x in V with sum_y |h(y)| |k(y - x)| > n. A probe
   that fails to violate is a contradiction of a proved statement and is
   raised, never suppressed.

On K the probes obey |h| >= R/16 and |k| > R/32, which already forces
the integral at x = 0 above (R^2/512) lam(K) > n; the violation search
simply records where the maximum lands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random

from .algebra import PlateauCertificate, build_plateau
from .errors import (
    InfeasibleWindowError,
    OrliczAlgebraError,
    ScopeError,
    TheoremContradictionError,
)
from .groups import GroupFunction, GroupSpace, translate_left
from .nfunctions import ComplementaryPair
from .norms import luxemburg, orlicz_norm

#: probes stay strictly inside the ball: certified cost <= BALL_SAFETY * R/32
BALL_SAFETY = 0.99

QUADRANT_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def level_integral(f: GroupFunction, g: GroupFunction, x) -> float:
    """sum_y |f(y)| |g(x^{-1} y)| weight(y)."""
    space = f.space
    xi = space.inv(x)
    total = 0.0
    for y, v in f.items():
        z = space.try_mul(xi, y)
        if z is None:
            continue
        gv = g(z)
        if gv != 0:
            total += abs(v) * abs(gv) * space.weight_float(y)
    return total


def level_membership(f: GroupFunction, g: GroupFunction, n: float,
                     v_radius: int) -> tuple[bool, float, object]:
    """Is sup_{|x| <= r} of the level integral at most n? Returns
    (member, maximum, arg max)."""
    space = f.space
    if f.space is not g.space:
        raise ScopeError("level membership needs functions on one space")
    best, best_x = -math.inf, None
    for x in _ball(space, v_radius):
        val = level_integral(f, g, x)
        if val > best:
            best, best_x = val, x
    return best <= n, best, best_x


def _ball(space: GroupSpace, radius: int) -> list:
    if space.is_window:
        w = space.window_radius
        if radius > w:
            raise ScopeError(f"neighborhood radius {radius} exceeds the window {w}")
        return list(range(-radius, radius + 1))
    raise ScopeError("level sets are defined on integer windows here")


def supports_touch_boundary(f: GroupFunction, g: GroupFunction) -> bool:
    w = f.space.window_radius
    pts = [abs(x) for x in (*f.support, *g.support)]
    return bool(pts) and max(pts) >= w


@dataclass(frozen=True)
class PorosityInstance:
    """(f, g) in the level-n set, with the ball radius R and V radius r."""

    f: GroupFunction
    g: GroupFunction
    n: int
    radius: float       # R, the ball being tested
    v_radius: int
    max_integral: float
    boundary_flag: bool

    @property
    def threshold(self) -> float:
        """lam(K) must strictly exceed 512 n / R^2."""
        return 512.0 * self.n / self.radius ** 2


def make_instance(f: GroupFunction, g: GroupFunction, n: int, radius: float,
                  v_radius: int = 1) -> PorosityInstance:
    if not f.space.is_window:
        raise ScopeError("porosity witnesses live on integer windows")
    if f.space is not g.space:
        raise ScopeError("instance functions must share one window")
    if n < 1 or int(n) != n:
        raise OrliczAlgebraError(f"level index must be a positive integer, got {n}")
    if radius <= 0:
        raise OrliczAlgebraError(f"ball radius must be positive, got {radius}")
    if v_radius < 1 or v_radius > f.space.window_radius:
        raise OrliczAlgebraError(f"bad neighborhood radius {v_radius}")
    member, top, arg = level_membership(f, g, n, v_radius)
    if not member:
        raise OrliczAlgebraError(
            f"(f, g) is not in the level-{n} set: integral {top:g} at x = {arg}")
    return PorosityInstance(f=f, g=g, n=int(n), radius=float(radius),
                            v_radius=int(v_radius), max_integral=top,
                            boundary_flag=supports_touch_boundary(f, g))


@dataclass(frozen=True)
class Perturbation:
    """One certified-small summand of a probe."""

    kind: str            # "atom" | "plateau"
    position: int
    amplitude: complex
    cost_phi: float      # certified decomposition-cost upper bound, Phi side
    cost_psi: float      # same on the Psi side (used for intersection budgets)


@dataclass(frozen=True)
class ProbeRecord:
    index: int
    delta_f: Perturbation
    delta_g: Perturbation
    budget_f: float          # certified ||h - f~|| upper bound
    budget_g: float          # certified intersection-norm bound for k - g~
    h_min_on_k: float
    k_min_on_k: float
    certified_u_radius: int
    violating_x: int
    integral_value: float


@dataclass(frozen=True)
class PorosityWitness:
    instance: PorosityInstance
    quadrant: tuple[int, int]
    m0: int
    base_points: tuple[int, ...]
    collected: tuple[int, ...]           # K
    lam_k: float
    threshold: float
    plateau_cert: PlateauCertificate
    u: GroupFunction
    f_tilde: GroupFunction
    g_tilde: GroupFunction
    dist_f_bound: float
    dist_g_bound: float
    probes: tuple[ProbeRecord, ...]
    seed: int

    @property
    def guaranteed_integral(self) -> float:
        """(R^2 / 512) lam(K), the proved floor for every probe at x = 0."""
        return self.instance.radius ** 2 / 512.0 * self.lam_k

    @property
    def all_probes_violate(self) -> bool:
        return all(p.integral_value > self.instance.n for p in self.probes)


def _quadrant_region(space: GroupSpace, f: GroupFunction, g: GroupFunction,
                     s1: int, s2: int) -> set:
    def side(fn: GroupFunction, s: int, x) -> bool:
        re = fn(x).real
        return re >= 0.0 if s == 1 else re < 0.0
    return {x for x in space.elements if side(f, s1, x) and side(g, s2, x)}


def _translate_candidates(space: GroupSpace, v_radius: int) -> list[int]:
    """0, +s, -s, +2s, ... with s = 2r + 1; a + V stays inside the window."""
    w = space.window_radius
    step = 2 * v_radius + 1
    out = [0]
    k = 1
    while k * step + v_radius <= w:
        out.append(k * step)
        out.append(-k * step)
        k += 1
    return out


def build_witness(inst: PorosityInstance, pair: ComplementaryPair, *,
                  probe_count: int = 100, seed: int = 0) -> PorosityWitness:
    """Run the full construction and probe the avoided ball.

    Deterministic for a fixed (instance, pair, probe_count, seed). Raises
    InfeasibleWindowError when the window cannot hold enough disjoint
    translates, and TheoremContradictionError (with the full probe state)
    if any probe fails to violate the level bound.
    """
    space = inst.f.space
    r = inst.v_radius
    R = inst.radius
    n = inst.n
    candidates = _translate_candidates(space, r)

    # 1. quadrant: maximize the total available translate measure
    best_quadrant, best_region, best_total = None, None, -1.0
    for s1, s2 in QUADRANT_ORDER:
        region = _quadrant_region(space, inst.f, inst.g, s1, s2)
        total = sum(1 for a in candidates for j in range(-r, r + 1) if a + j in region)
        if total > best_total:
            best_quadrant, best_region, best_total = (s1, s2), region, total
    s1, s2 = best_quadrant

    # 2. greedy disjoint translates until lam(K) > 512 n / R^2, strictly
    threshold = inst.threshold
    collected: list[int] = []
    base_points: list[int] = []
    for a in candidates:
        base_points.append(a)
        collected.extend(x for j in range(-r, r + 1)
                         if (x := a + j) in best_region)
        if len(collected) > threshold:
            break
    else:
        step = 2 * r + 1
        need_translates = math.ceil((threshold + 1) / step)
        raise InfeasibleWindowError(
            f"window radius {space.window_radius} cannot hold enough translate "
            f"mass for lam(K) > {threshold:g}",
            minimal_radius=need_translates * step + r)
    m0 = len(base_points)
    K = tuple(sorted(collected))
    lam_k = float(len(K))

    # 3. plateau over K with epsilon = 1; both costs below 4, sum below 8
    u, cert = build_plateau(space, K, pair, 1.0)
    _require_certified(space, cert, "plateau")
    if cert.cost_phi + cert.cost_psi > 8.0:
        raise TheoremContradictionError(
            f"plateau cost sum {cert.cost_phi + cert.cost_psi:g} exceeded 8",
            state={"cost_phi": cert.cost_phi, "cost_psi": cert.cost_psi})

    # 4. the avoidance center
    f_tilde = inst.f + u.scale(s1 * R / 8.0)
    g_tilde = inst.g + u.scale(s2 * R / 16.0)
    dist_f = (R / 8.0) * cert.cost_phi
    dist_g = (R / 16.0) * (cert.cost_phi + cert.cost_psi)
    if dist_f > R / 2.0 + 1e-9 or dist_g > R / 2.0 + 1e-9:
        raise TheoremContradictionError(
            "perturbation budget exceeded R/2; ball inclusion would fail",
            state={"dist_f": dist_f, "dist_g": dist_g})

    # 5 + 6. probes
    rng = Random(seed)
    kappa_phi, kappa_psi = _atom_costs(space, pair)
    bump = build_plateau(space, range(-1, 2), pair, 1.0)
    _require_certified(space, bump[1], "probe bump", shift=_probe_half_width)
    probes = []
    for idx in range(probe_count):
        delta_f, df_fn = _draw_perturbation(space, *bump, rng, R, kappa_phi, kappa_psi,
                                            intersection=False)
        delta_g, dg_fn = _draw_perturbation(space, *bump, rng, R, kappa_phi, kappa_psi,
                                            intersection=True)
        h = f_tilde + df_fn
        k = g_tilde + dg_fn
        h_min = min(abs(h(x)) for x in K)
        k_min = min(abs(k(x)) for x in K)
        u_rad = _certified_neighborhood(space, k, K, R, r)
        _, best_val, best_x = level_membership(h, k, n, r)
        record = ProbeRecord(index=idx, delta_f=delta_f, delta_g=delta_g,
                             budget_f=delta_f.cost_phi,
                             budget_g=delta_g.cost_phi + delta_g.cost_psi,
                             h_min_on_k=h_min, k_min_on_k=k_min,
                             certified_u_radius=u_rad,
                             violating_x=best_x, integral_value=best_val)
        if not best_val > n:
            raise TheoremContradictionError(
                f"probe {idx} failed to violate the level bound: "
                f"max integral {best_val:g} <= {n}",
                state={"probe": record,
                       "h": {x: h(x) for x in h.support},
                       "k": {x: k(x) for x in k.support},
                       "K": K, "quadrant": (s1, s2), "lam_k": lam_k,
                       "seed": seed})
        probes.append(record)

    return PorosityWitness(
        instance=inst, quadrant=(s1, s2), m0=m0, base_points=tuple(base_points),
        collected=K, lam_k=lam_k, threshold=threshold, plateau_cert=cert, u=u,
        f_tilde=f_tilde, g_tilde=g_tilde, dist_f_bound=dist_f, dist_g_bound=dist_g,
        probes=tuple(probes), seed=seed)


def _require_certified(space: GroupSpace, cert: PlateauCertificate, what: str,
                       shift=lambda w: 0) -> None:
    """Certificate passes, and the window holds the plateau moved by up to shift(W)."""
    w, reach = space.window_radius, max(abs(x) for x in cert.support_bound)
    if shift(w) + reach > w:
        need = next(m for m in itertools.count(w + 1) if shift(m) + reach <= m)
        raise InfeasibleWindowError(f"the {what} needs window radius {need}", minimal_radius=need)
    if not cert.passed:
        raise TheoremContradictionError(f"{what} certificate failed during witness "
                                        "construction", state={"failures": cert.failures()})


def _probe_half_width(w: int) -> int:
    """Plateau probes sit at positions in [-hw, hw] on a window of radius w."""
    return max(4, w // 4)


def _atom_costs(space: GroupSpace, pair: ComplementaryPair) -> tuple[float, float]:
    """Certified decomposition costs of a unit point mass, both norm sides.

    chi_t = chi_t * (chi_e)^ exactly (counting weights), so the cost of a
    scaled atom is |c| N(chi_t) ||chi_e|| under either norm pairing;
    uniform weights make the value position-independent.
    """
    e = space.identity
    chi = GroupFunction.delta(space, e)
    k_phi = luxemburg(pair.phi, chi).value * orlicz_norm(pair.swap(), chi,
                                                         cross_check=False).value
    k_psi = luxemburg(pair.psi, chi).value * orlicz_norm(pair, chi,
                                                         cross_check=False).value
    return k_phi, k_psi


def _draw_perturbation(space: GroupSpace, bump: GroupFunction, bump_cert: PlateauCertificate,
                       rng: Random, R: float, kappa_phi: float, kappa_psi: float, *,
                       intersection: bool) -> tuple[Perturbation, GroupFunction]:
    """A certified-small random summand.

    The scale is chosen so that the certified cost bound (Phi side, or
    the sum of both sides for intersection budgets) is eta * R/32 with
    eta < BALL_SAFETY, which keeps the probe strictly inside the ball.
    Plateau summands are ``bump`` moved to the drawn position, under ``bump_cert``.
    """
    w = space.window_radius
    eta = rng.uniform(0.0, BALL_SAFETY)
    phase = complex(math.cos(a := rng.uniform(0.0, 2.0 * math.pi)), math.sin(a))
    budget = eta * R / 32.0
    if rng.random() < 0.5:
        pos = rng.randint(-w, w)
        unit_cost = (kappa_phi + kappa_psi) if intersection else kappa_phi
        amp = (budget / unit_cost) * phase
        fn = GroupFunction.delta(space, pos, amp)
        return Perturbation(kind="atom", position=pos, amplitude=amp,
                            cost_phi=abs(amp) * kappa_phi,
                            cost_psi=abs(amp) * kappa_psi), fn
    pos = rng.randint(-_probe_half_width(w), _probe_half_width(w))
    moved = translate_left(pos, bump)
    if moved.truncated:
        raise InfeasibleWindowError(f"the probe bump at {pos} exits the window")
    unit_cost = (bump_cert.cost_phi + bump_cert.cost_psi) if intersection \
        else bump_cert.cost_phi
    amp = (budget / unit_cost) * phase
    return Perturbation(kind="plateau", position=pos, amplitude=amp,
                        cost_phi=abs(amp) * bump_cert.cost_phi,
                        cost_psi=abs(amp) * bump_cert.cost_psi), moved.scale(amp)


def _certified_neighborhood(space: GroupSpace, k: GroupFunction, K: tuple,
                            R: float, r: int) -> int:
    """Largest rho <= r with |k| > R/32 on [-rho, rho] + K (rho = 0 always
    holds when |k| > R/32 on K itself)."""
    for rho in range(r, -1, -1):
        if all(abs(k(x + j)) > R / 32.0 for x in K for j in range(-rho, rho + 1)
               if abs(x + j) <= space.window_radius):
            return rho
    return 0
