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
   until the collected set K satisfies lam(K) > 512 n / R^2 strictly
   and (R^2/512) lam(K) > n (the same inequality, computed as the
   report checks it),
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
   at every probe position in [-hw, hw], hw = max(4, W // 4). Neither a
   summand nor a probe is built as a function. The drawn summand is read
   as its few (point, value) pairs in carrier order, the values the
   scaled atom or the moved and scaled bump would hold. A probe
   h = f~ + delta f, k = g~ + delta g is read as the maps y -> |h(y)| and
   y -> |k(y)| on the supports, made from the values of f~ and g~ and
   those pairs with the same complex additions ``GroupFunction.__add__``
   makes, in carrier order. The points of K + [-rho, rho] in the window,
   where |k| is checked, are listed once per witness,
6. for each probe, find x in V with sum_y |h(y)| |k(y - x)| > n. The max
   over V is one kernel, ``_level_max``, which ``level_membership`` (the
   membership test of ``make_instance``) calls as well.

``PorosityWitness.checks`` is the one definition of the witness's clauses:
``build_witness`` raises the failing ones as a contradiction of a proved
statement, never suppressed, and the CLI prints them.

On K the probes obey |h| >= R/16 and |k| > R/32, which already forces
the integral at x = 0 above (R^2/512) lam(K) > n; the violation search
simply records where the maximum lands.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import NamedTuple

from .algebra import PlateauCertificate, build_plateau
from .errors import (
    CheckResult,
    InfeasibleWindowError,
    OrliczAlgebraError,
    ScopeError,
    SpecFormatError,
    TheoremContradictionError,
)
from .groups import GroupFunction, GroupSpace
from .nfunctions import ComplementaryPair
from .norms import luxemburg, orlicz_norm

#: probes stay strictly inside the ball: certified cost <= BALL_SAFETY * R/32
BALL_SAFETY = 0.99

QUADRANT_ORDER = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def level_integral(f: GroupFunction, g: GroupFunction, x) -> float:
    """sum_y |f(y)| |g(x^{-1} y)| weight(y)."""
    space = f.space
    xi, w = space.inv(x), space.haar_weight
    total = 0.0
    for y, v in f.items():
        z = space.try_mul(xi, y)
        if z is None:
            continue
        gv = g(z)
        if gv != 0:
            total += abs(v) * abs(gv) * w
    return total


def level_membership(f: GroupFunction, g: GroupFunction, n: float,
                     v_radius: int) -> tuple[bool, float, object]:
    """Is sup_{|x| <= r} of the level integral at most n? Returns
    (member, maximum, arg max)."""
    space = f.space
    if f.space is not g.space:
        raise ScopeError("level membership needs functions on one space")
    if not space.is_window:
        raise ScopeError("level sets are defined on integer windows here")
    if v_radius > space.window_radius:
        raise ScopeError(f"neighborhood radius {v_radius} exceeds the window "
                         f"{space.window_radius}")
    best, best_x = _level_max(_abs_values(f), _abs_values(g), space.haar_weight, v_radius)
    return best <= n, best, best_x


def _abs_values(f: GroupFunction) -> dict:
    """|f| on supp f, in carrier order."""
    return {y: abs(v) for y, v in f.items()}


def _level_max(f_abs: dict, g_abs: dict, w: float, radius: int) -> tuple[float, object]:
    """(max, arg max) over x in [-radius, radius] of the level integral on a
    window, sum_y |f(y)| |g(y - x)| w in the carrier order of y, read from
    the maps y -> |f(y)| and z -> |g(z)| of the two supports."""
    best, best_x = -math.inf, None
    for x in range(-radius, radius + 1):
        total = 0.0
        for y, fy in f_abs.items():
            gz = g_abs.get(y - x)
            if gz is not None:
                total += fy * gz * w
        if total > best:
            best, best_x = total, x
    return best, best_x


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
        raise SpecFormatError(f"level index must be a positive integer, got {n}")
    if 512 * n > sys.float_info.max:
        raise SpecFormatError(f"level index n = {n} puts 512 n outside the floats")
    if radius <= 0:
        raise SpecFormatError(f"ball radius must be positive, got {radius}")
    if not (0.0 < radius * radius < math.inf and 512.0 * n / (radius * radius) < math.inf):
        raise SpecFormatError(f"ball radius R = {radius:g} puts R^2 or 512 n / R^2 outside "
                              "the positive floats")
    if v_radius < 1:
        raise SpecFormatError(f"bad neighborhood radius {v_radius}")
    member, top, arg = level_membership(f, g, n, v_radius)  # ScopeError past the window
    if not member:
        raise OrliczAlgebraError(
            f"(f, g) is not in the level-{n} set: integral {top:g} at x = {arg}")
    return PorosityInstance(f=f, g=g, n=int(n), radius=float(radius),
                            v_radius=int(v_radius), max_integral=top,
                            boundary_flag=supports_touch_boundary(f, g))


class Perturbation(NamedTuple):
    """One certified-small summand of a probe."""

    kind: str            # "atom" | "plateau"
    position: int
    amplitude: complex
    cost_phi: float      # certified decomposition-cost upper bound, Phi side
    cost_psi: float      # same on the Psi side (used for intersection budgets)


class ProbeRecord(NamedTuple):
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
    dist_f_bound: float
    dist_g_bound: float
    probes: tuple[ProbeRecord, ...]

    @property
    def guaranteed_integral(self) -> float:
        """(R^2 / 512) lam(K), the proved floor for every probe at x = 0."""
        return _guaranteed_integral(self.instance.radius, self.lam_k)

    @property
    def non_violating(self) -> tuple[ProbeRecord, ...]:
        """The probes whose integral does not exceed n."""
        return tuple(p for p in self.probes if not p.integral_value > self.instance.n)

    def checks(self) -> tuple[CheckResult, ...]:
        """The witness's clauses in report order."""
        n, half = self.instance.n, self.instance.radius / 2.0
        cost_phi, cost_psi = self.plateau_cert.cost_phi, self.plateau_cert.cost_psi
        misses = len(self.non_violating)
        return _mass_checks(self.lam_k, self.threshold, self.instance.radius, n) + (
            CheckResult("plateau-budget", cost_phi + cost_psi <= 8.0, 8.0 - cost_phi - cost_psi),
            CheckResult("ball-inclusion", self.dist_f_bound <= half and self.dist_g_bound <= half,
                        half - max(self.dist_f_bound, self.dist_g_bound)),
            CheckResult("all-probes-violate", misses == 0, float(-misses)),
        )


def _guaranteed_integral(radius: float, lam_k: float) -> float:
    return radius ** 2 / 512.0 * lam_k


def _mass_checks(lam_k: float, threshold: float, radius: float,
                 n: int) -> tuple[CheckResult, CheckResult]:
    """The two clauses on the collected mass lam(K); the greedy collection
    stops on exactly these."""
    guaranteed = _guaranteed_integral(radius, lam_k)
    return (
        CheckResult("lam-k-exceeds-threshold", lam_k > threshold, lam_k - threshold),
        CheckResult("guaranteed-exceeds-n", guaranteed > n, guaranteed - n,
                    "(R^2/512) lam(K) > n"),
    )


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


def _collect_translates(inst: PorosityInstance) -> tuple[tuple[int, int], tuple, tuple]:
    """Steps 1 and 2 of the construction: (quadrant, base points, K)."""
    space, r, threshold = inst.f.space, inst.v_radius, inst.threshold
    candidates = _translate_candidates(space, r)

    # 1. quadrant: (sign Re f(x), sign Re g(x)) at each candidate-translate
    # point, a real part >= 0 counting as +1; the most frequent one wins
    fv, gv = dict(inst.f.items()), dict(inst.g.items())
    quadrant_of = {x: (1 if fv.get(x, 0j).real >= 0.0 else -1,
                       1 if gv.get(x, 0j).real >= 0.0 else -1)
                   for a in candidates for x in range(a - r, a + r + 1)}
    counts = Counter(quadrant_of.values())
    quadrant = max(QUADRANT_ORDER, key=lambda q: counts[q])  # ties: the first in order

    # 2. greedy disjoint translates until both mass clauses hold: lam(K)
    # > 512 n / R^2 and (R^2/512) lam(K) > n, which rounding can split
    collected: list[int] = []
    base_points: list[int] = []
    for a in candidates:
        base_points.append(a)
        collected.extend(x for x in range(a - r, a + r + 1) if quadrant_of[x] == quadrant)
        mass = _mass_checks(float(len(collected)), threshold, inst.radius, inst.n)
        if all(c.passed for c in mass):
            return quadrant, tuple(base_points), tuple(sorted(collected))
    step = 2 * r + 1
    need_translates = math.ceil((threshold + 1) / step)
    raise InfeasibleWindowError(
        f"window radius {space.window_radius} cannot hold enough translate "
        f"mass for lam(K) > {threshold:g}",
        minimal_radius=need_translates * step + r)


def build_witness(inst: PorosityInstance, pair: ComplementaryPair, *,
                  probe_count: int = 100, seed: int = 0) -> PorosityWitness:
    """Run the full construction and probe the avoided ball.

    Deterministic for a fixed (instance, pair, probe_count, seed). Raises
    InfeasibleWindowError when the window cannot hold enough disjoint
    translates, and TheoremContradictionError (with the failing checks and
    the probes that did not violate) if any of the witness's checks fails.
    """
    space, R, r = inst.f.space, inst.radius, inst.v_radius
    (s1, s2), base_points, K = _collect_translates(inst)

    # 3. plateau over K with epsilon = 1; both costs below 4, sum below 8
    u, cert = build_plateau(space, K, pair, 1.0)
    _require_certified(space, cert, "plateau")

    # 4. the avoidance center
    f_tilde = inst.f + u.scale(s1 * R / 8.0)
    g_tilde = inst.g + u.scale(s2 * R / 16.0)
    dist_f = (R / 8.0) * cert.cost_phi
    dist_g = (R / 16.0) * (cert.cost_phi + cert.cost_psi)

    # 5 + 6. probes
    rng = Random(seed)
    kappa_phi, kappa_psi = _atom_costs(space, pair)
    bump = build_plateau(space, range(-1, 2), pair, 1.0)
    _require_certified(space, bump[1], "probe bump", shift=_probe_half_width)
    f_values, g_values = dict(f_tilde.items()), dict(g_tilde.items())
    f_abs, g_abs = _abs_values(f_tilde), _abs_values(g_tilde)
    neighborhoods = _neighborhoods(space, K, r)
    probes = []
    for idx in range(probe_count):
        delta_f, df_pairs = _draw_perturbation(space, *bump, rng, R, kappa_phi, kappa_psi,
                                               intersection=False)
        delta_g, dg_pairs = _draw_perturbation(space, *bump, rng, R, kappa_phi, kappa_psi,
                                               intersection=True)
        h = _perturbed_abs(f_values, f_abs, df_pairs)
        k = _perturbed_abs(g_values, g_abs, dg_pairs)
        h_min = min(h.get(x, 0.0) for x in K)
        k_min = min(k.get(x, 0.0) for x in K)
        u_rad = _certified_neighborhood(k, neighborhoods, R)
        best_val, best_x = _level_max(h, k, space.haar_weight, r)
        probes.append(ProbeRecord(index=idx, delta_f=delta_f, delta_g=delta_g,
                                  budget_f=delta_f.cost_phi,
                                  budget_g=delta_g.cost_phi + delta_g.cost_psi,
                                  h_min_on_k=h_min, k_min_on_k=k_min,
                                  certified_u_radius=u_rad,
                                  violating_x=best_x, integral_value=best_val))

    witness = PorosityWitness(
        instance=inst, quadrant=(s1, s2), m0=len(base_points), base_points=base_points,
        collected=K, lam_k=float(len(K)), threshold=inst.threshold, plateau_cert=cert, u=u,
        dist_f_bound=dist_f, dist_g_bound=dist_g, probes=tuple(probes))
    failures = [c for c in witness.checks() if not c.passed]
    if failures:
        raise TheoremContradictionError(
            "witness checks failed: " + ", ".join(c.name for c in failures),
            state={"failures": failures, "non_violating": witness.non_violating,
                   "K": K, "quadrant": (s1, s2), "seed": seed})
    return witness


def _require_certified(space: GroupSpace, cert: PlateauCertificate, what: str,
                       shift=lambda w: 0) -> None:
    """Certificate passes, and the window holds the plateau moved by up to shift(W)."""
    w, reach = space.window_radius, max(abs(x) for x in cert.support_bound)
    if shift(w) + reach > w:
        need = next(m for m in itertools.count(w + 1) if shift(m) + reach <= m)
        raise InfeasibleWindowError(f"the {what} needs window radius {need}", minimal_radius=need)
    failures = [c for c in cert.checks() if not c.passed]
    if failures:
        raise TheoremContradictionError(f"{what} certificate failed during witness "
                                        "construction", state={"failures": failures})


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
                       intersection: bool) -> tuple[Perturbation, tuple]:
    """A certified-small random summand, as its record and its (point,
    value) pairs in carrier order.

    The scale is chosen so that the certified cost bound (Phi side, or
    the sum of both sides for intersection budgets) is eta * R/32 with
    eta < BALL_SAFETY, which keeps the probe strictly inside the ball.
    Plateau summands are ``bump`` moved to the drawn position, under
    ``bump_cert``: the pairs are (pos y, amp v) for each (y, v) of the
    bump, the values ``translate_left(pos, bump).scale(amp)`` holds, and
    like that function they leave out a zero value.
    """
    w = space.window_radius
    eta = rng.uniform(0.0, BALL_SAFETY)
    phase = complex(math.cos(a := rng.uniform(0.0, 2.0 * math.pi)), math.sin(a))
    budget = eta * R / 32.0
    if rng.random() < 0.5:
        pos = rng.randint(-w, w)
        unit_cost = (kappa_phi + kappa_psi) if intersection else kappa_phi
        amp = (budget / unit_cost) * phase
        pairs = ((pos, amp),) if amp else ()    # a zero atom has no support
        return Perturbation(kind="atom", position=pos, amplitude=amp,
                            cost_phi=abs(amp) * kappa_phi,
                            cost_psi=abs(amp) * kappa_psi), pairs
    pos = rng.randint(-_probe_half_width(w), _probe_half_width(w))
    unit_cost = (bump_cert.cost_phi + bump_cert.cost_psi) if intersection \
        else bump_cert.cost_phi
    amp = (budget / unit_cost) * phase
    pairs = []
    for y, v in bump.items():
        x = space.try_mul(pos, y)
        if x is None:
            raise InfeasibleWindowError(f"the probe bump at {pos} exits the window")
        if (d := amp * v):
            pairs.append((x, d))
    return Perturbation(kind="plateau", position=pos, amplitude=amp,
                        cost_phi=abs(amp) * bump_cert.cost_phi,
                        cost_psi=abs(amp) * bump_cert.cost_psi), tuple(pairs)


def _perturbed_abs(values: dict, values_abs: dict, pairs: tuple) -> dict:
    """|c + delta| on its support, in carrier order, where ``values`` maps
    supp c to c, ``values_abs`` maps it to |c|, and ``pairs`` are the
    (point, value) pairs of delta, all on one integer window.

    Each value is the one ``c + delta`` would hold: c(y) + delta(y), or
    delta(y) at a point new to the support. Zeros leave the map. A window's
    carrier order is the order of its integers, so a new point is spliced
    in where it bisects the points of the support.
    """
    out = dict(values_abs)
    added = []
    for y, d in pairs:
        old = values.get(y)
        if old is None:
            added.append((y, abs(d)))
            continue
        v = old + d
        if v != 0:
            out[y] = abs(v)
        else:
            del out[y]
    if not added:
        return out
    items = list(out.items())
    for item in added:
        items.insert(bisect.bisect(items, item), item)
    return dict(items)


def _neighborhoods(space: GroupSpace, K: tuple, r: int) -> tuple[tuple[int, tuple], ...]:
    """(rho, the points of K + [-rho, rho] inside the window) for rho = r, ..., 1."""
    w = space.window_radius
    return tuple((rho, tuple(sorted({x + j for x in K for j in range(-rho, rho + 1)
                                     if abs(x + j) <= w})))
                 for rho in range(r, 0, -1))


def _certified_neighborhood(k_abs: dict, neighborhoods: tuple, R: float) -> int:
    """Largest rho <= r with |k| > R/32 on [-rho, rho] + K, read from the
    points of ``_neighborhoods``; 0 when none holds (rho = 0 needs no look
    at K). ``k_abs`` maps supp k to |k|."""
    floor = R / 32.0
    for rho, points in neighborhoods:
        if all(k_abs.get(x, 0.0) > floor for x in points):
            return rho
    return 0
