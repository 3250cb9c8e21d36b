"""Segal-algebra checks, convolution units, and character enumeration.

On a finite group with normalized Haar measure the decomposition algebra
sits inside L^1(G) with ||f||_1 <= ||f||_inf <= any decomposition cost,
is translation invariant on both sides with exactly preserved costs
(L_t u = (L_t f) * g^ and R_t u = f * (L_t g)^ term by term), and spans
every function (single-pair point plateaus are a basis). Those are the
Segal axioms at desk scale; density and translation continuity are exact
statements here rather than topological ones.

Characters of the convolution algebra on a finite abelian group are the
functionals u -> sum_x u(x) w(x) lam(x) for group homomorphisms w into
roots of unity. Two independent routes are provided: enumeration by
generator images (consistency-checked over the full table) and an
exhaustive search over root-of-unity weight vectors constrained only by
multiplicativity on point masses. Both use exact exponent arithmetic
modulo the group exponent; complex values appear only in reports.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .algebra import (
    Decomposition,
    NormBracket,
    PlateauCertificate,
    algebra_norm_upper,
    build_plateau,
    decomposition_cost,
    plateau_from_sets,
)
from .errors import OrliczAlgebraError, ScopeError
from .groups import GroupFunction, GroupSpace, convolve, random_function, translate_left, translate_right
from .nfunctions import ComplementaryPair

TRANSLATION_COST_TOL = 1e-12
DOMINATION_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""


@dataclass(frozen=True)
class SegalReport:
    space_name: str
    pair_label: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _translated_decomposition(d: Decomposition, t, side: str) -> Decomposition:
    """L_t acts on left factors, R_t on the target via L_t of right factors."""
    if side == "left":
        terms = tuple((translate_left(t, f), g) for f, g in d.terms)
        target = translate_left(t, d.target)
    else:
        terms = tuple((f, translate_left(t, g)) for f, g in d.terms)
        target = translate_right(t, d.target)
    return Decomposition(terms=terms, target=target)


def segal_report(space: GroupSpace, pair: ComplementaryPair, *, samples: int = 20,
                 seed: int = 0, budget: int = 1) -> SegalReport:
    """Machine check of the symmetric Segal axioms on a finite group."""
    space.require_normalized("Segal report")
    rng = Random(seed)
    checks: list[CheckResult] = []

    # density surrogate: point plateaus span every function
    basis = []
    for t in space.elements:
        v, d = plateau_from_sets(space, [t], [space.identity])
        d.validate()
        basis.append([v(x) for x in space.elements])
    rank = int(np.linalg.matrix_rank(np.array(basis, dtype=complex)))
    checks.append(CheckResult(
        name="density-spanning", passed=rank == space.size,
        slack=float(rank - space.size),
        detail=f"span rank {rank} of {space.size} point plateaus"))

    # norm domination ||f||_1 <= ||f||_inf <= decomposition upper bound
    worst_first, worst_second = math.inf, math.inf
    functions = [random_function(space, rng) for _ in range(samples)]
    functions.append(GroupFunction.zero(space))
    brackets = []
    for f in functions:
        br = algebra_norm_upper(f, pair, budget=budget)
        brackets.append((f, br))
        worst_first = min(worst_first, f.sup_norm() - f.one_norm())
        worst_second = min(worst_second, br.upper - f.sup_norm())
    checks.append(CheckResult(
        name="one-norm-domination", passed=worst_first >= -DOMINATION_TOL,
        slack=worst_first, detail="||f||_1 <= ||f||_inf on normalized measure"))
    checks.append(CheckResult(
        name="sup-norm-domination", passed=worst_second >= -DOMINATION_TOL,
        slack=worst_second, detail="||f||_inf <= decomposition cost"))

    # translation invariance of witness costs, both sides, exact
    max_dev = 0.0
    max_rec = 0.0
    for f, br in brackets[:3]:
        if f.is_zero:
            continue
        base_cost = decomposition_cost(br.witness, pair, validate=False)
        for t in space.elements:
            for side in ("left", "right"):
                moved = _translated_decomposition(br.witness, t, side)
                max_rec = max(max_rec, moved.reconstruction_error())
                cost = decomposition_cost(moved, pair, validate=False)
                max_dev = max(max_dev, abs(cost - base_cost))
    checks.append(CheckResult(
        name="translation-cost-invariance", passed=max_dev <= TRANSLATION_COST_TOL,
        slack=TRANSLATION_COST_TOL - max_dev,
        detail=f"max |cost(L_t/R_t witness) - cost| = {max_dev:.3e}"))
    checks.append(CheckResult(
        name="translation-reconstruction", passed=max_rec <= 1e-9,
        slack=1e-9 - max_rec,
        detail="L_t u = (L_t f) * g^ and R_t u = f * (L_t g)^ term by term"))

    # translation continuity: exact on a finite carrier
    anchor = functions[0]
    ident_dev = translate_left(space.identity, anchor).max_abs_diff(anchor)
    checks.append(CheckResult(
        name="translation-continuity", passed=ident_dev == 0.0, slack=-ident_dev,
        detail="finite carrier: orbit maps have finite range, identity acts exactly"))

    return SegalReport(space_name=space.name, pair_label=pair.phi.label,
                       checks=tuple(checks))


# ---------------------------------------------------------------------------
# convolution unit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitReport:
    unit: GroupFunction
    max_error: float
    bracket: NormBracket
    pointwise_unit: GroupFunction
    pointwise_cert: PlateauCertificate

    @property
    def passed(self) -> bool:
        return self.max_error <= 1e-12 and self.pointwise_cert.passed


def convolution_unit(space: GroupSpace, pair: ComplementaryPair, *,
                     epsilon: float = 1.0, budget: int = 1) -> UnitReport:
    """e = chi_e / lam({e}) with an exhaustive two-sided basis sweep.

    Also returns the pointwise unit 1_G produced as a certified plateau
    over E = G (cost below 2 (1 + eps)). Windows are rejected: the
    noncompact surrogate has no unit, by scope rather than by search.
    """
    space.require_normalized("convolution unit")
    e = space.identity
    unit = GroupFunction.delta(space, e, 1.0 / space.weight_float(e))
    max_err = 0.0
    for t in space.elements:
        d = GroupFunction.delta(space, t)
        left = convolve(unit, d)
        right = convolve(d, unit)
        max_err = max(max_err, left.max_abs_diff(d), right.max_abs_diff(d))
    bracket = algebra_norm_upper(unit, pair, budget=budget)
    one, cert = build_plateau(space, space.elements, pair, epsilon)
    return UnitReport(unit=unit, max_error=max_err, bracket=bracket,
                      pointwise_unit=one, pointwise_cert=cert)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """w(x) = zeta_L^{exponents[index(x)]} with zeta_L = exp(2 pi i / L)."""

    order: int
    exponents: tuple[int, ...]

    def value(self, space: GroupSpace, x) -> complex:
        return cmath.exp(2j * math.pi * self.exponents[space.index(x)] / self.order)

    def pairing(self, u: GroupFunction) -> complex:
        """phi_w(u) = sum_x u(x) w(x) lam({x})."""
        space = u.space
        return sum(v * self.value(space, x) * space.weight_float(x) for x, v in u.items())


@dataclass(frozen=True)
class CharacterSet:
    space_name: str
    order: int
    characters: tuple[Character, ...]

    def exponent_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(c.exponents for c in self.characters)

    def __len__(self) -> int:
        return len(self.characters)


def group_exponent(space: GroupSpace) -> tuple[int, dict]:
    """lcm of element orders, plus the order of each element."""
    orders = {}
    for x in space.elements:
        k, acc = 1, x
        while acc != space.identity:
            acc = space.mul(acc, x)
            k += 1
        orders[x] = k
    L = 1
    for k in orders.values():
        L = L * k // math.gcd(L, k)
    return L, orders


def _require_finite_abelian(space: GroupSpace, what: str) -> None:
    space.require_finite(what)
    bad = space.find_noncommuting_pair()
    if bad is not None:
        raise ScopeError(f"{what} needs an abelian group; {space.name} has "
                         f"non-commuting pair {bad[0]!r}, {bad[1]!r}")


def enumerate_characters(space: GroupSpace) -> CharacterSet:
    """All homomorphisms w: G -> roots of unity, by generator images.

    Greedy generators are not necessarily independent, so every image
    assignment is expanded over the whole table and dropped on any
    inconsistency; the abelian count |G| is asserted at the end.
    """
    _require_finite_abelian(space, "character enumeration")
    L, orders = group_exponent(space)
    e = space.identity
    generators: list = []
    span = {e}
    for x in space.elements:
        if x in span:
            continue
        generators.append(x)
        new = set(span)
        frontier = set(span)
        acc = x
        while True:
            frontier = {space.mul(y, acc) for y in span}
            if frontier <= new:
                break
            new |= frontier
            acc = space.mul(acc, x)
        span = new
    found: list[Character] = []
    choice_ranges = [range(orders[g]) for g in generators]
    for ks in itertools.product(*choice_ranges):
        expo = _expand_exponents(space, generators, ks, L, orders)
        if expo is not None:
            found.append(Character(order=L, exponents=expo))
    if len(found) != space.size:
        raise OrliczAlgebraError(
            f"{space.name}: found {len(found)} characters, expected {space.size}")
    for c in found:
        _verify_homomorphism(space, c)
    found.sort(key=lambda c: c.exponents)
    return CharacterSet(space_name=space.name, order=L, characters=tuple(found))


def _expand_exponents(space: GroupSpace, generators, ks, L: int,
                      orders) -> tuple[int, ...] | None:
    expo: dict = {space.identity: 0}
    for g, k in zip(generators, ks):
        step = (L // orders[g]) * k
        for base in list(expo):
            acc_elt, acc_exp = base, expo[base]
            for _ in range(1, orders[g]):
                acc_elt = space.mul(acc_elt, g)
                acc_exp = (acc_exp + step) % L
                if acc_elt in expo:
                    if expo[acc_elt] != acc_exp:
                        return None
                else:
                    expo[acc_elt] = acc_exp
    if len(expo) != space.size:
        return None
    return tuple(expo[x] for x in space.elements)


def _verify_homomorphism(space: GroupSpace, c: Character) -> None:
    expo = c.exponents
    L = c.order
    e_idx = space.index(space.identity)
    if expo[e_idx] % L != 0:
        raise OrliczAlgebraError("character fails w(e) = 1")
    for a in space.elements:
        ia = space.index(a)
        for b in space.elements:
            ib = space.index(b)
            iab = space.index(space.mul(a, b))
            if (expo[ia] + expo[ib]) % L != expo[iab] % L:
                raise OrliczAlgebraError(
                    f"character fails w(st) = w(s) w(t) at ({a!r}, {b!r})")


def multiplicative_functional_search(space: GroupSpace, tolerance: float = 1e-9, *,
                                     verify_against_enumeration: bool = True) -> CharacterSet:
    """Independent oracle: exhaustive root-of-unity weight search.

    Solves phi(delta_s * delta_t) = phi(delta_s) phi(delta_t) for a
    weight vector w over all pairs, which reduces (under normalized Haar
    weights) to w(st) = w(s) w(t) in exact exponent arithmetic. w(e) = 1
    is forced: delta_e * delta_e = delta_e / |G|, so a nonzero functional
    cannot kill delta_e. Boundedness of the functionals is automatic at
    finite scale.
    ``tolerance`` gates a float spot-check of the convolution identity,
    and the result set is asserted equal to the generator-image route
    unless ``verify_against_enumeration`` is switched off.
    """
    _require_finite_abelian(space, "multiplicative functional search")
    L, _ = group_exponent(space)
    e_idx = space.index(space.identity)
    n = space.size
    mul_idx = [[space.index(space.mul(a, b)) for b in space.elements]
               for a in space.elements]
    positions = [i for i in range(n) if i != e_idx]
    found = []
    for combo in itertools.product(range(L), repeat=len(positions)):
        expo = [0] * n
        for pos, k in zip(positions, combo):
            expo[pos] = k
        ok = True
        for i in range(n):
            row = mul_idx[i]
            ei = expo[i]
            for j in range(n):
                if (ei + expo[j]) % L != expo[row[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(Character(order=L, exponents=tuple(expo)))
    found.sort(key=lambda c: c.exponents)
    result = CharacterSet(space_name=space.name, order=L, characters=tuple(found))
    if verify_against_enumeration:
        other = enumerate_characters(space)
        if result.exponent_set() != other.exponent_set():
            raise OrliczAlgebraError(
                f"{space.name}: weight search found {len(result)} functionals, "
                f"enumeration {len(other)}; the routes must agree exactly")
    # float spot-check: the pairing is multiplicative on point masses
    rng = Random(0)
    for c in result.characters:
        s = rng.choice(space.elements)
        t = rng.choice(space.elements)
        ds, dt = GroupFunction.delta(space, s), GroupFunction.delta(space, t)
        lhs = c.pairing(convolve(ds, dt))
        rhs = c.pairing(ds) * c.pairing(dt)
        if abs(lhs - rhs) > tolerance:
            raise OrliczAlgebraError(
                f"pairing multiplicativity broke at ({s!r}, {t!r}): |{lhs} - {rhs}|")
    return result
