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
extension along greedy generators (each character of the span so far
extends in exactly m ways to the next generator of order m modulo that
span, so |G| characters and |G|^2 exponents are built, at most
CARRIER_LIMIT of them; each character is checked on the generators,
which implies the full table) and an exhaustive search over
root-of-unity weight vectors constrained only by multiplicativity on
point masses. Neither route calls or counts the
other: ``character_checks`` compares them and checks |characters| = |G|.
Both use exact exponent arithmetic modulo the group exponent; complex
values appear only in reports. The search assigns exponents depth-first
in carrier order and cuts a branch as soon as an assigned table triple
breaks multiplicativity; it stops with a ScopeError after
SEARCH_NODE_LIMIT exponent trials, or before it builds its table when
(|G| - 1) L trials, its least count, already pass that cap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from random import Random

from .algebra import (
    Decomposition,
    NormBracket,
    PlateauCertificate,
    algebra_norm_upper,
    build_plateau,
    decomposition_cost,
    plateau_from_sets,
)
from .errors import CheckResult, OrliczAlgebraError, ScopeError
from .groups import (
    CARRIER_LIMIT,
    GroupFunction,
    GroupSpace,
    convolve,
    random_function,
    translate_left,
    translate_right,
)
from .nfunctions import ComplementaryPair

TRANSLATION_COST_TOL = 1e-12
DOMINATION_TOL = 1e-9
#: most exponent trials (search nodes) the character search makes before it stops
SEARCH_NODE_LIMIT = 2 ** 21


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
                 seed: int = 0) -> tuple[CheckResult, ...]:
    """Machine check of the symmetric Segal axioms on a finite group: one clause per axiom."""
    space.require_finite("Segal report")
    rng = Random(seed)
    checks: list[CheckResult] = []

    # density surrogate: point plateaus span every function. The plateau
    # over {t} supported on {t} alone is a nonzero multiple of delta_t, so
    # the plateaus that pass are independent and their count is the rank.
    rank = 0
    for t in space.elements:
        v, _ = plateau_from_sets(space, [t], [space.identity])
        rank += v.support == (t,)
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
        br = algebra_norm_upper(f, pair)
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
        for t in space.elements:
            for side in ("left", "right"):
                moved = _translated_decomposition(br.witness, t, side)
                max_rec = max(max_rec, moved.reconstruction_error())
                cost = decomposition_cost(moved, pair)
                max_dev = max(max_dev, abs(cost - br.upper))
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

    return tuple(checks)


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

    def checks(self, value_tol: float = 1e-12) -> tuple[CheckResult, ...]:
        """The basis sweep and the pointwise unit's certificate, both at ``value_tol``."""
        cert = self.pointwise_cert
        return (
            CheckResult("two-sided-unit", self.max_error <= value_tol,
                        value_tol - self.max_error,
                        f"exhaustive over {self.unit.space.size} basis masses"),
            CheckResult("pointwise-unit-certified",
                        all(c.passed for c in cert.checks(value_tol)),
                        cert.cost_bound - cert.cost_phi, "1_G from the plateau over E = G"),
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())


def convolution_unit(space: GroupSpace, pair: ComplementaryPair, *,
                     epsilon: float = 1.0) -> UnitReport:
    """e = chi_e / lam({e}) with an exhaustive two-sided basis sweep.

    Also returns the pointwise unit 1_G produced as a certified plateau
    over E = G (cost below 2 (1 + eps)). Windows are rejected: the
    noncompact surrogate has no unit, by scope rather than by search.
    """
    space.require_finite("convolution unit")
    e = space.identity
    unit = GroupFunction.delta(space, e, 1.0 / space.haar_weight)
    max_err = 0.0
    for t in space.elements:
        d = GroupFunction.delta(space, t)
        left = convolve(unit, d)
        right = convolve(d, unit)
        max_err = max(max_err, left.max_abs_diff(d), right.max_abs_diff(d))
    bracket = algebra_norm_upper(unit, pair)
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
        w = space.haar_weight
        return sum(v * self.value(space, x) * w for x, v in u.items())


@dataclass(frozen=True)
class CharacterSet:
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
    if not space.is_abelian:
        a, b = space.find_noncommuting_pair()
        raise ScopeError(f"{what} needs an abelian group; {space.name} has "
                         f"non-commuting pair {a!r}, {b!r}")


def _greedy_generators(space: GroupSpace) -> list:
    """Generators in carrier order: each element outside the span of the
    earlier ones joins, so together they generate G."""
    generators: list = []
    span = {space.identity}
    for x in space.elements:
        if x in span:
            continue
        generators.append(x)
        new = set(span)
        acc = x
        while True:
            frontier = {space.mul(y, acc) for y in span}
            if frontier <= new:
                break
            new |= frontier
            acc = space.mul(acc, x)
        span = new
    return generators


def enumerate_characters(space: GroupSpace) -> CharacterSet:
    """All homomorphisms w: G -> roots of unity, by extension along greedy generators.

    With H the span of the earlier generators, g the next one and m the
    order of g modulo H, a character w of H extends to H<g> in exactly m
    ways: w(g) = s with m s = w(g^m) (mod L), that is s = w(g^m)/m + k L/m
    for k < m (m divides L and w(g^m)), and w(h g^j) = w(h) + j s on the
    cosets H g^j, j < m. Every extension is a character, so the last step
    yields exactly |G| of them. The |G|^2 exponents built are checked
    against ``CARRIER_LIMIT`` before any is; past it this raises
    ScopeError. Each character is checked on the generators. The count
    |G| is checked by ``character_checks``.
    """
    _require_finite_abelian(space, "character enumeration")
    if space.size ** 2 > CARRIER_LIMIT:
        raise ScopeError(f"character enumeration on {space.name} builds {space.size ** 2} "
                         f"exponents, past the carrier limit of {CARRIER_LIMIT}")
    L, _ = group_exponent(space)
    generators = _greedy_generators(space)
    span = [space.identity]  # H, in the order of the exponent lists below
    where = {space.identity: 0}
    tables = [[0]]  # the characters of H, as exponents along span
    for g in generators:
        powers, acc = [], g
        while acc not in where:  # g, ..., g^(m-1) lie outside H, g^m in it
            powers.append(acc)
            acc = space.mul(acc, g)
        m, at_gm = len(powers) + 1, where[acc]
        span += [space.mul(h, gj) for gj in powers for h in span]
        where = {x: i for i, x in enumerate(span)}
        tables = [w + [(e + j * s) % L for j in range(1, m) for e in w]
                  for w in tables for s in range(w[at_gm] // m, L, L // m)]
    order = [where[x] for x in space.elements]
    found = [Character(order=L, exponents=tuple(w[i] for i in order)) for w in tables]
    for c in found:
        _verify_homomorphism(space, c, generators)
    found.sort(key=lambda c: c.exponents)
    return CharacterSet(order=L, characters=tuple(found))


def _verify_homomorphism(space: GroupSpace, c: Character, generators) -> None:
    """w(x g) = w(x) + w(g) (mod L) for every x and generator g: x = e gives
    w(e) = 0, then induction on words gives the whole table (Z1 has L = 1)."""
    expo, L = c.exponents, c.order
    for g in generators:
        ig = space.index(g)
        for ix, x in enumerate(space.elements):
            if (expo[ix] + expo[ig] - expo[space.index(space.mul(x, g))]) % L:
                raise OrliczAlgebraError(
                    f"character fails w(st) = w(s) w(t) at ({x!r}, {g!r})")


def _closure_order(n: int, e_idx: int, products: dict) -> list[int]:
    """The carrier indices other than e_idx in closure order: the first
    unassigned index in carrier order, then, repeatedly, the first
    unassigned one that is a product of two assigned ones, and a new
    generator only when no such product is left. ``products`` maps (i, j),
    i <= j, to the index of the product."""
    assigned, reached = {e_idx}, [False] * n
    reached[e_idx] = True
    order: list[int] = []
    while len(order) < n - 1:
        nxt = next((i for i in range(n) if reached[i] and i not in assigned),
                   None)
        if nxt is None:
            nxt = next(i for i in range(n) if i not in assigned)
        assigned.add(nxt)
        order.append(nxt)
        for j in assigned:
            reached[products[min(j, nxt), max(j, nxt)]] = True
    return order


def multiplicative_functional_search(space: GroupSpace,
                                     tolerance: float = 1e-9) -> CharacterSet:
    """Independent oracle: exhaustive root-of-unity weight search, pruned.

    Solves phi(delta_s * delta_t) = phi(delta_s) phi(delta_t) for a
    weight vector w over all pairs, which reduces (under normalized Haar
    weights) to w(st) = w(s) w(t) in exact exponent arithmetic. w(e) = 1
    is forced: delta_e * delta_e = delta_e / |G|, so a nonzero functional
    cannot kill delta_e. Boundedness of the functionals is automatic at
    finite scale.
    Exponents mod L are tried depth-first in closure order
    (``_closure_order``), the identity fixed at 0, so every element after
    a generator is pinned by a table triple at its own depth. Each table
    triple (a, b, ab) is checked at the depth that assigns its last
    member, so every vector that survives the last depth satisfies the
    whole table and every vector that is cut breaks it.
    ``tolerance`` gates a float spot-check of the convolution identity.
    Raises ScopeError after SEARCH_NODE_LIMIT exponent trials, and before
    building the table when (|G| - 1) L trials pass it: the all-zero vector
    passes every triple, so the search tries all L exponents at each of
    the |G| - 1 depths under it.
    """
    _require_finite_abelian(space, "multiplicative functional search")
    L, _ = group_exponent(space)
    e_idx = space.index(space.identity)
    n = space.size
    if (n - 1) * L > SEARCH_NODE_LIMIT:
        raise ScopeError(
            f"multiplicative functional search on {space.name} needs at least "
            f"(|G| - 1) L = {(n - 1) * L} nodes (exponent trials), past the cap of "
            f"{SEARCH_NODE_LIMIT}")
    # abelian: (a, b) and (b, a) give one product and one constraint
    products = {(ia, ib): space.index(space.mul(a, space.elements[ib]))
                for ia, a in enumerate(space.elements) for ib in range(ia, n)}
    order = _closure_order(n, e_idx, products)
    depth_of = {i: d for d, i in enumerate(order)}
    depth_of[e_idx] = -1
    checks: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for (ia, ib), ic in products.items():
        last = max(depth_of[ia], depth_of[ib], depth_of[ic])
        if last >= 0:
            checks[last].append((ia, ib, ic))
    # an explicit stack, not recursion: the depth |G| - 1 can pass the recursion limit
    expo = [0] * n
    next_k = [0] * len(order)
    found = []
    nodes = 0
    d = 0
    while d >= 0:
        if d == len(order):
            found.append(Character(order=L, exponents=tuple(expo)))
            d -= 1
            continue
        k = next_k[d]
        if k == L:
            next_k[d] = 0
            d -= 1
            continue
        next_k[d] = k + 1
        nodes += 1
        if nodes > SEARCH_NODE_LIMIT:
            raise ScopeError(
                f"multiplicative functional search on {space.name} passed the cap of "
                f"{SEARCH_NODE_LIMIT} nodes (exponent trials)")
        expo[order[d]] = k
        for ia, ib, ic in checks[d]:
            if (expo[ia] + expo[ib] - expo[ic]) % L:
                break
        else:
            d += 1
    found.sort(key=lambda c: c.exponents)
    result = CharacterSet(order=L, characters=tuple(found))
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


def character_checks(space: GroupSpace, enumerated: CharacterSet,
                     searched: CharacterSet | None = None) -> tuple[CheckResult, ...]:
    """The only comparisons of the character routes: the searched characters
    (when given) against the enumerated ones, and each route's count against |G|."""
    routes = [enumerated] if searched is None else [enumerated, searched]
    complete = CheckResult("completeness", all(len(r) == space.size for r in routes),
                           float(-max(abs(len(r) - space.size) for r in routes)), "|characters| = |G|")
    if searched is None:
        return (complete,)
    return (CheckResult("routes-agree", searched.exponent_set() == enumerated.exponent_set(),
                        0.0, "exhaustive weight search vs generator-image enumeration"), complete)
