"""Measured discrete groups and finitely supported functions on them.

Two carrier families are supported, matching where the constructions
live at desk scale:

* finite groups (cyclic, direct products, explicit tables) with the
  normalized Haar weight 1/|G| stored as an exact Fraction, and
* a symmetric window [-W, W] of the integers with counting measure,
  standing in for the noncompact group Z. An operation whose product
  y z exits the window (``try_mul`` returns None) drops that mass and
  marks its output ``truncated`` instead of failing; set arithmetic that
  feeds measure comparisons (Leptin search) goes through
  ``IntegerWindow.mul``, the product in Z, so the counts are exact.

Only unimodular carriers arise here (finite groups and abelian discrete
groups); weights are uniform, so left invariance of the measure is
structural, and every finite carrier has total mass exactly 1.

The group laws are proved once, where a group is built: cyclic groups,
direct products and windows satisfy them by construction, and
``TableGroup`` checks identity, inverses and associativity exhaustively
on its index table before it returns. Nothing re-checks them later.

The function ``reflect`` is the check involution g(x) -> g(x^{-1});
``convolve`` computes (f*g)(x) = sum_y f(y) g(y^{-1} x) weight(y) by
walking supp f x supp g, adding each term f(y) g(z) weight(y) to x = y z
in the carrier order of y, so floats are reproducible.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CheckResult, InfeasibleWindowError, ScopeError, SpecFormatError

Element = object

#: most points a carrier may hold: ``group check`` builds and reports a
#: product group of this size in about 7 s and 1.4 GB
CARRIER_LIMIT = 10 ** 7


def _require_carrier_size(name: str, size: int) -> None:
    """ScopeError naming the size when a carrier of ``size`` points exceeds ``CARRIER_LIMIT``."""
    if size > CARRIER_LIMIT:
        raise ScopeError(f"{name}: a carrier of {size} points exceeds the carrier limit "
                         f"of {CARRIER_LIMIT}")


class GroupSpace:
    """Base carrier: ordered elements, group law, uniform Haar weight."""

    def __init__(self, name: str, elements: Sequence[Element], identity: Element,
                 weight: Fraction, window_radius: int | None = None):
        self.name = name
        self.elements = tuple(elements)
        self.identity = identity
        self._index = {x: i for i, x in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise SpecFormatError(f"{name}: duplicate carrier elements")
        if identity not in self._index:
            raise SpecFormatError(f"{name}: identity not in carrier")
        if weight <= 0:
            raise SpecFormatError(f"{name}: weights must be positive")
        self._weight = weight
        self._weight_float = float(weight)
        self.window_radius = window_radius
        self._abelian: bool | None = None

    # -- carrier ------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_window(self) -> bool:
        return self.window_radius is not None

    def contains(self, x: Element) -> bool:
        return x in self._index

    def index(self, x: Element) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise self.off_carrier(x) from None

    def off_carrier(self, x: Element, role: str = "") -> SpecFormatError:
        """The error for a point x that is not in the carrier; ``role`` prefixes x."""
        return SpecFormatError(f"{self.name}: {role}{x!r} not in carrier")

    def weight(self, x: Element) -> Fraction:
        return self._weight

    @property
    def haar_weight(self) -> float:
        """The one Haar weight that every point carries, as a float."""
        return self._weight_float

    def weight_float(self, x: Element) -> float:
        """``haar_weight``: the float weight is the same at every point x."""
        return self._weight_float

    def total_mass(self) -> Fraction:
        return self._weight * self.size

    # -- group law ----------------------------------------------------------

    def try_mul(self, a: Element, b: Element) -> Element | None:
        """Product, or None when it exits an integer window."""
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        """Product in the group: ``try_mul``, never None on a finite carrier."""
        return self.try_mul(a, b)

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    # -- structure ----------------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = self.find_noncommuting_pair() is None
        return self._abelian

    def find_noncommuting_pair(self) -> tuple[Element, Element] | None:
        for a in self.elements:
            for b in self.elements:
                if self.try_mul(a, b) != self.try_mul(b, a):
                    return (a, b)
        return None

    def checks(self) -> tuple[CheckResult, ...]:
        """The group laws, proved where the group is built, and a finite group's normalization."""
        laws = CheckResult("laws", True, 0.0,
                           "associativity, identity, inverses (proved where the group is built)")
        if self.is_window:
            return (laws,)
        return laws, CheckResult("normalized", self.total_mass() == 1, 0.0, "sum of weights = 1")

    def require_finite(self, what: str) -> None:
        if self.is_window:
            raise ScopeError(f"{what} needs a finite group; {self.name} is a window "
                             "surrogate for a noncompact group")

    def __repr__(self) -> str:
        return f"<GroupSpace {self.name} |G|={self.size}>"


class CyclicGroup(GroupSpace):
    def __init__(self, n: int):
        if n <= 0:
            raise SpecFormatError(f"cyclic order must be positive, got {n}")
        _require_carrier_size(f"Z{n}", n)
        super().__init__(f"Z{n}", range(n), 0, Fraction(1, n))
        self.n = n
        self._abelian = True

    def try_mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n


class ProductGroup(GroupSpace):
    """Direct product of finite groups; elements are tuples."""

    def __init__(self, factors: Sequence[GroupSpace]):
        if not factors:
            raise SpecFormatError("product needs at least one factor")
        for f in factors:
            if f.is_window:
                raise ScopeError("window factors in products are out of scope")
        name = "x".join(f.name for f in factors)
        _require_carrier_size(name, math.prod(f.size for f in factors))
        self.factors = tuple(factors)
        elements = [tuple(xs) for xs in itertools.product(*(f.elements for f in factors))]
        identity = tuple(f.identity for f in factors)
        n = len(elements)
        super().__init__(name, elements, identity, Fraction(1, n))
        self._abelian = all(f.is_abelian for f in factors)

    def try_mul(self, a, b):
        return tuple(f.try_mul(x, y) for f, x, y in zip(self.factors, a, b))

    def inv(self, a):
        return tuple(f.inv(x) for f, x in zip(self.factors, a))


class TableGroup(GroupSpace):
    """Finite group given by an explicit multiplication table over labels; the
    constructor checks the group laws exhaustively on the index table."""

    def __init__(self, name: str, elements: Sequence[Element],
                 mul_table: Sequence[Sequence[int]], identity: Element):
        n = len(elements)
        if n == 0:
            raise SpecFormatError(f"{name}: a group table needs at least one element")
        _require_carrier_size(name, n)
        if len(mul_table) != n or any(len(row) != n for row in mul_table):
            raise SpecFormatError(f"{name}: mul table must be {n}x{n}")
        for row in mul_table:
            for v in row:
                if not (0 <= v < n):
                    raise SpecFormatError(f"{name}: mul table entry {v} out of range")
        super().__init__(name, elements, identity, Fraction(1, n))
        mul = [list(row) for row in mul_table]
        e = self.index(identity)
        inv = [next((j for j, ij in enumerate(row) if ij == e), None) for row in mul]
        for x, xi in zip(self.elements, inv):
            if xi is None:
                raise ScopeError(f"{name}: element {x!r} has no inverse")
        for i, x in enumerate(self.elements):
            if mul[e][i] != i or mul[i][e] != i:
                raise ScopeError(f"{name}: identity law fails at {x!r}")
            if mul[inv[i]][i] != e:
                raise ScopeError(f"{name}: inverse law fails at {x!r}")
        for a, row_a in enumerate(mul):
            for b, ab in enumerate(row_a):
                if mul[ab] != [row_a[bc] for bc in mul[b]]:
                    c = next(c for c, bc in enumerate(mul[b]) if mul[ab][c] != row_a[bc])
                    triple = ",".join(repr(self.elements[i]) for i in (a, b, c))
                    raise ScopeError(f"{name}: associativity fails at ({triple})")
        self._mul, self._inv = mul, inv

    def try_mul(self, a, b):
        index = self._index
        try:
            return self.elements[self._mul[index[a]][index[b]]]
        except KeyError as exc:
            raise self.off_carrier(exc.args[0]) from None

    def inv(self, a):
        try:
            return self.elements[self._inv[self._index[a]]]
        except KeyError:
            raise self.off_carrier(a) from None


class IntegerWindow(GroupSpace):
    """Symmetric slice [-W, W] of Z with counting measure; ``mul`` and ``inv``
    act in Z, ``try_mul`` in the carrier."""

    mul = staticmethod(operator.add)
    inv = staticmethod(operator.neg)

    def __init__(self, radius: int):
        if radius <= 0:
            raise SpecFormatError(f"window radius must be positive, got {radius}")
        _require_carrier_size(f"Zwindow{radius}", 2 * radius + 1)
        super().__init__(f"Zwindow{radius}", range(-radius, radius + 1), 0,
                         Fraction(1), window_radius=radius)
        self._abelian = True

    def try_mul(self, a, b):
        s = a + b
        return s if abs(s) <= self.window_radius else None


def cyclic(n: int) -> GroupSpace:
    return CyclicGroup(n)


def direct_product(*factors: GroupSpace) -> GroupSpace:
    return ProductGroup(factors)


def integer_window(radius: int) -> GroupSpace:
    return IntegerWindow(radius)


def symmetric_group3() -> GroupSpace:
    """S3 as permutation tuples of (0, 1, 2) under composition."""
    elements = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(elements)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(3))
    table = [[idx[compose(p, q)] for q in elements] for p in elements]
    return TableGroup("S3", elements, table, (0, 1, 2))


# ---------------------------------------------------------------------------
# functions on a carrier
# ---------------------------------------------------------------------------

class GroupFunction:
    """Finitely supported complex function; immutable by convention.

    Values are stored in carrier order at construction, so ``support``
    and ``items()`` walk them without sorting. The constructor sorts the
    given points once by the carrier's index map, whose lookup is also
    the containment check, and keeps ``complex(v)`` of the non-zero
    values. ``truncated`` marks results whose true value depends on mass
    outside an integer window; it propagates through every operation.
    """

    __slots__ = ("space", "_values", "truncated")

    def __init__(self, space: GroupSpace, values: Mapping[Element, complex],
                 truncated: bool = False):
        try:
            keys = sorted(values, key=space._index.__getitem__)
        except KeyError as exc:
            raise space.off_carrier(exc.args[0], "support point ") from None
        self.space = space
        self._values = {x: c for x in keys if (c := complex(values[x]))}
        self.truncated = truncated

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, space: GroupSpace) -> "GroupFunction":
        return cls(space, {})

    @classmethod
    def delta(cls, space: GroupSpace, x: Element, value: complex = 1.0) -> "GroupFunction":
        return cls(space, {x: value})

    @classmethod
    def indicator(cls, space: GroupSpace, points: Iterable[Element]) -> "GroupFunction":
        return cls(space, {x: 1.0 for x in points})

    @classmethod
    def constant(cls, space: GroupSpace, value: complex = 1.0) -> "GroupFunction":
        return cls(space, {x: value for x in space.elements})

    # -- access -----------------------------------------------------------

    def __call__(self, x: Element) -> complex:
        return self._values.get(x, 0j)

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(self._values)

    def items(self) -> Iterator[tuple[Element, complex]]:
        """(x, value) pairs in carrier order, for reproducible float sums."""
        return iter(self._values.items())

    @property
    def is_zero(self) -> bool:
        return not self._values

    def sup_norm(self) -> float:
        return max(map(abs, self._values.values()), default=0.0)

    def one_norm(self) -> float:
        w = self.space.haar_weight
        return sum(abs(v) * w for _, v in self.items())

    # -- pointwise algebra --------------------------------------------------

    def scale(self, c: complex) -> "GroupFunction":
        return GroupFunction(self.space, {x: c * v for x, v in self._values.items()},
                             self.truncated)

    def __add__(self, other: "GroupFunction") -> "GroupFunction":
        _same_space(self, other)
        vals = dict(self._values)
        for x, v in other._values.items():
            vals[x] = vals.get(x, 0j) + v
        return GroupFunction(self.space, vals, self.truncated or other.truncated)

    def max_abs_diff(self, other: "GroupFunction") -> float:
        _same_space(self, other)
        a, b = self._values, other._values
        return max((abs(a.get(x, 0j) - b.get(x, 0j)) for x in a.keys() | b.keys()),
                   default=0.0)

    def __repr__(self) -> str:
        flag = ", truncated" if self.truncated else ""
        return f"<GroupFunction on {self.space.name}, |supp|={len(self._values)}{flag}>"


def _same_space(f: GroupFunction, g: GroupFunction) -> None:
    if f.space is not g.space:
        raise ScopeError(f"mismatched spaces: {f.space.name} vs {g.space.name}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = sum_y f(y) g(y^{-1}x) weight(y), walking supp f x supp g.

    Each x = y z collects its terms in the carrier order of y, starting
    from 0j. On windows the values inside the carrier are exact (both
    factors are genuinely supported inside), but the result is flagged
    truncated when some product y z exits, i.e. when the true
    convolution on Z has mass the window cannot hold.
    """
    _same_space(f, g)
    space = f.space
    truncated = f.truncated or g.truncated
    out: dict[Element, complex] = {}
    mul, get, wy = space.try_mul, out.get, space.haar_weight
    for y, fv in f.items():
        for z, gv in g.items():
            x = mul(y, z)
            if x is None:
                truncated = True
                continue
            out[x] = get(x, 0j) + fv * gv * wy
    if not all(map(cmath.isfinite, out.values())) \
            and math.isfinite(f.sup_norm()) and math.isfinite(g.sup_norm()):
        raise ScopeError(f"sup|f| = {f.sup_norm():g} and sup|g| = {g.sup_norm():g} put "
                         "f * g above the float range: it overflows")
    return GroupFunction(space, out, truncated)


def _relabel(f: GroupFunction, move) -> GroupFunction:
    """f with each support point y moved to move(y); a None drops y and marks
    the result truncated (the point left the window)."""
    out: dict[Element, complex] = {}
    truncated = f.truncated
    for y, v in f.items():
        x = move(y)
        if x is None:
            truncated = True
            continue
        out[x] = v
    return GroupFunction(f.space, out, truncated)


def reflect(f: GroupFunction) -> GroupFunction:
    """Check involution: reflect(f)(x) = f(x^{-1}). Exact relabeling."""
    return _relabel(f, f.space.inv)


def translate_left(t: Element, f: GroupFunction) -> GroupFunction:
    """(L_t f)(x) = f(t^{-1} x); support moves to t * supp f."""
    return _relabel(f, partial(f.space.try_mul, t))


def translate_right(t: Element, f: GroupFunction) -> GroupFunction:
    """(R_t f)(x) = f(x t); support moves to supp f * t^{-1}."""
    ti = f.space.inv(t)
    return _relabel(f, lambda y: f.space.try_mul(y, ti))


def set_product(space: GroupSpace, left: Iterable[Element], right: Iterable[Element]) -> frozenset:
    """{a b : a in left, b in right} in the underlying group.

    On a window this is the sum in Z, so that measure comparisons stay
    exact; members may lie outside the carrier.
    """
    return frozenset(space.mul(a, b) for a in left for b in right)


def set_inverse(space: GroupSpace, points: Iterable[Element]) -> frozenset:
    return frozenset(space.inv(a) for a in points)


@dataclass(frozen=True)
class LeptinSet:
    """A set U with lam(KU) < (1 + eps) lam(U), together with the exact counts."""

    members: tuple
    lam_u: Fraction
    lam_ku: Fraction
    epsilon: float

    @property
    def ratio(self) -> Fraction:
        return self.lam_ku / self.lam_u

    @property
    def margin(self) -> float:
        """(1 + eps) lam(U) - lam(KU), strictly positive by construction."""
        return float((1 + Fraction(self.epsilon)) * self.lam_u - self.lam_ku)


def leptin_search(space: GroupSpace, compact: Iterable[Element], epsilon: float) -> LeptinSet:
    """Find U with 0 < lam(U) < inf and lam(KU) < (1 + eps) lam(U).

    Finite groups take U = G (ratio exactly 1). Windows scan symmetric
    intervals U = [-N, N] for the smallest N that satisfies the strict
    ratio; infeasibility (U or KU poking out of the window) raises with
    the minimal radius that would work.
    """
    K = tuple(compact)
    if not K:
        raise SpecFormatError("Leptin search needs a nonempty compact set")
    if epsilon <= 0:
        raise SpecFormatError(f"Leptin search needs epsilon > 0, got {epsilon:g}")
    for x in K:
        space.index(x)
    if not space.is_window:
        lam = space.total_mass()
        return LeptinSet(members=space.elements, lam_u=lam, lam_ku=lam, epsilon=epsilon)
    w = space.window_radius
    one_plus = 1 + Fraction(epsilon)
    for n in itertools.count(0):
        u = range(-n, n + 1)
        ku = sorted(set_product(space, K, u))
        if Fraction(len(ku)) < one_plus * (2 * n + 1):
            needed = max(n, max(abs(ku[0]), abs(ku[-1])))
            if needed > w:
                raise InfeasibleWindowError(
                    f"{space.name}: Leptin set for eps={epsilon:g} needs radius {needed}",
                    minimal_radius=needed)
            return LeptinSet(members=tuple(u), lam_u=Fraction(2 * n + 1),
                             lam_ku=Fraction(len(ku)), epsilon=epsilon)
        if n > 4 * w + len(K):  # epsilon too small for any radius near the window
            raise InfeasibleWindowError(
                f"{space.name}: Leptin scan did not terminate by N={n}")


def random_function(space: GroupSpace, rng: Random, *, support_size: int | None = None,
                    amplitude: float = 1.0) -> GroupFunction:
    """Seeded random function for sweeps and property tests."""
    if support_size is None:
        support_size = max(1, space.size // 2)
    support_size = min(support_size, space.size)
    points = rng.sample(list(space.elements), support_size)
    vals = {}
    for x in points:
        re = rng.uniform(-amplitude, amplitude)
        im = rng.uniform(-amplitude, amplitude)
        vals[x] = complex(re, im)
    return GroupFunction(space, vals)
