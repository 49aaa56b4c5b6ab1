"""Exact closed-form combinatorics of subdivided polygons.

Type vectors record how many (k+1)-gon faces a subdivided polygon has;
``vef`` gives its vertex, edge and face counts.  Every count is Raney's
count n*(L-1)!/(m_0! m_1! m!) of the lists of n words over one
composition, made by ``_list_count`` with its one checked division:
``hyper_catalan(m)`` counts one word over m, ``power_coeff(m, r)`` r
words over m, ``central_count(m, r)`` r words over m less one (r+1)-gon,
and ``raney_count(n, c)`` n words over c.  All of it is exact integer
arithmetic.
The layering ``Measure`` names and the subdigon ``DEFAULT_FACE_CAP`` are defined
here, where the CLI's option table reads them without running ``series`` or
``subdigon``; those modules re-export them.  ``_mul_cut`` (the cut product of
coefficient lists) and ``_poly_text`` (the term printer) are here so that
``series`` and ``catpow``, which share them, each import ``core`` alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import factorial, perm
from typing import Iterable, Iterator, Mapping

DEFAULT_FACE_CAP = 8


class Measure(enum.Enum):
    VERTEX = "vertex"
    EDGE = "edge"
    FACE = "face"


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"non-exact division {num}/{den}")
    return q


def _mul_cut(terms, b: list, n: int) -> list:
    """The product of sum a_j t^j over terms (j, a_j) and b, cut below index n.

    Each term adds its row into the output in the order given, so float sums
    follow that order; trailing zeros are dropped.
    """
    out = [0] * n
    for j, a in terms:
        row = b[: n - j]  # a j at or past n adds to no slot of out
        out[j : j + len(row)] = [o + a * x for o, x in zip(out[j : j + len(row)], row)]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_text(terms) -> str:
    """'42t2^5 - t4' from (monomial text, coefficient) pairs in print order; '0' if none."""
    text = " + ".join([f"{c}{mono}" if c != 1 and c != -1 or not mono
                       else mono if c == 1 else "-" + mono for mono, c in terms])
    return text.replace("+ -", "- ") if text else "0"


@dataclass(frozen=True)
class TypeVector:
    """Multiset of polygon sizes: counts m_k of (k+1)-gon faces, k >= 2.

    Canonical and immutable: entries are sorted (k, m_k) pairs with
    m_k >= 1; absent k means zero.  Addition is entrywise.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for k, mk in self.entries:
            if k < 2:
                raise ValueError(f"gon index {k} < 2")
            if mk < 1:
                raise ValueError(f"zero/negative count stored for k={k}")
        if list(self.entries) != sorted(self.entries):
            raise ValueError("entries not sorted")

    @classmethod
    def of(cls, counts: Mapping[int, int] | Iterable[tuple[int, int]]) -> "TypeVector":
        if isinstance(counts, Mapping):
            counts = counts.items()
        merged: dict[int, int] = {}
        for k, mk in counts:
            merged[k] = merged.get(k, 0) + mk
        return cls(tuple(sorted((k, m) for k, m in merged.items() if m != 0)))

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "TypeVector":
        """Build from the JSON list form [m2, m3, ...]."""
        return cls.of(enumerate(counts, start=2))

    def get(self, k: int) -> int:
        for kk, mk in self.entries:
            if kk == k:
                return mk
        return 0

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __add__(self, other: "TypeVector") -> "TypeVector":
        merged = dict(self.entries)
        for k, mk in other.entries:
            merged[k] = merged.get(k, 0) + mk
        return TypeVector.of(merged)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def faces(self) -> int:
        return sum(mk for _, mk in self.entries)

    def max_gon(self) -> int:
        """Largest gon index with a nonzero count; 1 for the empty vector."""
        return self.entries[-1][0] if self.entries else 1

    def type_factorial(self) -> int:
        out = 1
        for _, mk in self.entries:
            out *= factorial(mk)
        return out

    def __str__(self) -> str:
        if not self.entries:
            return "[]"
        return "[" + ", ".join(f"m{k}={mk}" for k, mk in self.entries) + "]"


def unit_type(j: int) -> TypeVector:
    """The basis vector with m_j = 1 and all other counts zero."""
    if j < 2:
        raise ValueError(f"gon index {j} < 2")
    return TypeVector(((j, 1),))


@dataclass(frozen=True)
class VEF:
    """Vertex, edge and face counts of a subdivided polygon."""

    V: int
    E: int
    F: int

    def __post_init__(self):
        if self.V - self.E + self.F != 1:
            raise ValueError(f"Euler relation violated: {self}")


def vef(m: TypeVector) -> VEF:
    """V = 2 + sum (k-1) m_k,  E = 1 + sum k m_k,  F = sum m_k."""
    v = 2 + sum((k - 1) * mk for k, mk in m.items())
    e = 1 + sum(k * mk for k, mk in m.items())
    f = m.faces()
    return VEF(v, e, f)


@dataclass(frozen=True)
class Composition:
    """Symbol counts of a Raney string: m_1 plus the m_2, m_3, ... tail.

    The zero count m_0 is never stored; for a list of n words it is
    forced by the rank condition to n + m_2 + 2*m_3 + ...
    """

    m1: int = 0
    tail: TypeVector = field(default_factory=TypeVector)

    def __post_init__(self):
        if self.m1 < 0:
            raise ValueError("negative m_1")

    def zeros(self, n: int) -> int:
        return n + sum((k - 1) * mk for k, mk in self.tail.items())

    def length(self, n: int) -> int:
        return self.zeros(n) + self.m1 + self.tail.faces()


def _list_count(n: int, c: Composition) -> int:
    """Raney's count of the lists of n words over c: n*(L-1)!/(m_0! m_1! m!), L = c.length(n).

    Formed as n*(L!/m_0!)/(L m_1! m!): the falling factorial L!/m_0! has
    m_1 + faces factors however many words there are, and it starts at L!
    because L - 1 < m_0 for the empty type.
    """
    length = c.length(n)
    num = n * perm(length, length - c.zeros(n))
    return _exact_div(num, length * factorial(c.m1) * c.tail.type_factorial())


def hyper_catalan(m: TypeVector) -> int:
    """Number of subdivided roofed polygons of type m: (E-1)!/((V-1)! m!), one word over m."""
    return _list_count(1, Composition(0, m))


def central_count(m: TypeVector, r: int) -> int:
    """Subdigons of type m whose central polygon is an (r+1)-gon.

    Equals r*m_r*C_m/(E_m - 1) = r*m_r*(E-2)!/((V-1)! m!): the lists of
    r words, one per subdigon glued to that polygon, over m less it.
    """
    if r < 2:
        raise ValueError(f"central gon arity {r} < 2")
    if m.get(r) == 0:
        return 0
    # m less that polygon, straight from the sorted entries (an m_r of 1 drops out)
    rest = tuple((k, mk - (k == r)) for k, mk in m.entries if k != r or mk > 1)
    return _list_count(r, Composition(0, TypeVector(rest)))


def power_coeff(m: TypeVector, r: int) -> int:
    """Coefficient of t^m in the r-th power of the subdigon series.

    Closed form r*(r-2+E_m)!/((r-2+V_m)! m!), the lists of r words over m;
    equals the number of subdigons of type m + unit(r) with a central (r+1)-gon.
    """
    if r < 1:
        raise ValueError(f"power {r} < 1")
    return _list_count(r, Composition(0, m))


def raney_count(n: int, c: Composition) -> int:
    """Number of lists of n words with symbol composition c.

    L = (n/m) * multinomial(m; m_0, m_1, m_2, ...) with m_0 derived,
    computed integrally as n*(m-1)!/(m_0! m_1! m_2! ...).
    """
    if n < 1:
        raise ValueError(f"word count {n} < 1")
    return _list_count(n, c)
