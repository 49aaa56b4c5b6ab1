"""Slow reference implementations that the tests compare the program with.

Each one is the plain form of a fast path in ``hypercatalan``: subdigons
and Raney words as ``PlaneTree`` objects, built by ``group_trees`` (the
tree-building reference for ``raney.group_words``'s slices) and read
from text by ``tokens``, enumerated and counted through ``TypeVector`` arithmetic,
Raney lists by depth-first search over prefixes, rotations by testing
every offset, the structural helpers that only tests use, the
hyper-Catalan number, central split and power coefficient by the
paper's factorial forms, the Catalan numbers by binom(2n, n)/(n+1), the
Catalan power coefficients by their factorial form and recurrence, the
univariate ``UniPoly`` with the Catalan series and the reduction
polynomials P_r and Q_r that ``catpow.verify_power_identity`` is checked
against, a univariate product that adds in the float order the cell pass
keeps for R^F, and ``LayeredPoly`` admission to a spec, truncation,
arithmetic, packing and text and JSON forms term by term, with a type
vector's JSON list form ``to_counts``.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from hypercatalan.catpow import catalan_power, residual_text
from hypercatalan.core import VEF, Composition, TypeVector, unit_type, vef
from hypercatalan.raney import is_word_list, parse_string, rank
from hypercatalan.series import LayeredPoly, LayerSpec, Measure, geode_quotient, level
from hypercatalan.subdigon import serialize

Symbols = tuple[int, ...]


# -- plane trees --------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class PlaneTree:
    """Rooted ordered tree: a leaf when children is empty.

    The word determines the tree, so equality and hashing go through
    ``to_word``, and no operation recurses into deep trees.
    """

    children: tuple[PlaneTree, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, PlaneTree):
            return NotImplemented
        return to_word(self) == to_word(other)

    def __hash__(self):
        return hash(to_word(self))

    def __repr__(self):
        return f"PlaneTree({serialize(to_word(self))!r})"


NULL = PlaneTree()


def panel(k: int, children) -> PlaneTree:
    """Glue k ordered subdigons to a central (k+1)-gon."""
    children = tuple(children)
    if k < 2:
        raise ValueError(f"panel arity {k} < 2")
    if len(children) != k:
        raise ValueError(f"expected {k} children, got {len(children)}")
    return PlaneTree(children)


def to_word(t: PlaneTree) -> Symbols:
    """Raney word of t: the arities of its nodes in preorder."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(len(node.children))
        stack.extend(reversed(node.children))
    return tuple(out)


def group_trees(word) -> list[tuple[int, PlaneTree | None]]:
    """Group each symbol k >= 0 with the k trees right after it, right to left.

    Returns (index, tree or None) for every item left, leftmost first;
    None marks a symbol that found fewer than k trees after it (or k < 0).
    """
    starts: list[int] = []  # the items so far, rightmost first
    trees: list[PlaneTree | None] = []
    run = 0  # trees at the end of the lists
    for i in range(len(word) - 1, -1, -1):
        k = word[i]
        if 0 <= k <= run:
            cut = len(trees) - k
            tree = PlaneTree(tuple(trees[cut:][::-1])) if k else NULL
            del trees[cut:], starts[cut:]
            run += 1 - k
        else:
            tree, run = None, 0
        trees.append(tree)
        starts.append(i)
    return list(zip(reversed(starts), reversed(trees)))


def from_word(word) -> PlaneTree:
    """The plane tree whose preorder arities are word; inverse of to_word."""
    items = group_trees(word)
    if not items or items[0][1] is None:
        raise ValueError(f"unexpected end of input at position {len(word)}")
    if len(items) > 1:
        raise ValueError(f"trailing input at position {items[1][0]}")
    return items[0][1]


def tokens(text: str) -> Symbols:
    """The arities of a word in ``serialize`` form: digits, or commas between them above 9."""
    word = parse_string(text)
    if serialize(word) != text:
        raise ValueError(f"not in serialize form: {text!r}")
    return word


def tree_of(text: str) -> PlaneTree:
    """The subdigon whose word in ``serialize`` form is text."""
    return check_subdigon(from_word(tokens(text)))


def render_tree(t: PlaneTree) -> str:
    """Bracketed form of a tree: 0 for a leaf, else (k followed by its k children)."""
    if not t.children:
        return "0"
    return f"({len(t.children)}" + "".join(map(render_tree, t.children)) + ")"


def type_of(s: PlaneTree) -> TypeVector:
    """m_k = number of panels of arity k anywhere in s."""
    return TypeVector.of(Counter(k for k in to_word(s) if k))


# -- subdigons ----------------------------------------------------------------


def check_subdigon(t: PlaneTree) -> PlaneTree:
    """t itself when no node is unary, i.e. when t is a subdigon."""
    if 1 in to_word(t):
        raise ValueError("unary node has no subdigon counterpart")
    return t


def central_arity(s: PlaneTree) -> int | None:
    """Arity of the root panel, None for the null subdigon."""
    return len(s.children) if s.children else None


def vef_structural(s: PlaneTree) -> VEF:
    """V/E/F by the gluing recursion, independent of the linear formulas.

    Each child shares its two roof vertices and one roof edge with the
    central polygon.
    """
    if not s.children:
        return VEF(2, 1, 0)
    k = len(s.children)
    v, e, f = k + 1, k + 1, 1
    for c in s.children:
        sub = vef_structural(c)
        v += sub.V - 2
        e += sub.E - 1
        f += sub.F
    return VEF(v, e, f)


def psi_sum(subdigons) -> LayeredPoly:
    """Sum of accounting monomials t^type over a multiset of subdigons."""
    acc: dict[TypeVector, int] = {}
    for s in subdigons:
        m = type_of(s)
        acc[m] = acc.get(m, 0) + 1
    return LayeredPoly(acc)


def _less(m: TypeVector, s: TypeVector) -> TypeVector:
    """m - s entrywise, for s <= m entrywise."""
    return TypeVector.of([*m.items(), *((k, -sk) for k, sk in s.items())])


def _sub_vectors(m: TypeVector) -> list[TypeVector]:
    """All type vectors s with 0 <= s_k <= m_k entrywise."""
    ks = [k for k, _ in m.items()]
    ranges = [range(mk + 1) for _, mk in m.items()]
    return [TypeVector.of(zip(ks, picks)) for picks in itertools.product(*ranges)]


@lru_cache(maxsize=None)
def _splits(m: TypeVector, parts: int) -> tuple[tuple[TypeVector, ...], ...]:
    """All ordered tuples of `parts` type vectors summing to m."""
    if parts == 0:
        return ((),) if not m else ()
    if parts == 1:
        return ((m,),)
    out = []
    for first in _sub_vectors(m):
        for rest in _splits(_less(m, first), parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_trees(m: TypeVector) -> tuple[PlaneTree, ...]:
    """Every subdigon of type m as a tree, central polygon first."""
    if not m:
        return (NULL,)
    out = []
    for r, _ in m.items():
        for split in _splits(_less(m, unit_type(r)), r):
            child_lists = [enumerate_trees(part) for part in split]
            for children in itertools.product(*child_lists):
                out.append(PlaneTree(children))
    return tuple(out)


def count_trees(m: TypeVector) -> int:
    """Subdigons of type m by the central-polygon recursion on type vectors.

    Every sub-type of m is counted first, fewest faces first, so no call
    recurses deeper than an arity (200 triangles in one go overflow the stack).
    """
    for s in sorted(_sub_vectors(m), key=TypeVector.faces):
        _count_type(s)
    return _count_type(m)


@lru_cache(maxsize=None)
def _count_type(m: TypeVector) -> int:
    if not m:
        return 1
    total = 0
    for r, _ in m.items():
        total += _count_tuple(_less(m, unit_type(r)), r)
    return total


@lru_cache(maxsize=None)
def _count_tuple(m: TypeVector, parts: int) -> int:
    """Ordered tuples of `parts` subdigons with types summing to m."""
    if parts == 0:
        return 0 if m else 1
    if parts == 1:
        return _count_type(m)
    total = 0
    for first in _sub_vectors(m):
        c = _count_type(first)
        if c:
            total += c * _count_tuple(_less(m, first), parts - 1)
    return total


# -- Raney strings --------------------------------------------------------------


def rotate(sigma: Sequence[int], offset: int) -> Symbols:
    if not sigma:
        return ()
    offset %= len(sigma)
    return tuple(sigma[offset:]) + tuple(sigma[:offset])


def split_words(sigma: Sequence[int]) -> list[Symbols] | None:
    """Greedy split into words at each first rank minus-one prefix."""
    out: list[Symbols] = []
    start = 0
    cum = 0
    target = -1
    for i, a in enumerate(sigma):
        cum += a - 1
        if cum == target:
            out.append(tuple(sigma[start : i + 1]))
            start = i + 1
            target -= 1
    if start != len(sigma):
        return None
    return out


def list_rotations_scan(sigma: Sequence[int]) -> set[int]:
    """Offsets whose rotation is a list of n words, each rotation tested in full."""
    n = -rank(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    offsets = {off for off in range(len(sigma)) if is_word_list(rotate(sigma, off), n)}
    if len(offsets) != n:
        raise ArithmeticError(f"expected {n} rotations, found {len(offsets)}")
    return offsets


def enumerate_lists_dfs(n: int, c: Composition) -> list[Symbols]:
    """The n-word lists of the composition by depth-first search, lexicographic.

    Prefixes whose rank already reaches -n are pruned; once the last
    nonzero symbol is placed, the zeros left complete the list.
    """
    if n < 1:
        raise ValueError(f"word count {n} < 1")
    total = c.length(n)
    avail = {0: c.zeros(n), 1: c.m1, **dict(c.tail.items())}
    symbols = sorted(k for k, v in avail.items() if v > 0)
    if avail[0] == total:  # n zeros: n one-symbol words
        return [(0,) * total]
    out: list[Symbols] = []
    prefix: list[int] = []
    cum = 0
    stack = [iter(symbols)]  # per open position, the symbols still to try there
    while stack:
        for a in stack[-1]:
            if avail[a] and cum + a - 1 > -n:
                break
        else:
            stack.pop()
            if prefix:  # back to the previous position
                a = prefix.pop()
                avail[a] += 1
                cum -= a - 1
            continue
        if a and len(prefix) + avail[0] + 1 == total:
            out.append((*prefix, a, *(0,) * avail[0]))
            continue
        avail[a] -= 1
        prefix.append(a)
        cum += a - 1
        stack.append(iter(symbols))
    return out


# -- hyper-Catalan closed forms ---------------------------------------------------


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, f"non-exact division {num}/{den}"
    return q


def hyper_catalan_factorial(m: TypeVector) -> int:
    """C_m by the paper's factorial form (E-1)!/((V-1)! m!)."""
    s = vef(m)
    return _exact(factorial(s.E - 1), factorial(s.V - 1) * m.type_factorial())


def central_count_factorial(m: TypeVector, r: int) -> int:
    """Subdigons of type m with a central (r+1)-gon, r*m_r*(E-2)!/((V-1)! m!)."""
    if m.get(r) == 0:  # also keeps (E-2)! of the empty type out
        return 0
    s = vef(m)
    return _exact(r * m.get(r) * factorial(s.E - 2), factorial(s.V - 1) * m.type_factorial())


def power_coeff_factorial(m: TypeVector, r: int) -> int:
    """[t^m] S^r by its factorial form r*(r-2+E)!/((r-2+V)! m!)."""
    s = vef(m)
    return _exact(r * factorial(r - 2 + s.E), factorial(r - 2 + s.V) * m.type_factorial())


# -- Catalan powers -------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        """The full product, coefficient by coefficient."""
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t^k."""
        return UniPoly((0,) * k + self.coeffs)

    def truncated(self, order: int) -> "UniPoly":
        """Drop all terms of degree above order."""
        return UniPoly(self.coeffs[: order + 1])

    def __str__(self):
        return residual_text(self.coeffs)


def catalan(n: int) -> int:
    """The Catalan number C_n = binom(2n, n) / (n + 1)."""
    return comb(2 * n, n) // (n + 1)


def catalan_series(order: int) -> UniPoly:
    """T truncated at the given order."""
    return UniPoly(catalan(n) for n in range(order + 1))


def _p_pair(r: int) -> tuple[UniPoly, UniPoly]:
    """(P_{r-1}, P_r) for r >= 1, from one pass of P_r = P_{r-1} - t P_{r-2}."""
    prev, cur = UniPoly.zero(), UniPoly.one()
    for _ in range(r - 1):
        prev, cur = cur, cur - prev.shift(1)
    return prev, cur


def p_poly(r: int) -> UniPoly:
    """P_0 = 0, P_1 = 1, P_r = P_{r-1} - t P_{r-2}."""
    if r < 0:
        raise ValueError(f"negative index {r}")
    return _p_pair(r)[1] if r else UniPoly.zero()


def q_poly(r: int) -> UniPoly:
    """Q_1 = 0 and Q_{r+1} = -P_r."""
    if r < 1:
        raise ValueError(f"power {r} < 1")
    return -_p_pair(r)[0]


def mul_from_top(a: list, b: list) -> list:
    """The full product of two coefficient lists, each coefficient adding a's terms
    from its highest index down, starting from the int 0: the float add order of R^F."""
    out = []
    for e in range(len(a) + len(b) - 1):
        acc = 0
        for j in reversed(range(len(a))):
            if a[j] and 0 <= e - j < len(b):
                acc = acc + a[j] * b[e - j]
        out.append(acc)
    return out



def catalan_power_factorial(r: int, m: int) -> int:
    """[t^m] T^r by its factorial form r (2m+r-1)! / ((m+r)! m!)."""
    return r * factorial(2 * m + r - 1) // (factorial(m + r) * factorial(m))


def power_recurrence_check(r: int, m: int) -> bool:
    """C^(r)_m = C^(r-1)_{m+1} - C^(r-2)_{m+1}, via the closed form."""
    if r < 3:
        raise ValueError(f"recurrence needs power >= 3, got {r}")
    return catalan_power(r, m) == catalan_power(r - 1, m + 1) - catalan_power(r - 2, m + 1)


# -- polynomial arithmetic and packed keys ----------------------------------------

ONE = LayeredPoly({TypeVector(): 1})


def admits(spec: LayerSpec, m: TypeVector) -> bool:
    """m has level <= spec.d and no gon index above spec.gon_bound."""
    if spec.gon_bound is not None and m.max_gon() > spec.gon_bound:
        return False
    return level(m, spec.measure) <= spec.d


def truncate(p: LayeredPoly, spec: LayerSpec) -> LayeredPoly:
    """The terms of p that spec admits."""
    return LayeredPoly({m: c for m, c in p.terms.items() if admits(spec, m)})


def poly(*terms) -> LayeredPoly:
    """poly((coeff, [m2, m3, ...]), ...)"""
    return LayeredPoly({TypeVector.from_counts(m): c for c, m in terms})


def add(p: LayeredPoly, q: LayeredPoly, sign: int = 1) -> LayeredPoly:
    """p + q, or p - q for sign -1."""
    out = dict(p.terms)
    for m, c in q.terms.items():
        out[m] = out.get(m, 0) + sign * c
    return LayeredPoly(out)


def mul(p: LayeredPoly, q: LayeredPoly) -> LayeredPoly:
    """The full product p*q, every pair of terms."""
    out: dict[TypeVector, int] = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return LayeredPoly(out)


def pack(m: TypeVector, base: int) -> int:
    """The packed key of a monomial, sum_k m_k * base^(k-2)."""
    return sum(mk * base ** (k - 2) for k, mk in m.items())


def unpack(key: int, base: int) -> TypeVector:
    """The monomial of a packed key: the inverse of pack."""
    counts = []
    while key:
        key, mk = divmod(key, base)
        counts.append(mk)
    return TypeVector.from_counts(counts)


def unpacked(bucket: dict[int, int], spec: LayerSpec) -> LayeredPoly:
    """A bucket of packed keys at base spec.d + 1 as a LayeredPoly, zero terms dropped."""
    return LayeredPoly({unpack(key, spec.d + 1): c for key, c in bucket.items()})


def geode(d: int, q: int) -> LayeredPoly:
    """geode_quotient(d, q) unpacked: its one level, d - 1, as a LayeredPoly."""
    levels = geode_quotient(d, q)
    assert list(levels) == [d - 1]
    return unpacked(levels[d - 1], LayerSpec(Measure.FACE, d, q))


def packed(p: LayeredPoly, spec: LayerSpec) -> dict[int, dict[int, int]]:
    """truncate(p, spec) as {level: {packed key: coefficient}}, evaluate_geometric's form."""
    out: dict[int, dict[int, int]] = {}
    for m, c in p.terms.items():
        if admits(spec, m):
            out.setdefault(level(m, spec.measure), {})[pack(m, spec.d + 1)] = c
    return out


def graded(p: LayeredPoly, spec: LayerSpec) -> list[dict[int, int]]:
    """truncate(p, spec) as the walk's level buckets 0..d of packed keys."""
    levels = packed(p, spec)
    return [levels.get(lvl, {}) for lvl in range(spec.d + 1)]


def bumped_walk(walk, bumps):
    """walk with `by` added to C_m for each (level, m, by) in bumps: a wrong beta."""
    def bumped(spec):
        buckets = walk(spec)
        for lvl, m, by in bumps:
            key = pack(m, spec.d + 1)
            buckets[lvl][key] = buckets[lvl].get(key, 0) + by
        return buckets
    return bumped


# -- polynomial display -----------------------------------------------------------


def to_counts(m: TypeVector) -> list[int]:
    """JSON list form [m2, m3, ...] with trailing zeros stripped: the inverse of from_counts."""
    out = [0] * (m.entries[-1][0] - 1) if m.entries else []
    for k, mk in m.entries:
        out[k - 2] = mk
    return out


def print_order(p: LayeredPoly) -> list[tuple[TypeVector, int]]:
    return sorted(p.terms.items(), key=lambda t: (t[0].faces(), t[0].entries))


def poly_text(p: LayeredPoly) -> str:
    """'42t2^5 + 5t2t3 - t4': terms by face count then entries, coefficients +-1 elided."""
    if not p.terms:
        return "0"
    parts = []
    for m, c in print_order(p):
        mono = "".join(f"t{k}" + (f"^{mk}" if mk > 1 else "") for k, mk in m.items())
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def poly_to_json(p: LayeredPoly) -> str:
    """JSON list of {"type": [m2, m3, ...], "coeff": "<int>"} in print order."""
    return json.dumps([{"type": to_counts(m), "coeff": str(c)} for m, c in print_order(p)])


def table_json(rows) -> str:
    """(label, LayeredPoly) table rows built as dicts and written by json.dumps, one line."""
    table = [{"row": label,
              "terms": [{"type": to_counts(m), "coeff": str(c)} for m, c in print_order(p)]}
             for label, p in rows]
    return json.dumps(table) + "\n"


def poly_from_json(text: str) -> LayeredPoly:
    """Inverse of poly_to_json; repeated types add up."""
    out: dict[TypeVector, int] = {}
    for row in json.loads(text):
        m = TypeVector.from_counts(row["type"])
        out[m] = out.get(m, 0) + int(row["coeff"])
    return LayeredPoly(out)
