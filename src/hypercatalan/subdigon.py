"""Plane trees, of which subdigons are the trees without unary nodes.

A plane tree is a rooted ordered tree; the arity of a node is its
number of children.  A subdigon is either null (two vertices, one edge,
no faces; the leaf) or a central (k+1)-gon with k >= 2 ordered subdigon
children glued roof-to-side, so it is the plane tree with no unary
node.  The preorder arities of a tree form its Raney word (``to_word``);
``group_trees`` is the one iterative pass that reads words back into
trees.  This module enumerates subdigons exhaustively by type, serving
as the brute-force oracle for the closed-form counts, and serializes
them in the same digit form as their words.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import TypeVector, VEF, unit_type
from .series import LayeredPoly


@dataclass(frozen=True, slots=True)
class PlaneTree:
    """Rooted ordered tree: a leaf when children is empty."""

    children: tuple[PlaneTree, ...] = ()

    def __repr__(self):
        return f"PlaneTree({serialize(self)!r})"


NULL = PlaneTree()


def panel(k: int, children) -> PlaneTree:
    """Glue k ordered subdigons to a central (k+1)-gon."""
    children = tuple(children)
    if k < 2:
        raise ValueError(f"panel arity {k} < 2")
    if len(children) != k:
        raise ValueError(f"expected {k} children, got {len(children)}")
    return PlaneTree(children)


def check_subdigon(t: PlaneTree) -> PlaneTree:
    """t itself when no node is unary, i.e. when t is a subdigon."""
    if 1 in to_word(t):
        raise ValueError("unary node has no subdigon counterpart")
    return t


def to_word(t: PlaneTree) -> tuple[int, ...]:
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
        raise ParseError("unexpected end of input", len(word))
    if len(items) > 1:
        raise ParseError("trailing input", items[1][0])
    return items[0][1]


def central_arity(s: PlaneTree) -> int | None:
    """Arity of the root panel, None for the null subdigon."""
    return len(s.children) if s.children else None


def type_of(s: PlaneTree) -> TypeVector:
    """m_k = number of panels of arity k anywhere in s."""
    return TypeVector.of(Counter(k for k in to_word(s) if k))


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


def _sub_vectors(m: TypeVector) -> list[TypeVector]:
    """All type vectors s with 0 <= s_k <= m_k entrywise."""
    ks = [k for k, _ in m.items()]
    ranges = [range(mk + 1) for _, mk in m.items()]
    return [
        TypeVector.of(zip(ks, picks)) for picks in itertools.product(*ranges)
    ]


@lru_cache(maxsize=None)
def _splits(m: TypeVector, parts: int) -> tuple[tuple[TypeVector, ...], ...]:
    """All ordered tuples of `parts` type vectors summing to m."""
    if parts == 0:
        return ((),) if not m else ()
    if parts == 1:
        return ((m,),)
    out = []
    for first in _sub_vectors(m):
        for rest in _splits(m - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _enumerate(m: TypeVector) -> tuple[PlaneTree, ...]:
    if not m:
        return (NULL,)
    out = []
    for r, mr in m.items():
        remaining = m - unit_type(r)
        for split in _splits(remaining, r):
            child_lists = [_enumerate(part) for part in split]
            for children in itertools.product(*child_lists):
                out.append(PlaneTree(children))
    return tuple(out)


DEFAULT_FACE_CAP = 8


def enumerate_subdigons(m: TypeVector, face_cap: int = DEFAULT_FACE_CAP) -> list[PlaneTree]:
    """Every subdigon of type m exactly once, in deterministic order.

    Splits on the central polygon first; uniqueness of that
    decomposition rules out double counting.
    """
    if m.faces() > face_cap:
        raise ValueError(f"face count {m.faces()} exceeds cap {face_cap}")
    return list(_enumerate(m))


@lru_cache(maxsize=None)
def _count(m: TypeVector) -> int:
    if not m:
        return 1
    total = 0
    for r, _ in m.items():
        total += _count_tuple(m - unit_type(r), r)
    return total


@lru_cache(maxsize=None)
def _count_tuple(m: TypeVector, parts: int) -> int:
    """Ordered tuples of `parts` subdigons with types summing to m."""
    if parts == 0:
        return 0 if m else 1
    if parts == 1:
        return _count(m)
    total = 0
    for first in _sub_vectors(m):
        c = _count(first)
        if c:
            total += c * _count_tuple(m - first, parts - 1)
    return total


def count_subdigons(m: TypeVector) -> int:
    """|enumerate_subdigons(m)| via the same recursion, memoized, no materialization."""
    return _count(m)


def psi_sum(subdigons) -> LayeredPoly:
    """Sum of accounting monomials t^type over a multiset of subdigons."""
    acc: dict[TypeVector, int] = {}
    for s in subdigons:
        m = type_of(s)
        acc[m] = acc.get(m, 0) + 1
    return LayeredPoly(acc)


def serialize(s: PlaneTree) -> str:
    """Digit form of the subdigon's plane-tree word; arities above 9 bracketed."""
    if not s.children:
        return "0"
    k = len(s.children)
    head = str(k) if k <= 9 else f"[{k}]"
    return head + "".join(serialize(c) for c in s.children)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _token(text: str, pos: int) -> tuple[int, int]:
    """(arity, end) of the token at pos: a decimal digit or a bracketed number."""
    ch, end = text[pos], pos + 1
    if ch == "[":
        close = text.find("]", pos)
        if close < 0:
            raise ParseError("unterminated bracket", pos)
        digits = text[pos + 1 : close]
        if not digits.isdecimal():
            raise ParseError(f"bad arity {digits!r}", pos)
        k, end = int(digits), close + 1
    elif ch.isdecimal():
        k = int(ch)
    else:
        raise ParseError(f"unexpected character {ch!r}", pos)
    if k < 2 and ch != "0":
        raise ParseError(f"panel arity {k} < 2", end - 1)
    return k, end


def parse(text: str) -> PlaneTree:
    """Inverse of serialize: the tokens left to right, then ``from_word``."""
    starts: list[int] = []
    word: list[int] = []
    pos = 0
    while pos < len(text):
        starts.append(pos)
        k, pos = _token(text, pos)
        word.append(k)
    try:
        return from_word(word)
    except ParseError as exc:
        if exc.position < len(word):
            raise ParseError("trailing input", starts[exc.position]) from None
        raise ParseError("unexpected end of input", len(text)) from None


def to_json(subdigons) -> str:
    return json.dumps([serialize(s) for s in subdigons])
