"""Plane trees, of which subdigons are the trees without unary nodes.

A plane tree is a rooted ordered tree; the arity of a node is its
number of children.  A subdigon is either null (two vertices, one edge,
no faces; the leaf) or a central (k+1)-gon with k >= 2 ordered subdigon
children glued roof-to-side, so it is the plane tree with no unary
node.  The preorder arities of a tree form its Raney word (``to_word``);
``group_trees`` is the one iterative pass that reads words back into
trees.  This module enumerates subdigons exhaustively by type, as
words in the digit form of ``serialize`` (built once per type and
memoized on plain count tuples); the enumeration is the brute-force
oracle for the closed form C_m, which ``count_subdigons`` returns.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from .core import TypeVector, hyper_catalan


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


def type_of(s: PlaneTree) -> TypeVector:
    """m_k = number of panels of arity k anywhere in s."""
    return TypeVector.of(Counter(k for k in to_word(s) if k))


Counts = tuple[int, ...]  # (m2, m3, ...) with no trailing zero: the memo key of a type


def _key(counts: Counts) -> Counts:
    """counts with its trailing zeros stripped."""
    end = len(counts)
    while end and not counts[end - 1]:
        end -= 1
    return counts[:end]


def _halves(m: Counts) -> list[tuple[Counts, Counts]]:
    """Every (s, m - s) with 0 <= s_k <= m_k entrywise, s in lexicographic order."""
    return [
        (_key(s), _key(tuple(map(sub, m, s))))
        for s in itertools.product(*(range(mk + 1) for mk in m))
    ]


@lru_cache(maxsize=None)
def _splits(m: Counts, parts: int) -> tuple[tuple[Counts, ...], ...]:
    """All ordered tuples of `parts` count tuples summing to m."""
    if parts == 0:
        return ((),) if not m else ()
    if parts == 1:
        return ((m,),)
    out = []
    for first, left in _halves(m):
        for rest in _splits(left, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def _unit_minus(m: Counts, r: int) -> Counts:
    """m less one (r+1)-gon."""
    return _key(m[: r - 2] + (m[r - 2] - 1,) + m[r - 1 :])


@lru_cache(maxsize=None)
def _enumerate(m: Counts) -> tuple[str, ...]:
    """The words of every subdigon of type m, central polygon first.

    A word is the root arity (``_digits``) followed by the words of its
    children, so each type's words are built once and every parent
    concatenates them.
    """
    if not m:
        return ("0",)
    out = []
    for r, mr in enumerate(m, start=2):
        if not mr:
            continue
        head = _digits(r)
        for split in _splits(_unit_minus(m, r), r):
            children = itertools.product(*map(_enumerate, split))
            out += [head + "".join(words) for words in children]
    return tuple(out)


DEFAULT_FACE_CAP = 8


def enumerate_subdigons(m: TypeVector, face_cap: int = DEFAULT_FACE_CAP) -> list[str]:
    """The word (``serialize`` form) of every subdigon of type m exactly once.

    Deterministic order: split on the central polygon first; uniqueness
    of that decomposition rules out double counting.  ``parse`` turns a
    word back into its tree.
    """
    if m.faces() > face_cap:
        raise ValueError(f"face count {m.faces()} exceeds cap {face_cap}")
    return list(_enumerate(tuple(m.to_counts())))


def count_subdigons(m: TypeVector) -> int:
    """|enumerate_subdigons(m)|: C_m by its closed form (Wildberger-Rubine), no enumeration."""
    return hyper_catalan(m)


def _digits(k: int) -> str:
    """One arity in serialized form: its digit, bracketed above 9."""
    return str(k) if k <= 9 else f"[{k}]"


def serialize(s: PlaneTree) -> str:
    """Digit form of the subdigon's plane-tree word; arities above 9 bracketed."""
    return "".join(map(_digits, to_word(s)))


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


def to_json(words) -> str:
    """JSON list of subdigon words, as ``enumerate_subdigons`` returns them."""
    return json.dumps(list(words))
