"""Raney strings: rank, word recognition, rotations and identification.

A string is a finite sequence of naturals; its rank is the sum of
(symbol - 1).  A word is a single 0 or a symbol n > 0 followed by n
words.  Every string of rank -n has exactly n cyclic rotations that
split into n words; the identification algorithm finds those words in
place by repeatedly grouping a symbol i with the i identified words
following it.  An identified word is a plane tree whose preorder
arities are its symbols (``subdigon.to_word``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Composition
from .subdigon import NULL, PlaneTree

Symbols = tuple[int, ...]


def parse_string(text: str) -> Symbols:
    """Whitespace/comma-separated naturals, or compact digit form."""
    text = text.strip()
    if not text:
        return ()
    if any(ch in text for ch in ", \t"):
        parts = text.replace(",", " ").split()
        return tuple(int(p) for p in parts)
    if not text.isdigit():
        raise ValueError(f"not a digit string: {text!r}")
    return tuple(int(ch) for ch in text)


def format_string(sigma: Sequence[int]) -> str:
    """Compact digit form when possible, else comma-separated."""
    if all(0 <= a <= 9 for a in sigma):
        return "".join(str(a) for a in sigma)
    return ",".join(str(a) for a in sigma)


def rank(sigma: Sequence[int]) -> int:
    return sum(a - 1 for a in sigma)


def _consume_word(sigma: Sequence[int], i: int) -> int | None:
    """Index just past the word starting at i, or None."""
    if i >= len(sigma):
        return None
    head = sigma[i]
    if head == 0:
        return i + 1
    j = i + 1
    for _ in range(head):
        j = _consume_word(sigma, j)
        if j is None:
            return None
    return j


def is_word(sigma: Sequence[int]) -> bool:
    """Recursive grammar: a single 0, or n > 0 followed by n words."""
    return _consume_word(sigma, 0) == len(sigma) and len(sigma) > 0


def is_word_prefix_criterion(sigma: Sequence[int]) -> bool:
    """Rank -1 with no proper prefix of negative rank."""
    if not sigma:
        return False
    cum = 0
    for a in sigma[:-1]:
        cum += a - 1
        if cum < 0:
            return False
    return cum + sigma[-1] - 1 == -1


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


def is_word_list(sigma: Sequence[int], n: int) -> bool:
    """True iff sigma is a concatenation of exactly n words.

    Rank criterion: rank -n with no proper prefix of rank <= -n.
    """
    if n < 1:
        raise ValueError(f"word count {n} < 1")
    if not sigma:
        return False
    cum = 0
    for a in sigma[:-1]:
        cum += a - 1
        if cum <= -n:
            return False
    return cum + sigma[-1] - 1 == -n


def rotate(sigma: Sequence[int], offset: int) -> Symbols:
    offset %= len(sigma)
    return tuple(sigma[offset:]) + tuple(sigma[:offset])


def list_rotations(sigma: Sequence[int]) -> set[int]:
    """Offsets whose rotation is a list of n words, n = -rank(sigma)."""
    n = -rank(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    offsets = {off for off in range(len(sigma)) if is_word_list(rotate(sigma, off), n)}
    if len(offsets) != n:
        raise ArithmeticError(f"expected {n} rotations, found {len(offsets)}")
    return offsets


def render(t: PlaneTree) -> str:
    """Bracketed form of an identified word: 0, or (i w_1 ... w_i)."""
    if not t.children:
        return "0"
    return "(" + str(len(t.children)) + "".join(render(c) for c in t.children) + ")"


@dataclass
class _Item:
    start: int
    symbol: int
    word: PlaneTree | None  # None while unidentified

    @property
    def identified(self) -> bool:
        return self.word is not None


@dataclass(frozen=True)
class Bracketing:
    """Result of running the identification algorithm."""

    symbols: Symbols
    items: tuple[tuple[int, int, PlaneTree | None], ...]  # (start, symbol, word?)

    @property
    def complete(self) -> bool:
        return all(w is not None for _, _, w in self.items)

    @property
    def words(self) -> list[PlaneTree]:
        if not self.complete:
            raise ValueError("identification incomplete: unidentified symbols remain")
        return [w for _, _, w in self.items]

    def render_words(self) -> list[str]:
        return [render(w) for w in self.words]


def identify_words(sigma: Sequence[int], cyclic: bool = True) -> Bracketing:
    """Group every symbol i > 0 with the i identified words after it.

    Repeats until no move exists.  On a cyclic string of rank -n this
    always terminates with exactly n identified words; the rank
    invariant sum (k-1) m_k is preserved by every move.
    """
    sigma = tuple(sigma)
    n = -rank(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    items = [
        _Item(i, a, NULL if a == 0 else None) for i, a in enumerate(sigma)
    ]
    moved = True
    while moved:
        moved = False
        for idx in range(len(items)):
            it = items[idx]
            if it.identified:
                continue
            need = it.symbol
            limit = len(items) - 1 if cyclic else len(items) - 1 - idx
            if need > limit:
                continue
            followers = [items[(idx + j) % len(items)] for j in range(1, need + 1)]
            if all(f.identified for f in followers):
                it.word = PlaneTree(tuple(f.word for f in followers))
                drop = {id(f) for f in followers}
                items = [x for x in items if id(x) not in drop]
                moved = True
                break
    items.sort(key=lambda x: x.start)
    return Bracketing(sigma, tuple((x.start, x.symbol, x.word) for x in items))


def enumerate_lists(n: int, c: Composition) -> list[Symbols]:
    """All multiset permutations of the composition that are n-word lists.

    Lexicographic order; prefixes whose rank already reaches -n are
    pruned, which is exactly the failing half of the rank criterion.
    """
    if n < 1:
        raise ValueError(f"word count {n} < 1")
    total = c.length(n)
    avail = {0: c.zeros(n), 1: c.m1}
    for k, mk in c.tail.items():
        avail[k] = mk
    symbols = sorted(k for k, v in avail.items() if v > 0)
    out: list[Symbols] = []
    prefix: list[int] = []

    def extend(cum: int):
        pos = len(prefix)
        if pos == total:
            out.append(tuple(prefix))
            return
        for a in symbols:
            if avail[a] == 0:
                continue
            new = cum + a - 1
            if new <= -n and pos + 1 < total:
                continue  # proper prefix already at rank -n
            avail[a] -= 1
            prefix.append(a)
            extend(new)
            prefix.pop()
            avail[a] += 1

    extend(0)
    return out


def word_to_tree(sigma: Sequence[int]) -> PlaneTree:
    """The plane tree whose preorder arities are sigma."""
    sigma = tuple(sigma)
    if not is_word(sigma):
        raise ValueError(f"not a word: {format_string(sigma)}")

    def build(i: int) -> tuple[PlaneTree, int]:
        head = sigma[i]
        kids = []
        j = i + 1
        for _ in range(head):
            kid, j = build(j)
            kids.append(kid)
        return PlaneTree(tuple(kids)), j

    tree, _ = build(0)
    return tree
