"""Raney strings: rank, word recognition, rotations and identification.

A string is a finite sequence of naturals; its rank is the sum of
(symbol - 1).  A word is a single 0 or a symbol n > 0 followed by n
words.  Every string of rank -n has exactly n cyclic rotations that
split into n words; the identification algorithm finds those words in
place by grouping a symbol i with the i identified words following it
(``subdigon.group_trees``).  An identified word is a plane tree whose
preorder arities are its symbols (``subdigon.to_word``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import Composition
from .subdigon import PlaneTree, group_trees, to_word

Symbols = tuple[int, ...]


def parse_string(text: str) -> Symbols:
    """Whitespace/comma-separated naturals, or compact digit form."""
    text = text.strip()
    if not text:
        return ()
    if any(ch in text for ch in ", \t"):
        symbols = tuple(int(p) for p in text.replace(",", " ").split())
        negative = [a for a in symbols if a < 0]
        if negative:
            raise ValueError(f"negative symbol {negative[0]}")
        return symbols
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


def is_word(sigma: Sequence[int]) -> bool:
    """Grammar: the symbols group into exactly one tree, as ``from_word`` needs."""
    items = group_trees(sigma)
    return len(items) == 1 and items[0][1] is not None


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
    out, due = [], []  # due: children still due inside each open bracket
    for k in to_word(t):
        out.append(f"({k}" if k else "0")
        if k:
            due.append(k)
            continue
        while due:  # a leaf may finish its parent, which may finish its own
            due[-1] -= 1
            if due[-1]:
                break
            due.pop()
            out.append(")")
    return "".join(out)


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
    """Group every symbol i >= 0 with the i identified words after it.

    Moves commute, so any order of moves ends in the same bracketing.
    Linear: one pass of ``subdigon.group_trees``.  Cyclic: the rotation
    starting at the first minimum of the prefix rank is a list of n
    words (cycle lemma), so one pass over it identifies n words, whose
    starts are mapped back onto sigma.
    """
    sigma = tuple(sigma)
    n = -rank(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    offset = 0
    if cyclic:
        prefix = list(accumulate((a - 1 for a in sigma[:-1]), initial=0))
        offset = prefix.index(min(prefix))
    items = sorted(((i + offset) % len(sigma), t) for i, t in group_trees(rotate(sigma, offset)))
    return Bracketing(sigma, tuple((i, sigma[i], t) for i, t in items))


def enumerate_lists(n: int, c: Composition) -> list[Symbols]:
    """All multiset permutations of the composition that are n-word lists.

    Lexicographic order; prefixes whose rank already reaches -n are
    pruned, which is exactly the failing half of the rank criterion.
    An explicit stack, so long lists do not recurse; once the last
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
            # zeros keep every proper prefix above -n
            out.append((*prefix, a, *(0,) * avail[0]))
            continue
        avail[a] -= 1
        prefix.append(a)
        cum += a - 1
        stack.append(iter(symbols))
    return out
