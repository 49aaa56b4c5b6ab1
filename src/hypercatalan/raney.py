"""Raney strings: rank, word recognition, rotations and identification.

A string is a finite sequence of naturals; its rank is the sum of
(symbol - 1).  A word is a single 0 or a symbol n > 0 followed by n
words.  Every string of rank -n has exactly n cyclic rotations that
split into n words; the identification algorithm finds those words in
place by grouping a symbol i with the i identified words following it
(``group_words``).  Those i words are adjacent, so an identified word is
a contiguous slice of the string: its symbols are the preorder arities
of a plane tree, and no tree object is built.  ``lists_text`` lists the
n-word lists of a composition as one newline-joined text, grown from
blocks of suffix text by ``str.replace``; ``enumerate_lists`` is its
split.  ``format_string`` is the text form of a string, and
``rotations_text`` writes every list rotation of a string in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import Composition

Symbols = tuple[int, ...]


def parse_string(text: str) -> Symbols:
    """Whitespace/comma-separated naturals, or compact digit form, in ASCII digits 0-9."""
    text = text.strip()
    if not text:
        return ()
    if any(ch in text for ch in ", \t"):
        parts = text.replace(",", " ").split()
        for p in parts:
            if not (p.isascii() and p.isdigit()):
                if p[:1] == "-" and p[1:].isascii() and p[1:].isdigit() and int(p) < 0:
                    raise ValueError(f"negative symbol {int(p)}")
                raise ValueError(f"bad symbol {p!r}")
        return tuple(map(int, parts))
    if not (text.isascii() and text.isdigit()):  # str.isdigit alone admits '²' and '٣'
        raise ValueError(f"not a digit string: {text!r}")
    return tuple(map(int, text))


def _separator(symbols: Sequence[int]) -> str:
    """What ``format_string`` writes between symbols: nothing if all are digits, else a comma."""
    return "" if all(0 <= a <= 9 for a in symbols) else ","


def format_string(sigma: Sequence[int]) -> str:
    """Compact digit form when possible, else comma-separated."""
    return _separator(sigma).join(map(str, sigma))


def rank(sigma: Sequence[int]) -> int:
    return sum(sigma) - len(sigma)


def group_words(sigma: Sequence[int]) -> list[tuple[int, int | None]]:
    """Group each symbol k >= 0 with the k words right after it, right to left.

    Returns (start, end or None) for every item left, leftmost first: an
    identified word is sigma[start:end], and None marks a symbol that found
    fewer than k words after it (or k < 0).
    """
    starts: list[int] = []  # the items so far, rightmost first
    ends: list[int | None] = []
    run = 0  # identified words at the end of the lists
    for i in range(len(sigma) - 1, -1, -1):
        k = sigma[i]
        if 0 <= k <= run:
            cut = len(ends) - k
            end = ends[cut] if k else i + 1  # a word ends where its last child does
            del ends[cut:], starts[cut:]
            run += 1 - k
        else:
            end, run = None, 0
        ends.append(end)
        starts.append(i)
    return list(zip(reversed(starts), reversed(ends)))


def is_word(sigma: Sequence[int]) -> bool:
    """Grammar: the symbols group into exactly one word."""
    items = group_words(sigma)
    return len(items) == 1 and items[0][1] is not None


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
    """Offsets whose rotation is a list of n words, n = -rank(sigma).

    Cycle lemma, in one pass over the prefix ranks P(0..len-1): offset i
    qualifies iff P(i) is below every earlier P (a new minimum) and
    P(i) - n is below every later one, i.e. P(i) < min(P) + n.
    """
    n = -rank(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    prefix = list(accumulate((a - 1 for a in sigma[:-1]), initial=0))
    bound = min(prefix) + n
    offsets, low = set(), 1
    for i, p in enumerate(prefix):
        if p < low:
            low = p
            if p < bound:
                offsets.add(i)
    if len(offsets) != n:
        raise ArithmeticError(f"expected {n} rotations, found {len(offsets)}")
    return offsets


def rotations_text(sigma: Sequence[int]) -> str:
    """Each offset of ``list_rotations``, ascending, and its rotation in ``format_string`` form.

    One ``"offset: rotation"`` line per offset; the symbol texts are
    made once and every rotation is sliced from them.
    """
    texts, sep = list(map(str, sigma)), _separator(sigma)
    return "\n".join(f"{off}: {sep.join(texts[off:] + texts[:off])}"
                     for off in sorted(list_rotations(sigma)))


def render(word: Sequence[int]) -> str:
    """Bracketed form of an identified word: 0, or (i w_1 ... w_i)."""
    out, due = [], []  # due: children still due inside each open bracket
    for k in word:
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
    items: tuple[tuple[int, Symbols | None], ...]  # (start, word?); symbols[start] heads it

    @property
    def complete(self) -> bool:
        return all(w is not None for _, w in self.items)

    @property
    def words(self) -> list[Symbols]:
        if not self.complete:
            raise ValueError("identification incomplete: unidentified symbols remain")
        return [w for _, w in self.items]

    def render_words(self) -> list[str]:
        return [render(w) for w in self.words]


def identify_words(sigma: Sequence[int], cyclic: bool = True) -> Bracketing:
    """Group every symbol i >= 0 with the i identified words after it.

    Moves commute, so any order of moves ends in the same bracketing.
    Linear: one pass of ``group_words``.  Cyclic: the rotation starting
    at the first minimum of the prefix rank is a list of n words (cycle
    lemma), so one pass over it identifies n words, each a slice of that
    rotation, whose starts are mapped back onto sigma.
    """
    sigma = tuple(sigma)
    n = -rank(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    offset = 0
    if cyclic:
        prefix = list(accumulate((a - 1 for a in sigma[:-1]), initial=0))
        offset = prefix.index(min(prefix))
    rotated = rotate(sigma, offset)
    items = sorted(
        ((i + offset) % len(sigma), None if end is None else rotated[i:end])
        for i, end in group_words(rotated)
    )
    return Bracketing(sigma, tuple(items))


def lists_text(n: int, c: Composition) -> str:
    """Every multiset permutation of the composition that is an n-word list.

    One list per line, in lexicographic order and ``format_string`` form.
    Suffix form of the rank criterion: a string of rank -n is a list of
    n words iff every nonempty suffix has negative rank.  So the lists
    are built bottom-up, one length at a time, from the valid suffixes
    over each sub-multiset of negative rank, starting from the one
    suffix of length 1, "0".  A sub-multiset's suffixes are one block of
    text, each line after a newline, so putting a symbol before every
    line of a block is one ``str.replace``; a sub-multiset's block joins
    once the blocks grown by each symbol a it holds, in ascending order
    of a, from the suffixes over the rest.  Only the previous length's
    table is kept, keyed by the count of each symbol.
    """
    if n < 1:
        raise ValueError(f"word count {n} < 1")
    avail = {0: c.zeros(n), 1: c.m1, **dict(c.tail.items())}
    symbols = sorted(k for k, v in avail.items() if v > 0)  # 0 first: c.zeros(n) >= n
    full = tuple(avail[a] for a in symbols)
    sep = _separator(symbols)  # written after every symbol but the last 0
    heads = [f"\n{a}{sep}" for a in symbols]
    layer = {(1,) + (0,) * (len(symbols) - 1): (-1, ["\n0"])}  # counts -> (rank, blocks)
    for _ in range(sum(full) - 1):
        below, layer = {key: (r, "".join(blocks)) for key, (r, blocks) in layer.items()}, {}
        for i, a in enumerate(symbols):
            for key, (r, block) in below.items():
                if key[i] < full[i] and r + a - 1 < 0:
                    grown = key[:i] + (key[i] + 1,) + key[i + 1 :]
                    entry = layer.setdefault(grown, (r + a - 1, []))
                    entry[1].append(block.replace("\n", heads[i]))
        del below  # its text lives on in layer's copies; drop it before the next join
    blocks = layer.pop(full)[1]
    blocks[0] = blocks[0][1:]  # no newline before the first list
    return "".join(blocks)


def enumerate_lists(n: int, c: Composition) -> list[str]:
    """The lines of ``lists_text``: every n-word list of the composition."""
    return lists_text(n, c).split("\n")
