"""Subdigons by type, as words: exhaustive enumeration and the count.

A subdigon is either null (two vertices, one edge, no faces) or a
central (k+1)-gon with k >= 2 ordered subdigon children glued
roof-to-side: a plane tree with no unary node.  Its word is the arity
of each node in preorder, so the null subdigon is (0,) and a single
triangle (2, 0, 0).  This module enumerates the subdigons of a type as
words in the digit form of ``serialize``, built once per type and
memoized on plain count tuples as one newline-joined string, so the
memo holds one object per type rather than one per word.
``subdigons_text`` returns that string itself, for a listing to write
as it stands, ``to_json`` its JSON list, and ``enumerate_subdigons``
its split.  The enumeration
is the brute-force oracle for the closed form C_m, which
``count_subdigons`` returns.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import sub
from typing import Sequence

from .core import TypeVector, hyper_catalan


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
def _enumerate(m: Counts) -> str:
    """The words of every subdigon of type m, central polygon first, one per line.

    A word is the root arity (``_digits``) followed by the words of its
    children, so each type's words are built once and every parent
    concatenates them.  The memo keeps one newline-joined string per
    type, not one object per word; a build splits each child type's
    string once, shares the lists among its splits and joins each
    split's words into one block as it makes them.
    """
    if not m:
        return "0"
    blocks = []
    child_words: dict[Counts, list[str]] = {}
    for r, mr in enumerate(m, start=2):
        if not mr:
            continue
        head = (_digits(r),)
        for split in _splits(_unit_minus(m, r), r):
            for t in split:
                if t not in child_words:
                    child_words[t] = _enumerate(t).split("\n")
            words = itertools.product(head, *map(child_words.__getitem__, split))
            blocks.append("\n".join(map("".join, words)))
    return "\n".join(blocks)


DEFAULT_FACE_CAP = 8


def subdigons_text(m: TypeVector, face_cap: int = DEFAULT_FACE_CAP) -> str:
    """The word (``serialize`` form) of every subdigon of type m exactly once, one per line.

    The memo's string itself, no copy.  Deterministic order: split on
    the central polygon first; uniqueness of that decomposition rules
    out double counting.
    """
    if m.faces() > face_cap:
        raise ValueError(f"face count {m.faces()} exceeds cap {face_cap}")
    return _enumerate(tuple(m.to_counts()))


def enumerate_subdigons(m: TypeVector, face_cap: int = DEFAULT_FACE_CAP) -> list[str]:
    """The lines of ``subdigons_text``: every subdigon word of type m."""
    return subdigons_text(m, face_cap).split("\n")


def count_subdigons(m: TypeVector) -> int:
    """|enumerate_subdigons(m)|: C_m by its closed form (Wildberger-Rubine), no enumeration."""
    return hyper_catalan(m)


def _digits(k: int) -> str:
    """One arity in serialized form: its digit, bracketed above 9."""
    return str(k) if k <= 9 else f"[{k}]"


def serialize(word: Sequence[int]) -> str:
    """Digit form of a subdigon's word; arities above 9 bracketed."""
    return "".join(map(_digits, word))


def to_json(text: str) -> tuple[str, str, str]:
    """``json.dumps`` of the words in ``subdigons_text``'s text, as pieces to write in order.

    A word holds only digits and brackets, so nothing needs escaping:
    the list is the text with every newline replaced by ``", "``,
    between ``["`` and ``"]``.
    """
    return '["', text.replace("\n", '", "'), '"]'
