"""Subdigons by type, as words: exhaustive enumeration and the count.

A subdigon is either null (two vertices, one edge, no faces) or a
central (k+1)-gon with k >= 2 ordered subdigon children glued
roof-to-side: a plane tree with no unary node.  Its word is the arity
of each node in preorder, so the null subdigon is (0,) and a single
triangle (2, 0, 0).  Those words are exactly the Raney lists of one
word over the composition (0, m), so ``subdigons_text`` is
``raney.lists_text(1, Composition(0, m))``: one word per line, in
lexicographic order and ``raney.format_string`` form (``serialize``),
digits, or commas between the symbols when an arity is above 9.  One
memo keeps the finished text of each type a caller asked for.
``to_json`` gives its JSON list, and ``enumerate_subdigons`` its
split.  The enumeration is the brute-force oracle for the closed form
C_m, which ``count_subdigons`` returns.
"""

from __future__ import annotations

from functools import lru_cache

from .core import DEFAULT_FACE_CAP, Composition, TypeVector, hyper_catalan
from .raney import format_string as serialize, lists_text


@lru_cache(maxsize=None)
def _listing(m: TypeVector) -> str:
    """The listing of type m: the Raney lists of one word over (0, m)."""
    return lists_text(1, Composition(0, m))


def subdigons_text(m: TypeVector, face_cap: int = DEFAULT_FACE_CAP) -> str:
    """The word (``serialize`` form) of every subdigon of type m exactly once, one per line.

    Lexicographic order; the memo's string itself, no copy.
    """
    if m.faces() > face_cap:
        raise ValueError(f"face count {m.faces()} exceeds cap {face_cap}")
    return _listing(m)


def enumerate_subdigons(m: TypeVector, face_cap: int = DEFAULT_FACE_CAP) -> list[str]:
    """The lines of ``subdigons_text``: every subdigon word of type m."""
    return subdigons_text(m, face_cap).split("\n")


def count_subdigons(m: TypeVector) -> int:
    """|enumerate_subdigons(m)|: C_m by its closed form (Wildberger-Rubine), no enumeration."""
    return hyper_catalan(m)


def to_json(text: str) -> tuple[str, str, str]:
    """``json.dumps`` of the words in ``subdigons_text``'s text, as pieces to write in order.

    A word holds only digits and commas, so nothing needs escaping:
    the list is the text with every newline replaced by ``", "``,
    between ``["`` and ``"]``.
    """
    return '["', text.replace("\n", '", "'), '"]'
