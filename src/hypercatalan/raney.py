"""Raney strings: rank, word recognition, rotations and identification.

A string is a finite sequence of naturals; its rank is the sum of
(symbol - 1).  A word is a single 0 or a symbol n > 0 followed by n
words.  Every string of rank -n has exactly n cyclic rotations that
split into n words (cycle lemma).  ``is_word_list``, ``list_rotations``
and ``identify_words`` share one domain check (``_word_count``): a
negative symbol is a ValueError, as ``parse_string`` words it, and the
last two also need n >= 1 (``_list_count``).  The prefix ranks of such a string fall by
at most 1 per symbol, so they pass every value from 0 down to their
minimum m, and the list rotations start where they first reach
m + n - 1, ..., m; the word started at one of those offsets ends at the
next (``_list_starts``).  So ``list_rotations`` and cyclic
``identify_words`` cut the string with ``list.index`` on one list of
prefix ranks, and ``rotations_text`` slices each rotation from one text
of the string.  ``group_words`` groups a symbol i with the i identified
words following it and reports the symbols left unidentified; linear
identification and the grammar ``is_word`` are that one pass, over any
ints.  An identified word is a contiguous slice of the string: its
symbols are the preorder arities of a plane tree, and no tree object is
built.  ``lists_text`` lists the n-word lists of a composition as one
newline-joined text, met in the middle: a table of suffix blocks, grown
by ``str.replace`` up to h symbols short of full length, and the
first h symbols as prefixes in lexicographic order, each adding one
block by one more replace.  ``list_blocks`` yields those blocks, so the
CLI writes them as they come; ``enumerate_lists`` is the split of the
text.  ``format_string`` is the text form of a string.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul, sub
from typing import Iterator, Sequence

from .core import Composition

Symbols = tuple[int, ...]

_DECODE = bytes.maketrans(b"0123456789", bytes(range(10)))  # digit characters -> symbols
_ENCODE = bytes.maketrans(bytes(range(10)), b"0123456789")


def parse_string(text: str) -> Symbols:
    """Whitespace/comma-separated naturals, or compact digit form, in ASCII digits 0-9.

    Text with a comma, or with whitespace that str.split splits on, is the separated form;
    an empty comma field there is a bad symbol ''.
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text or len(text.split(maxsplit=1)) > 1:
        parts = [p for field in text.split(",") for p in field.split() or [""]]
        for p in parts:
            if not (p.isascii() and p.isdigit()):
                if p[:1] == "-" and p[1:].isascii() and p[1:].isdigit() and int(p) < 0:
                    raise ValueError(f"negative symbol {int(p)}")
                raise ValueError(f"bad symbol {p!r}")
        return tuple(map(int, parts))
    if not (text.isascii() and text.isdigit()):  # str.isdigit alone admits '²' and '٣'
        raise ValueError(f"not a digit string: {text!r}")
    return tuple(text.encode().translate(_DECODE))


def _separator(symbols: Sequence[int]) -> str:
    """What ``format_string`` writes between symbols: nothing if all are digits, else a comma."""
    return "" if max(symbols, default=0) <= 9 else ","


def format_string(sigma: Sequence[int]) -> str:
    """Compact digit form when possible, else comma-separated."""
    if _separator(sigma):
        return ",".join(map(str, sigma))
    return bytes(sigma).translate(_ENCODE).decode()


def rank(sigma: Sequence[int]) -> int:
    return sum(sigma) - len(sigma)


def _prefix_ranks(sigma: Sequence[int]) -> list[int]:
    """P(0..len-1): the rank of each proper prefix of a nonempty sigma, the empty one first."""
    return list(accumulate(map(sub, sigma[:-1], repeat(1)), initial=0))


def _word_count(sigma: Sequence[int]) -> int:
    """n = -rank(sigma) of a string of naturals, the domain of the cycle lemma.

    The one domain check: a negative symbol is a ValueError, worded as
    ``parse_string`` words it.
    """
    low = min(sigma, default=0)
    if low < 0:
        raise ValueError(f"negative symbol {low}")
    return len(sigma) - sum(sigma)


def _list_count(sigma: Sequence[int]) -> int:
    """``_word_count`` of a string with list rotations: a rank >= 0 is a ValueError."""
    n = _word_count(sigma)
    if n < 1:
        raise ValueError(f"rank {-n} is not negative")
    return n


def _list_starts(sigma: Sequence[int], n: int) -> list[int]:
    """The offsets of the n rotations of sigma that are lists of n words, ascending.

    sigma is a string of naturals of rank -n (``_list_count``), so its prefix
    ranks P pass every value from 0 down to their minimum m, and the offsets
    are where P first reaches m + n - 1, ..., m (a strict prefix minimum below
    m + n).
    """
    prefix = _prefix_ranks(sigma)
    low = min(prefix)
    starts, at = [], 0
    for value in range(low + n - 1, low - 1, -1):
        at = prefix.index(value, at)
        starts.append(at)
    return starts


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
    return _word_count(sigma) == n and min(_prefix_ranks(sigma)) > -n


def list_rotations(sigma: Sequence[int]) -> set[int]:
    """Offsets whose rotation is a list of n words, n = -rank(sigma): ``_list_starts``."""
    return set(_list_starts(sigma, _list_count(sigma)))


def rotations_text(sigma: Sequence[int]) -> str:
    """Each offset of ``list_rotations``, ascending, and its rotation in ``format_string`` form.

    One ``"offset: rotation"`` line per offset.  The text of sigma is made
    once, and each rotation is one slice of that text twice over, cut where
    the offset's symbol starts: character i in the digit form, after the i
    symbols and commas before it in the comma form.
    """
    offsets = sorted(list_rotations(sigma))
    text = format_string(sigma)
    sep, cuts = "", offsets  # the digit form: symbol i is character i
    if len(text) > len(sigma):  # the comma form: symbol i follows i symbol texts and commas
        sep, starts = ",", list(accumulate(map(len, text.split(",")), initial=0))
        cuts = [starts[off] + off for off in offsets]
    ring, size = text + sep + text, len(text)
    return "\n".join(f"{off}: {ring[cut:cut + size]}" for off, cut in zip(offsets, cuts))


def render(word: Sequence[int]) -> str:
    """Bracketed form of an identified word: 0, or (i w_1 ... w_i).

    Items are written back to back if every symbol is a digit, else with a
    space before each item but the first, as in (10 0 0 ...).
    """
    sep = " " if _separator(word) else ""
    out, due = [], []  # due: children still due inside each open bracket
    for k in word:
        out.append(f"{sep}({k}" if k else f"{sep}0")
        if k:
            due.append(k)
            continue
        while due:  # a leaf may finish its parent, which may finish its own
            due[-1] -= 1
            if due[-1]:
                break
            due.pop()
            out.append(")")
    return "".join(out)[len(sep):]


def identify_words(sigma: Sequence[int], cyclic: bool = True) -> list[tuple[int, Symbols | None]]:
    """Group every symbol i with the i identified words after it.

    Returns (start, word) for every item left, in position order: sigma[start]
    heads the word, and the word is None for a symbol left unidentified.
    Moves commute, so any order of moves ends in the same bracketing.
    Linear: one pass of ``group_words``.  Cyclic: the n words start at the
    offsets of ``_list_starts`` (cycle lemma), each ends where the next
    starts, and the last wraps round to the first, so every symbol is
    identified.
    """
    sigma = tuple(sigma)
    n = _list_count(sigma)
    if not cyclic:
        return [(i, None if end is None else sigma[i:end]) for i, end in group_words(sigma)]
    starts = _list_starts(sigma, n)
    items = [(i, sigma[i:end]) for i, end in zip(starts, starts[1:])]
    items.append((starts[-1], sigma[starts[-1]:] + sigma[: starts[0]]))
    return items


_PREFIX_LENGTH = 4
# h, the symbols each list starts with that the suffix table leaves out.  Each
# table layer puts every byte of its blocks through one more replace; each prefix
# costs one replace call, and each prefix layer multiplies their number by up to
# the count of symbol kinds.
# Best of 9, Python 3.11: h = 3 and h = 4 are within 4% on listings of 10 to 800
# lists, h = 4 is 6% faster at 2,000 to 4,000 lists and 22% faster on the 10.8 MB
# listing (12.8 against 16.4 ms), and h = 5 is 15 to 25% slower below 4,000 lists.


def list_blocks(n: int, c: Composition) -> Iterator[str]:
    """The blocks of ``lists_text``, in order: their join is the listing.

    The n < 1 ValueError is raised before the first block.
    """
    if n < 1:
        raise ValueError(f"word count {n} < 1")
    avail = {0: c.zeros(n), 1: c.m1, **dict(c.tail.items())}
    symbols = sorted(k for k, v in avail.items() if v > 0)  # 0 first: c.zeros(n) >= n
    full = [avail[a] for a in symbols]
    # a sub-multiset is one mixed-radix int, sum count[i] * stride[i]: adding symbol i
    # is key + stride[i], with room for it iff key % span[i] < top[i]
    stride = list(accumulate([m + 1 for m in full], mul, initial=1))
    span, top = stride[1:], [m * s for m, s in zip(full, stride)]
    sep = _separator(symbols)  # written after every symbol but the last 0
    # one move per symbol a: (its text, stride, rank change a - 1, span, top)
    moves = [(f"{a}{sep}", step, a - 1, radix, room)
             for a, step, radix, room in zip(symbols, stride, span, top)]
    h = min(_PREFIX_LENGTH, sum(full) - 1)
    table = {1: (-1, "\n0")}  # key -> (rank, block): the suffixes over one 0
    for _ in range(sum(full) - h - 1):
        layer: dict[int, tuple[int, list[str]]] = {}
        for head, step, d, radix, room in moves:
            head = "\n" + head
            for key, (r, block) in table.items():
                if r + d < 0 and key % radix < room:
                    entry = layer.setdefault(key + step, (r + d, []))
                    entry[1].append(block.replace("\n", head))
        table = {key: (r, "".join(blocks)) for key, (r, blocks) in layer.items()}
    prefixes = [("\n", 0, 0)]  # (newline and text, key, rank) of each prefix, in lex order
    for _ in range(h):
        prefixes = [(text + head, key + step, r + d)
                    for text, key, r in prefixes
                    for head, step, d, radix, room in moves
                    if r + d > -n and key % radix < room]
    rest = stride[-1] - 1  # the whole composition's key
    for k, (text, key, _) in enumerate(prefixes):
        block = table[rest - key][1].replace("\n", text)
        yield block if k else block[1:]  # no newline before the first list


def lists_text(n: int, c: Composition) -> str:
    """Every multiset permutation of the composition that is an n-word list.

    One list per line, in lexicographic order and ``format_string`` form.
    Suffix form of the rank criterion: a string of rank -n is a list of
    n words iff every nonempty suffix has negative rank, and a prefix p
    starts one iff every nonempty prefix of p has rank above -n and the
    rest follows as such a suffix.  So the lists meet in the middle.  A
    suffix table lists the valid suffixes over each sub-multiset of
    negative rank, built bottom-up from the one suffix of length 1, "0",
    to length L - h (``_PREFIX_LENGTH``): a sub-multiset's suffixes are one
    block of text, each line after a newline, so putting a symbol before
    every line of a block is one ``str.replace``, and a block joins once
    the blocks grown by each symbol a it holds, in ascending order of a.
    The first h symbols are then listed as prefixes in lexicographic
    order, and each prefix adds one block, the rest's suffixes with the
    prefix put before each by one more replace: every byte of the listing
    is written by exactly one replace of the prefix pass, but each layer
    of the suffix table copies its blocks once more, so one list of
    length L costs about L²/2 bytes of copies.  ``list_blocks`` yields
    those blocks, which the CLI writes as they come.
    """
    return "".join(list_blocks(n, c))


def enumerate_lists(n: int, c: Composition) -> list[str]:
    """The lines of ``lists_text``: every n-word list of the composition."""
    return lists_text(n, c).split("\n")
