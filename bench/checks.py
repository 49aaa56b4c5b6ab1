"""Output checkers, one per command kind, independent of the code they check.

Each checker takes a task, the exit code and the captured stdout, and
raises ``CheckError`` when the output is wrong.  None of them imports the
program: closed forms, parsers and prefix-rank scans are re-implemented
here, so a defect in a library path cannot also hide in its checker.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from math import factorial

from tasks import Task, is_word_list, list_count, type_count


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _rc(rc, want: int) -> None:
    _require(rc == want, f"exit code {rc!r}, expected {want}")


def _lines(out: str) -> list[str]:
    _require(out.endswith("\n"), "output does not end with a newline")
    return out[:-1].split("\n")


# -- layering -----------------------------------------------------------------

_LEVEL = {
    "vertex": lambda k: k - 1,
    "edge": lambda k: k,
    "face": lambda k: 1,
}
_SYMBOL = {"vertex": "v", "edge": "e", "face": "f"}
_TERM = re.compile(r"(\d*)((?:t\d+(?:\^\d+)?)*)")
_FACTOR = re.compile(r"t(\d+)(?:\^(\d+))?")


def _level(mono: tuple[tuple[int, int], ...], measure: str) -> int:
    return sum(_LEVEL[measure](k) * m for k, m in mono)


def parse_poly(text: str) -> dict[tuple[tuple[int, int], ...], int]:
    """'42t2^5 + 5t2t3 - t4' -> {((2, 5),): 42, ...}; '0' -> {}."""
    if text == "0":
        return {}
    out: dict = {}
    tokens = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if op == "+" else -1 for op in tokens[1::2]]
    for sign, chunk in zip(signs, tokens[0::2]):
        if chunk.startswith("-"):
            sign, chunk = -sign, chunk[1:]
        match = _TERM.fullmatch(chunk)
        _require(bool(match) and chunk != "", f"bad term {chunk!r}")
        digits, factors = match.groups()
        mono: dict[int, int] = {}
        for k, e in _FACTOR.findall(factors):
            mono[int(k)] = mono.get(int(k), 0) + int(e or 1)
        key = tuple(sorted(mono.items()))
        _require(key not in out, f"repeated monomial {chunk!r}")
        out[key] = sign * (int(digits) if digits else 1)
    return out


def _table_rows(task: Task, out: str) -> list[tuple[str, dict]]:
    fmt = task.meta["format"]
    if fmt == "json":
        rows = []
        for row in json.loads(out):
            poly = {}
            for term in row["terms"]:
                key = tuple((k, m) for k, m in enumerate(term["type"], start=2) if m)
                poly[key] = poly.get(key, 0) + int(term["coeff"])
            rows.append((row["row"], poly))
        return rows
    lines = _lines(out)
    if fmt == "csv":
        _require(lines[0] == "row,polynomial", "missing csv header")
        rows = []
        for line in lines[1:]:
            label, _, quoted = line.partition(",")
            _require(quoted.startswith('"') and quoted.endswith('"'), f"bad csv row {line!r}")
            rows.append((label, parse_poly(quoted[1:-1])))
        return rows
    rows = []
    for line in lines:
        label, sep, poly = line.strip().partition("  ")
        _require(bool(sep), f"bad table row {line!r}")
        rows.append((label, parse_poly(poly)))
    return rows


def check_table(task: Task, rc, out: str) -> None:
    """At every level the source rows sum to the total row.

    The total row must also hold the closed-form count of each of its
    types, and every term of a level's rows must sit at that level.
    """
    _rc(rc, 0)
    measure, d, q = task.meta["measure"], task.meta["d"], task.meta["q"]
    sym = _SYMBOL[measure]
    label_re = re.compile(rf"\[{sym}\^(\d+)\] (?:t(\d+) b\^(\d+)|total)")
    sources: dict[int, dict] = {}
    totals: dict[int, dict] = {}
    for label, poly in _table_rows(task, out):
        match = label_re.fullmatch(label)
        _require(bool(match), f"bad row label {label!r}")
        lvl = int(match.group(1))
        for mono in poly:
            _require(_level(mono, measure) == lvl, f"term {mono} off level {lvl} in {label!r}")
            _require(q is None or all(k <= q for k, _ in mono), f"term {mono} above gon bound")
        if match.group(2) is None:
            _require(lvl not in totals, f"second total row at level {lvl}")
            totals[lvl] = poly
            for mono, c in poly.items():
                _require(c == type_count(dict(mono)), f"total coefficient of {mono} is {c}")
        else:
            _require(lvl not in totals, f"source row after the total at level {lvl}")
            acc = sources.setdefault(lvl, {})
            for mono, c in poly.items():
                acc[mono] = acc.get(mono, 0) + c
    _require(sorted(totals) == list(range(d + 1)), f"total rows for levels {sorted(totals)}")
    for lvl in range(d + 1):
        got = {m: c for m, c in sources.get(lvl, {}).items() if c}
        _require(got == totals[lvl], f"source rows do not sum to the total at level {lvl}")


def check_verify(task: Task, rc, out: str) -> None:
    _rc(rc, 0)
    _require(out == "ZERO\n", f"verify printed {out[:60]!r}")


# -- closed form --------------------------------------------------------------


def _number(text: str, exact: bool):
    if exact:
        return Fraction(text.split(" ~ ")[0])
    return float(text)


def check_solve(task: Task, rc, out: str) -> None:
    """The printed residual equals 1 - a + sum t_k a^k at the printed a."""
    _rc(rc, 0)
    exact = task.meta["exact"]
    coeffs = task.meta["coeffs"]
    lines = _lines(out)
    _require(len(lines) >= 3, "solve printed fewer than three lines")
    levels, partial = [], None
    for line in lines[:-2]:
        match = re.fullmatch(r"level +(\d+): partial sum = (.+)", line)
        _require(bool(match), f"bad level line {line!r}")
        levels.append(int(match.group(1)))
        partial = _number(match.group(2), exact)
    _require(levels == sorted(set(levels)), "levels not strictly ascending")
    _require(lines[-2].startswith("alpha = "), "missing alpha line")
    _require(lines[-1].startswith("residual = "), "missing residual line")
    alpha = _number(lines[-2][len("alpha = "):], exact)
    residual = _number(lines[-1][len("residual = "):], exact)
    _require(alpha == partial, "alpha differs from the last partial sum")
    if exact:
        want = 1 - alpha + sum(t * alpha ** k for k, t in enumerate(coeffs, start=2))
        _require(residual == want, "residual differs from 1 - a + sum t_k a^k")
        return
    ts = [float(t) for t in coeffs]
    want = 1 - alpha + sum(t * alpha ** k for k, t in enumerate(ts, start=2))
    # a is printed to 12 significant digits; bound the residual's error by |f'(a)|
    slope = 1 + sum(k * t * abs(alpha) ** (k - 1) for k, t in enumerate(ts, start=2))
    tol = 1e-11 * slope * max(1.0, abs(alpha)) + 1e-11 * abs(residual)
    _require(abs(residual - want) <= tol, f"float residual {residual} vs recomputed {want}")


def _vef(counts: dict[int, int]) -> tuple[int, int, int]:
    v = 2 + sum((k - 1) * m for k, m in counts.items())
    e = 1 + sum(k * m for k, m in counts.items())
    return v, e, sum(counts.values())


def _central(counts: dict[int, int], r: int) -> int:
    """Subdigons of the type with an (r+1)-gon on the roof: r m_r (E-2)!/((V-1)! m!)."""
    v, e, _ = _vef(counts)
    den = factorial(v - 1)
    for m in counts.values():
        den *= factorial(m)
    num = r * counts.get(r, 0) * factorial(e - 2)
    _require(num % den == 0, "central count is not integral")
    return num // den


def check_coeff(task: Task, rc, out: str) -> None:
    """C, V/E/F by the closed forms; central counts sum to C; C^(r) as a central count."""
    _rc(rc, 0)
    counts, r = task.meta["type"], task.meta["power"]
    lines = _lines(out)
    v, e, f = _vef(counts)
    total = type_count(counts)
    _require(lines[1] == f"C = {total}", f"{lines[1]!r}, closed form C = {total}")
    _require(lines[2] == f"V = {v}, E = {e}, F = {f}", f"bad V/E/F line {lines[2]!r}")
    central = {}
    for line in lines[3:-1]:
        match = re.fullmatch(r"central (\d+)-gon: (\d+)", line)
        _require(bool(match), f"bad central line {line!r}")
        central[int(match.group(1)) - 1] = int(match.group(2))
    _require(sorted(central) == sorted(counts), f"central rows for arities {sorted(central)}")
    _require(sum(central.values()) == total, "central counts do not sum to C")
    for k, c in central.items():
        _require(c == _central(counts, k), f"central {k + 1}-gon count {c}")
    # coefficient of t^m in the r-th power = type m + unit(r) with central (r+1)-gon
    bigger = dict(counts)
    bigger[r] = bigger.get(r, 0) + 1
    want = _central(bigger, r) if r >= 2 else type_count(counts)
    _require(lines[-1] == f"C^({r}) = {want}", f"{lines[-1]!r}, expected C^({r}) = {want}")


def _catalan_power(r: int, m: int) -> int:
    """[t^m] T^r by repeated truncated convolution of Catalan numbers."""
    cat = [1]
    for n in range(m):
        cat.append(cat[-1] * 2 * (2 * n + 1) // (n + 2))
    acc = [1] + [0] * m
    for _ in range(r):
        acc = [sum(acc[i] * cat[j - i] for i in range(j + 1)) for j in range(m + 1)]
    return acc[m]


def check_powers(task: Task, rc, out: str) -> None:
    _rc(rc, 0)
    if "r" not in task.meta:
        _require(out == "ZERO\n", f"identity check printed {out[:60]!r}")
        return
    want = _catalan_power(task.meta["r"], task.meta["m"])
    _require(out == f"{want}\n", f"printed {out.strip()[:60]!r}, expected {want}")


# -- trees --------------------------------------------------------------------


def parse_subdigon(text: str) -> Counter:
    """Type (arity counts) of a serialized subdigon; rejects malformed text."""
    arities: Counter = Counter()
    pos, need = 0, 1
    while need:
        _require(pos < len(text), f"truncated subdigon {text!r}")
        if text[pos] == "[":
            close = text.index("]", pos)
            k, pos = int(text[pos + 1:close]), close + 1
        else:
            k, pos = int(text[pos]), pos + 1
        _require(k != 1, f"unary panel in {text!r}")
        if k:
            arities[k] += 1
        need += k - 1
    _require(pos == len(text), f"trailing text in subdigon {text!r}")
    return arities


def check_subdigons(task: Task, rc, out: str) -> None:
    _rc(rc, 0)
    counts = task.meta["type"]
    want = type_count(counts)
    fmt = task.meta.get("format")
    if fmt is None:
        match = re.fullmatch(r"(\d+)(?: split (.*))?\n", out)
        _require(bool(match), f"bad count output {out[:60]!r}")
        total = int(match.group(1))
        _require(total == want, f"count {total}, closed form {want}")
        split = {}
        for part in (match.group(2) or "").split():
            key, _, value = part.partition(":")
            split[key] = int(value)
        _require(sorted(split) == sorted(f"central-{k + 1}" for k in counts), "split keys")
        _require(sum(split.values()) == total, "split does not sum to the total")
        return
    items = json.loads(out) if fmt == "json" else _lines(out)
    _require(len(items) == want, f"{len(items)} subdigons, closed form {want}")
    _require(len(set(items)) == len(items), "duplicate subdigon")
    wanted = Counter({k: m for k, m in counts.items() if m})
    for item in items:
        _require(parse_subdigon(item) == wanted, f"subdigon {item!r} has the wrong type")


def check_raney_enumerate(task: Task, rc, out: str) -> None:
    """Total = closed form = line count; lines are distinct n-word lists of the composition."""
    _rc(rc, 0)
    n, m1, tail = task.meta["n"], task.meta["m1"], task.meta["tail"]
    want = list_count(n, m1, tail)
    lines = _lines(out)
    _require(lines[-1] == f"total {len(lines) - 1} (closed form {want})",
             f"{lines[-1]!r} for {len(lines) - 1} lists, closed form {want}")
    body = lines[:-1]
    _require(len(body) == want, f"{len(body)} lists, closed form {want}")
    _require(len(set(body)) == len(body), "duplicate list")
    composition = +Counter({0: n + sum((k - 1) * m for k, m in tail.items()), 1: m1, **tail})
    for line in body:
        sigma = [int(ch) for ch in line]
        _require(Counter(sigma) == composition, f"{line!r} has the wrong composition")
        _require(is_word_list(sigma, n), f"{line!r} is not a list of {n} words")


def _parse_word(text: str, pos: int = 0) -> tuple[list[int], int]:
    """Rendered word '0' or '(i w1 ... wi)' -> (symbols, end)."""
    _require(pos < len(text), f"truncated word {text!r}")
    if text[pos] == "0":
        return [0], pos + 1
    _require(text[pos] == "(", f"bad word {text!r}")
    match = re.compile(r"\d").match(text, pos + 1)
    _require(bool(match), f"bad head in {text!r}")
    head, pos = int(match.group()), match.end()
    symbols = [head]
    for _ in range(head):
        child, pos = _parse_word(text, pos)
        symbols += child
    _require(pos < len(text) and text[pos] == ")", f"unbalanced word {text!r}")
    return symbols, pos + 1


def _is_rotation(a: list[int], b: list[int]) -> bool:
    return len(a) == len(b) and any(a[o:] + a[:o] == b for o in range(len(a)))


def check_raney_identify(task: Task, rc, out: str) -> None:
    """n = -rank words, each a word, laid end to end a rotation of the input."""
    _rc(rc, 0)
    sigma, n = task.meta["sigma"], task.meta["n"]
    words = _lines(out)
    _require(len(words) == n, f"{len(words)} words, expected {n}")
    flat: list[int] = []
    for text in words:
        symbols, end = _parse_word(text)
        _require(end == len(text), f"trailing text in word {text!r}")
        _require(is_word_list(symbols, 1), f"{text!r} is not a word")
        flat += symbols
    _require(_is_rotation(sigma, flat), "words do not lay out a rotation of the input")


def check_raney_rotations(task: Task, rc, out: str) -> None:
    """n = -rank distinct offsets, each rotation an n-word list by a prefix-rank scan."""
    _rc(rc, 0)
    sigma, n = task.meta["sigma"], task.meta["n"]
    lines = _lines(out)
    _require(len(lines) == n, f"{len(lines)} rotations, expected {n}")
    seen = set()
    for line in lines:
        match = re.fullmatch(r"(\d+): (\d+)", line)
        _require(bool(match), f"bad rotation line {line!r}")
        off = int(match.group(1))
        _require(off < len(sigma) and off not in seen, f"bad or repeated offset {off}")
        seen.add(off)
        rotated = [int(ch) for ch in match.group(2)]
        _require(rotated == sigma[off:] + sigma[:off], f"offset {off} printed a wrong rotation")
        _require(is_word_list(rotated, n), f"rotation at {off} is not a list of {n} words")


def check_raney_check(task: Task, rc, out: str) -> None:
    want = is_word_list(task.meta["sigma"], task.meta["n"])
    _require(want == task.meta["want"], "generator and checker disagree")
    _rc(rc, 0 if want else 1)
    _require(out == ("yes\n" if want else "no\n"), f"printed {out[:20]!r}, expected {want}")


def check(task: Task, rc, out: str) -> None:
    """Dispatch on the command in the task's argv."""
    command = task.argv[0]
    if command == "raney":
        command = f"raney-{task.argv[1]}"
    CHECKERS[command](task, rc, out)


CHECKERS = {
    "verify": check_verify,
    "table": check_table,
    "solve": check_solve,
    "coeff": check_coeff,
    "powers": check_powers,
    "subdigons": check_subdigons,
    "raney-enumerate": check_raney_enumerate,
    "raney-identify": check_raney_identify,
    "raney-rotations": check_raney_rotations,
    "raney-check": check_raney_check,
}
