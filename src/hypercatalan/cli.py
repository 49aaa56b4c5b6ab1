"""Command-line front end.

Subcommands: coeff, table, verify, solve, subdigons, raney, powers.
Exit codes: 0 success/verified, 1 verification failure or stdout closed early, 2 usage error.

Each command's options are written once, in _COMMANDS.  A well-formed command line is
read by one scan against that table; any other, help and every option error included,
goes to the argparse tree, built from the same table the first time a call needs it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import Callable, NoReturn

from . import catpow, raney, series, subdigon
from .core import (
    DEFAULT_FACE_CAP,
    Composition,
    Measure,
    TypeVector,
    central_count,
    hyper_catalan,
    power_coeff,
    raney_count,
    vef,
)


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


@contextlib.contextmanager
def _digit_limit():
    """Turn Python's int-to-str limit, hit while formatting output, into a usage error."""
    try:
        yield
    except ValueError:
        _usage_error(f"result has more than {sys.get_int_max_str_digits()} digits, "
                     "Python's int-to-str limit (PYTHONINTMAXSTRDIGITS=0 lifts it)")


_CHUNK = 1 << 20  # characters encoded and written at a time


def _writer() -> Callable[[str], None]:
    """A function that writes a text to stdout in full, or raises BrokenPipeError if it closed.

    Each text is encoded and written _CHUNK characters at a time, so a
    listing never holds a whole encoded copy beside its text.  An
    unbuffered stdout (``PYTHONUNBUFFERED``) writes through to the raw
    file, whose write can end short when the pipe closes; the text layer
    ignores that count, so the bytes are written here until none are left.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        return sys.stdout.write
    sys.stdout.flush()  # what print wrote so far goes first
    encoding, errors = sys.stdout.encoding, sys.stdout.errors

    def write(text: str) -> None:
        for start in range(0, len(text), _CHUNK):
            data = memoryview(text[start : start + _CHUNK].encode(encoding, errors))
            while data:
                data = data[buffer.write(data):]
    return write


def _write(*texts: str) -> None:
    """Write the texts to stdout by one ``_writer``."""
    write = _writer()
    for text in texts:
        write(text)


def _parse_type(text: str) -> TypeVector:
    """Counts m2,m3,... in ASCII digits 0-9; int() alone would also read '1_0', '+2' and '٣'."""
    text = text.strip()
    if not text:
        return TypeVector()
    parts = [p.strip() for p in text.split(",")]
    try:
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError
        counts = [int(p) for p in parts]  # ValueError past the int-to-str digit limit
    except ValueError:
        _usage_error(f"bad type vector {text!r}")
    return TypeVector.from_counts(counts)


def cmd_coeff(args) -> int:
    m = _parse_type(args.type)
    # the power first, so that a bad --power is named before a type too large to compute
    power = None if args.power is None else power_coeff(m, args.power)
    s, c = vef(m), hyper_catalan(m)
    central = [(r, central_count(m, r)) for r, _ in m.items()] if args.central else []
    with _digit_limit():
        lines = [f"type {m}", f"C = {c}", f"V = {s.V}, E = {s.E}, F = {s.F}"]
        lines += [f"central {r + 1}-gon: {n}" for r, n in central]
        if power is not None:
            lines.append(f"C^({args.power}) = {power}")
    print("\n".join(lines))
    return 0


def cmd_table(args) -> int:
    spec = series.LayerSpec(Measure(args.measure), args.d, args.q)
    _write(series.render_table(spec, series.table_rows(spec), args.format))
    return 0


def cmd_verify(args) -> int:
    spec = series.LayerSpec(Measure(args.measure), args.d, args.q)
    residual = series.evaluate_geometric(spec)
    if not residual:
        print("ZERO")
        return 0
    lvl = min(residual)
    part = residual[lvl]
    first = series.first_term(spec, part)
    print(f"NONZERO at level {lvl}: {len(part)} nonzero terms, first {first}")
    return 1


def cmd_solve(args) -> int:
    from fractions import Fraction  # here, once a call, so that no other command imports it

    coeffs = []
    for text in args.coeffs.split(",") if args.coeffs else ():
        # a rational in ASCII without '_'; Fraction() alone would also read '1_0' and '٣'
        try:
            if not text.isascii() or "_" in text:
                raise ValueError
            coeffs.append(Fraction(text))
        except (ValueError, ZeroDivisionError):
            _usage_error(f"bad coefficient {text!r}")
    q = len(coeffs) + 1
    if q < 2:
        # no t_k at all: alpha = 1 solves 1 - alpha = 0
        print("alpha = 1")
        print("residual = 0")
        return 0
    spec = series.LayerSpec(Measure(args.measure), args.d, q)
    values = {k: coeffs[k - 2] for k in range(2, q + 1)}
    # every line is formatted before any is printed, so an overflow prints none
    try:
        if args.float:
            values = {k: float(v) for k, v in values.items()}
        partials = list(series.partial_pairs(spec, values))
        _, n, den = partials[-1]
        alpha = n if den is None else Fraction(n, den)
        try:
            terms = 0  # added in turn: from Python 3.12 on, sum() rounds a float sum otherwise
            for k, v in values.items():
                terms += v * alpha**k
            residual = 1 - alpha + terms
        except OverflowError:  # a float alpha**k, whose message is an errno pair
            raise OverflowError(f"alpha^{q} in the residual, alpha = {alpha:.12g}") from None
        with _digit_limit():
            if args.float:
                lines = [f"level {lvl:>3}: partial sum = {x:.12g}" for lvl, x, _ in partials]
            else:
                lines = [f"level {lvl:>3}: partial sum = {n if den is None else _ratio(n, den)}"
                         for lvl, n, den in partials]
            lines += [f"alpha = {_show(alpha)}", f"residual = {_show(residual)}"]
    except OverflowError as exc:
        _usage_error(f"out of float range at level bound {spec.d}: {exc}")
    print("\n".join(lines))
    return 0


def _ratio(n: int, den: int) -> str:
    """The reduced fraction n/den (den > 0) as 'n/den ~ float', '/den' left out when den is 1."""
    return f"{n}/{den} ~ {n / den:.12g}" if den != 1 else f"{n} ~ {n / den:.12g}"


def _show(x) -> str:
    """An int or a float as it is, a Fraction by _ratio."""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x) if isinstance(x, int) else _ratio(x.numerator, x.denominator)


def cmd_subdigons(args) -> int:
    m = _parse_type(args.type)
    if args.format == "count":
        total = subdigon.count_subdigons(m)
        central = [(r, central_count(m, r)) for r, _ in m.items()]
        with _digit_limit():
            split = " ".join(f"central-{r + 1}:{n}" for r, n in central)
            line = f"{total}" + (f" split {split}" if split else "")
        print(line)
        return 0
    text = subdigon.subdigons_text(m, face_cap=args.max_faces)
    pieces = subdigon.to_json(text) if args.format == "json" else (text,)
    _write(*pieces, "\n")
    return 0


def cmd_raney(args) -> int:
    if args.raney_cmd == "enumerate":
        counts = {k: getattr(args, f"m{k}") for k in range(1, 10)}
        if any(v < 0 for v in counts.values()):
            _usage_error("negative symbol count")
        c = Composition(counts.pop(1), TypeVector.of(counts))
        write, count = _writer(), 1  # the lists: one more than the newlines between them
        for block in raney.list_blocks(args.n, c):  # written as they come, never held whole
            write(block)
            count += block.count("\n")
        write(f"\ntotal {count} (closed form {raney_count(args.n, c)})\n")
        return 0
    sigma = raney.parse_string(args.string)
    if args.raney_cmd != "check":
        # rank prints the rank; rotations and identify name a rank >= 0 in their error
        with _digit_limit():
            text = str(raney.rank(sigma))
    if args.raney_cmd == "rank":
        print(text)
        return 0
    if args.raney_cmd == "check":
        ok = raney.is_word_list(sigma, args.n)
        print("yes" if ok else "no")
        return 0 if ok else 1
    if args.raney_cmd == "rotations":
        print(raney.rotations_text(sigma))
        return 0
    words = [word for _, word in raney.identify_words(sigma, cyclic=args.cyclic)]  # identify
    if None in words:
        print("INCOMPLETE: unidentified symbols remain")
        return 1
    print("\n".join(map(raney.render, words)))
    return 0


def cmd_powers(args) -> int:
    if args.identity is None:
        if args.r is None or args.m is None:
            _usage_error("powers needs --identity, or both --r and --m")
        value = catpow.catalan_power(args.r, args.m)
        with _digit_limit():
            text = str(value)
        print(text)
        return 0
    residual = catpow.verify_power_identity(args.identity, args.order)
    if residual:
        print(f"NONZERO residual: {catpow.residual_text(residual)}")
        return 1
    print("ZERO")
    return 0


_MEASURES = [m.value for m in Measure]
_LEVEL = {"type": int, "required": True, "help": "max level"}
_LAYERING = {
    "--measure": {"choices": _MEASURES, "required": True},
    "--d": _LEVEL,
    "--q": {"type": int, "help": "gon bound (required for face)"},
}

# Each command by its leading words: the keywords of its add_parser call, the function
# that runs it, and the add_argument keywords of each of its arguments by name.  The
# parser tree is built from this table, and _scan reads well-formed command lines by it.
_COMMANDS: dict[tuple[str, ...], tuple[dict, Callable, dict[str, dict]]] = {
    ("coeff",): ({"help": "closed-form counts for a type vector"}, cmd_coeff, {
        "--type": {"required": True, "help": "comma list m2,m3,..."},
        "--central": {"action": "store_true", "help": "central-polygon split"},
        "--power": {"type": int, "help": "series power r for C^(r)"},
    }),
    ("table",): ({}, cmd_table, {
        **_LAYERING, "--format": {"choices": ["text", "csv", "json"], "default": "text"},
    }),
    ("verify",): ({}, cmd_verify, _LAYERING),
    ("solve",): ({"help": "numeric root from the layered series"}, cmd_solve, {
        "--coeffs": {"default": "", "help": "comma list of t2,t3,... values; "
                     "write --coeffs=-1/3,1/5 when t2 is negative"},
        "--measure": {"choices": _MEASURES, "default": "vertex"},
        "--d": _LEVEL,
        "--float": {"action": "store_true",
                    "help": "float level sums instead of exact rationals, each within 1e-13 "
                            "of the sum of |terms| of the exact one until a term falls below "
                            "the normal float range; past that a sum reads too small, or 0"},
    }),
    ("subdigons",): ({"help": "enumerate or count subdigons of a type"}, cmd_subdigons, {
        "--type": {"required": True},
        "--format": {"choices": ["count", "list", "json"], "default": "count"},
        "--max-faces": {"type": int, "default": DEFAULT_FACE_CAP},
    }),
    ("raney", "rank"): ({}, cmd_raney, {"string": {}}),
    ("raney", "rotations"): ({}, cmd_raney, {"string": {}}),
    ("raney", "check"): ({}, cmd_raney, {"string": {}, "--n": {"type": int, "default": 1}}),
    ("raney", "identify"): ({}, cmd_raney, {"string": {}, "--cyclic": {"action": "store_true"}}),
    ("raney", "enumerate"): ({}, cmd_raney, {
        "--n": {"type": int, "required": True},
        **{f"--m{k}": {"type": int, "default": 0, "help": f"count of symbol {k}"}
           for k in range(1, 10)},
    }),
    ("powers",): ({"help": "Catalan power queries"}, cmd_powers, {
        "--r": {"type": int, "help": "power"},
        "--m": {"type": int, "help": "coefficient index"},
        "--identity": {"type": int, "help": "verify the reduction identity for r"},
        "--order": {"type": int, "default": 20, "help": "truncation order"},
    }),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads --name=-- as the value '--', as argparse does from 3.13 on.

    Before 3.13 argparse drops the '--' from an option's argument strings, so that
    --d=-- stored [] and failed later with a traceback, or passed as no value at all.
    The tree alone parses such a line: _scan hands every --name=value to it.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # an option gets "--" only from =--
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from _COMMANDS when first asked for; parsing leaves it unchanged."""
    parser = _Parser(
        prog="hypercatalan",
        description="Hyper-Catalan numbers, layered series zeros and Raney words",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (keywords, func, arguments) in _COMMANDS.items():
        if words[:-1] not in subparsers:  # the raney group, made where its first command is
            group = subparsers[()].add_parser(words[0], help="Raney string tools")
            subparsers[words[:-1]] = group.add_subparsers(dest="raney_cmd", required=True)
        p = subparsers[words[:-1]].add_parser(words[-1], **keywords)
        for name, options in arguments.items():
            p.add_argument(name, **options)
        p.set_defaults(func=func)
    return parser


def _scan(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) read by _COMMANDS alone, or None where argv needs the tree.

    After the command's words it takes exact option strings, store_true flags, at most
    one positional, and values that are non-empty, do not start with '-', pass their
    type and are in their choices.  Help, abbreviations, --opt=value, negative values,
    bad values, missing arguments and unknown words are left to the tree, which reports
    them in argparse's own words.
    """
    words = tuple(argv[:2] if argv[:1] == ["raney"] else argv[:1])
    if words not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[words]
    positional = next((name for name in arguments if name[0] != "-"), None)
    given = {}
    rest = iter(argv[len(words):])
    for word in rest:
        if word[:1] == "-":
            name, options = word, arguments.get(word)
            if options is None:
                return None
            if options.get("action") == "store_true":
                given[name] = True
                continue
            word = next(rest, "")
        else:
            name, options = positional, arguments.get(positional)
            if options is None or name in given:
                return None
        if not word or word[0] == "-":
            return None
        try:
            value = options.get("type", str)(word)
        except ValueError:
            return None
        if value not in options.get("choices", (value,)):
            return None
        given[name] = value
    namespace = argparse.Namespace(func=func, **dict(zip(("command", "raney_cmd"), words)))
    for name, options in arguments.items():
        if name in given:
            value = given[name]
        elif options.get("required") or name == positional:
            return None
        else:
            value = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(namespace, name.lstrip("-").replace("-", "_"), value)
    return namespace


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), by _scan when it can read argv, so that a
    well-formed call never builds the parser tree."""
    args = _scan(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        # the library's argument checks, made before any output: these are the usage errors
        _usage_error(str(exc))
    except (OverflowError, MemoryError) as exc:
        # past math.perm's range (a falling factorial of over sys.maxsize factors), or an
        # allocation refused at once: no output
        _usage_error(f"input too large to compute: {str(exc) or 'not enough memory'}")
    except BrokenPipeError:
        # stdout closed early (`| head`): devnull keeps the exit flush quiet (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
