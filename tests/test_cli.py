import argparse
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import hypercatalan
from hypercatalan import catpow, cli, series, subdigon
from hypercatalan.cli import build_parser, main
from hypercatalan.core import Composition, TypeVector, central_count, raney_count
from hypercatalan.raney import format_string, parse_string
from oracles import bumped_walk, count_trees, enumerate_lists_dfs, list_rotations_scan, rotate, tree_of


HUGE = "99999999999999999999"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCoeff:
    def test_fig5(self, capsys):
        code, out = run(capsys, "coeff", "--type", "2,1")
        assert code == 0
        assert "C = 21" in out
        assert "V = 6, E = 8, F = 3" in out

    def test_fig1(self, capsys):
        code, out = run(capsys, "coeff", "--type", "2,1,1")
        assert code == 0
        assert "C = 495" in out

    def test_empty_type(self, capsys):
        code, out = run(capsys, "coeff", "--type", "")
        assert code == 0
        assert "C = 1" in out

    def test_central_split(self, capsys):
        _, out = run(capsys, "coeff", "--type", "2,1", "--central")
        assert "central 3-gon: 12" in out
        assert "central 4-gon: 9" in out

    def test_bad_type_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--type", "2,x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: bad type vector")

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "+2", "-0"])
    def test_type_entries_are_ascii_digits(self, capsys, text):
        # int() alone reads these as 10, 3, 2 and 0
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--type", text])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: bad type vector {text!r}\n")

    def test_spaces_around_type_entries(self, capsys):
        assert run(capsys, "coeff", "--type", " 2 , 1 ") == run(capsys, "coeff", "--type", "2,1")


class TestVerify:
    @pytest.mark.parametrize("argv", [
        ("verify", "--measure", "vertex", "--d", "5"),
        ("verify", "--measure", "edge", "--d", "8"),
        ("verify", "--measure", "face", "--d", "4", "--q", "3"),
    ])
    def test_paper_zeros(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.strip() == "ZERO"

    def test_face_without_q_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--measure", "face", "--d", "3"])
        assert exc.value.code == 2

    # (level, [m2, m3, ...], added to C_m) for each corrupted coefficient of the walked beta
    @pytest.mark.parametrize("bumps,line", [
        ([(5, [5], 2)], "NONZERO at level 5: 1 nonzero terms, first -2t2^5"),
        ([(3, [0, 0, 1], 1), (3, [1, 1], -4), (5, [5], 1)],
         "NONZERO at level 3: 2 nonzero terms, first -t4"),
        # one face count each: print order puts t2t4 first, packed-key order t3^2 (12 < 37)
        ([(4, [0, 2], 1), (4, [1, 0, 1], 1)], "NONZERO at level 4: 2 nonzero terms, first -t2t4"),
    ], ids=["one-at-level-d", "lowest-of-two-levels", "print-order-tie-break"])
    def test_failure_names_first_level_and_term(self, capsys, monkeypatch, bumps, line):
        bumps = [(lvl, TypeVector.from_counts(counts), by) for lvl, counts, by in bumps]
        monkeypatch.setattr(series, "_walk", bumped_walk(series._walk, bumps))
        assert run(capsys, "verify", "--measure", "vertex", "--d", "5") == (1, line + "\n")


class TestTable:
    def test_vertex_text(self, capsys):
        code, out = run(capsys, "table", "--measure", "vertex", "--d", "5")
        assert code == 0
        assert "[v^5] total" in out
        assert "42t2^5" in out

    def test_csv_and_json_forms(self, capsys):
        _, out = run(capsys, "table", "--measure", "face", "--d", "2", "--q", "3",
                     "--format", "csv")
        assert out.startswith("row,polynomial")
        _, out = run(capsys, "table", "--measure", "face", "--d", "2", "--q", "3",
                     "--format", "json")
        rows = json.loads(out)
        assert any(r["row"] == "[f^2] total" for r in rows)

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "table", "--measure", "edge", "--d", "6")
        _, second = run(capsys, "table", "--measure", "edge", "--d", "6")
        assert first == second

    # d = 22 prints about 370 kB, the subdigon list 7.3 MB and the Raney lists 10.8 MB,
    # several pipe buffers, after the first line is read; d = 3 prints 1 kB, which a
    # buffered stdout only writes at its last flush
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv,first", [
        (["table", "--measure", "vertex", "--d", "22"], b"     [v^0] total  0\n"),
        (["table", "--measure", "vertex", "--d", "3"], b""),
        (["subdigons", "--type", "2,2,1,1", "--format", "list"], b"20203003004000500000\n"),
        (["raney", "enumerate", "--n", "1", "--m1", "2", "--m2", "4", "--m3", "2"],
         b"11202020203003000\n"),
    ], ids=["after-first-line", "before-any-output", "subdigon-list", "raney-enumerate"])
    def test_closed_stdout_ends_quietly(self, unbuffered, argv, first):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(hypercatalan.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "hypercatalan.cli", *argv]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        line = proc.stdout.readline() if first else b""
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert (line, err) == (first, b"")


TABLE_FACE_3_3 = {
    "text": (
        "     [f^0] total  0\n"
        "    [f^1] t2 b^2  t2\n"
        "    [f^1] t3 b^3  t3\n"
        "     [f^1] total  t2 + t3\n"
        "    [f^2] t2 b^2  2t2t3 + 2t2^2\n"
        "    [f^2] t3 b^3  3t2t3 + 3t3^2\n"
        "     [f^2] total  5t2t3 + 2t2^2 + 3t3^2\n"
        "    [f^3] t2 b^2  7t2t3^2 + 12t2^2t3 + 5t2^3\n"
        "    [f^3] t3 b^3  21t2t3^2 + 9t2^2t3 + 12t3^3\n"
        "     [f^3] total  28t2t3^2 + 21t2^2t3 + 5t2^3 + 12t3^3\n"
    ),
    "csv": (
        "row,polynomial\n"
        '[f^0] total,"0"\n'
        '[f^1] t2 b^2,"t2"\n'
        '[f^1] t3 b^3,"t3"\n'
        '[f^1] total,"t2 + t3"\n'
        '[f^2] t2 b^2,"2t2t3 + 2t2^2"\n'
        '[f^2] t3 b^3,"3t2t3 + 3t3^2"\n'
        '[f^2] total,"5t2t3 + 2t2^2 + 3t3^2"\n'
        '[f^3] t2 b^2,"7t2t3^2 + 12t2^2t3 + 5t2^3"\n'
        '[f^3] t3 b^3,"21t2t3^2 + 9t2^2t3 + 12t3^3"\n'
        '[f^3] total,"28t2t3^2 + 21t2^2t3 + 5t2^3 + 12t3^3"\n'
    ),
    "json": (
        '[{"row": "[f^0] total", "terms": []}, '
        '{"row": "[f^1] t2 b^2", "terms": [{"type": [1], "coeff": "1"}]}, '
        '{"row": "[f^1] t3 b^3", "terms": [{"type": [0, 1], "coeff": "1"}]}, '
        '{"row": "[f^1] total", "terms": [{"type": [1], "coeff": "1"}, '
        '{"type": [0, 1], "coeff": "1"}]}, '
        '{"row": "[f^2] t2 b^2", "terms": [{"type": [1, 1], "coeff": "2"}, '
        '{"type": [2], "coeff": "2"}]}, '
        '{"row": "[f^2] t3 b^3", "terms": [{"type": [1, 1], "coeff": "3"}, '
        '{"type": [0, 2], "coeff": "3"}]}, '
        '{"row": "[f^2] total", "terms": [{"type": [1, 1], "coeff": "5"}, '
        '{"type": [2], "coeff": "2"}, {"type": [0, 2], "coeff": "3"}]}, '
        '{"row": "[f^3] t2 b^2", "terms": [{"type": [1, 2], "coeff": "7"}, '
        '{"type": [2, 1], "coeff": "12"}, {"type": [3], "coeff": "5"}]}, '
        '{"row": "[f^3] t3 b^3", "terms": [{"type": [1, 2], "coeff": "21"}, '
        '{"type": [2, 1], "coeff": "9"}, {"type": [0, 3], "coeff": "12"}]}, '
        '{"row": "[f^3] total", "terms": [{"type": [1, 2], "coeff": "28"}, '
        '{"type": [2, 1], "coeff": "21"}, {"type": [3], "coeff": "5"}, '
        '{"type": [0, 3], "coeff": "12"}]}]\n'
    ),
}


@pytest.mark.parametrize("fmt", TABLE_FACE_3_3)
def test_table_stdout_is_pinned(capsys, fmt):
    argv = ["table", "--measure", "face", "--d", "3", "--q", "3", "--format", fmt]
    assert run(capsys, *argv) == (0, TABLE_FACE_3_3[fmt])


class TestSolve:
    @pytest.mark.parametrize("coeffs", ["1/0", "x", "1/5,"])
    def test_bad_coeffs_exit_2(self, capsys, coeffs):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--coeffs", coeffs, "--d", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: bad coefficient")

    def test_bad_level_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--coeffs", "1/5", "--d", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: negative level bound")

    def test_all_zero_coefficients(self, capsys):
        code, out = run(capsys, "solve", "--coeffs", "0", "--d", "5")
        assert code == 0
        assert "alpha = 1" in out
        assert "residual = 0" in out

    def test_quadratic_exact(self, capsys):
        code, out = run(capsys, "solve", "--coeffs", "1/5", "--d", "40")
        assert code == 0
        alpha = _read_value(out, "alpha")
        assert abs(alpha - 1.3819660113) < 1e-4
        assert abs(_read_value(out, "residual")) < 1e-4

    def test_cubic_residual_decreases_with_level(self, capsys):
        residuals = []
        for d in ("8", "12", "16", "20"):
            code, out = run(capsys, "solve", "--coeffs", "0.1,0.02",
                            "--measure", "face", "--d", d, "--float")
            assert code == 0
            residuals.append(abs(_read_value(out, "residual")))
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[-1] < 1e-6
        # cross-check against a bisection root of 1 - a + t2 a^2 + t3 a^3
        g = lambda a: 1 - a + 0.1 * a * a + 0.02 * a**3
        lo, hi = 1.0, 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        _, out = run(capsys, "solve", "--coeffs", "0.1,0.02", "--measure",
                     "face", "--d", "20", "--float")
        assert abs(_read_value(out, "alpha") - lo) < 1e-6

    def test_float_past_a_float_catalan_number(self, capsys):
        # catalan(700) is past the float range, but each of its cells has
        # underflowed to 0 by then; the root is (1 - sqrt(0.6)) / 0.2
        code, out = run(capsys, "solve", "--float", "--d", "700", "--coeffs", "1/10")
        assert code == 0
        assert out.splitlines()[-2] == "alpha = 1.12701665379"


def _read_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            text = line.split("=", 1)[1].strip()
            return float(text.split("~")[-1])
    raise AssertionError(f"{key} not found in output")


SOLVE_1_5 = {
    ("--d", "0"): "level   0: partial sum = 1\nalpha = 1\nresidual = 1/5 ~ 0.2\n",
    ("--d", "3"): (
        "level   0: partial sum = 1\n"
        "level   1: partial sum = 6/5 ~ 1.2\n"
        "level   2: partial sum = 32/25 ~ 1.28\n"
        "level   3: partial sum = 33/25 ~ 1.32\n"
        "alpha = 33/25 ~ 1.32\n"
        "residual = 89/3125 ~ 0.02848\n"
    ),
    ("--d", "0", "--float"): "level   0: partial sum = 1\nalpha = 1\nresidual = 0.2\n",
    ("--d", "3", "--float"): (
        "level   0: partial sum = 1\n"
        "level   1: partial sum = 1.2\n"
        "level   2: partial sum = 1.28\n"
        "level   3: partial sum = 1.32\n"
        "alpha = 1.32\n"
        "residual = 0.02848\n"
    ),
}


@pytest.mark.parametrize("args", SOLVE_1_5, ids=" ".join)
def test_solve_stdout_is_pinned(capsys, args):
    # level 0 is the int 1 in both modes, never "1 ~ 1"
    assert run(capsys, "solve", "--coeffs", "1/5", *args) == (0, SOLVE_1_5[args])


class TestNegativeCoefficients:
    def test_equals_form_is_read(self, capsys):
        alpha = 1 + Fraction(-1, 3) + (2 * Fraction(1, 9) + Fraction(1, 5)) + (
            5 * Fraction(-1, 27) + 5 * Fraction(-1, 3) * Fraction(1, 5))
        residual = 1 - alpha + Fraction(-1, 3) * alpha**2 + Fraction(1, 5) * alpha**3
        assert (alpha, residual) == (Fraction(77, 135), Fraction(4407758, 12301875))
        assert run(capsys, "solve", "--coeffs=-1/3,1/5", "--d", "3") == (0, (
            "level   0: partial sum = 1\n"
            "level   1: partial sum = 2/3 ~ 0.666666666667\n"
            "level   2: partial sum = 49/45 ~ 1.08888888889\n"
            "level   3: partial sum = 77/135 ~ 0.57037037037\n"
            "alpha = 77/135 ~ 0.57037037037\n"
            "residual = 4407758/12301875 ~ 0.358299690088\n"
        ))

    def test_integral_fraction_partial_sum_stays_a_fraction(self, capsys):
        # 1 - 1/2 + 2/4 = 1 is a Fraction, printed "1 ~ 1", unlike the int 1 at level 0
        assert run(capsys, "solve", "--coeffs=-1/2", "--d", "3") == (0, (
            "level   0: partial sum = 1\n"
            "level   1: partial sum = 1/2 ~ 0.5\n"
            "level   2: partial sum = 1 ~ 1\n"
            "level   3: partial sum = 3/8 ~ 0.375\n"
            "alpha = 3/8 ~ 0.375\n"
            "residual = 71/128 ~ 0.5546875\n"
        ))

    def test_spaced_form_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--coeffs", "-1/3,1/5", "--d", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith("argument --coeffs: expected one argument")

    def test_help_names_the_equals_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        assert "--coeffs=-1/3,1/5" in " ".join(capsys.readouterr().out.split())


def _fraction_text(x) -> str:
    """The text of a solve value as it was printed from Fraction objects: the oracle of the lines."""
    if isinstance(x, Fraction):
        return f"{x} ~ {float(x):.12g}"
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _solve_oracle(coeffs: str, measure: str, d: int, as_float: bool):
    """(stdout that solve printed from partial_sums' numbers, spec, values)."""
    values = {k: Fraction(c) for k, c in enumerate(coeffs.split(","), 2)}
    if as_float:
        values = {k: float(v) for k, v in values.items()}
    spec = series.LayerSpec(series.Measure(measure), d, len(values) + 1)
    partials = series.partial_sums(spec, values)
    alpha = partials[max(partials)]
    residual = 1 - alpha + sum(values[k] * alpha**k for k in values)
    lines = [f"level {lvl:>3}: partial sum = {_fraction_text(a)}" for lvl, a in partials.items()]
    lines += [f"alpha = {_fraction_text(alpha)}", f"residual = {_fraction_text(residual)}"]
    return "\n".join(lines) + "\n", spec, values


# vertex, edge and face; a denominator Q that the numerators often share (1/12, 1/2^k);
# negative, zero and integer coefficients; exact and float
LEVEL_LINE_GRID = [
    ("1/13", "vertex", 175), ("1/13", "edge", 175), ("1/13,1/13", "face", 30),
    ("1/12", "vertex", 60), ("1/12,1/8", "edge", 40), ("1/2,1/4,1/8,1/16", "vertex", 20),
    ("1/4,1/16", "face", 25), ("1/32", "vertex", 40), ("1/12,-1/20", "edge", 40),
    ("-1/4", "vertex", 30), ("-1/4,1/9", "edge", 30), ("-1/2", "face", 12),
    ("0", "vertex", 5), ("0,1/4", "edge", 8), ("0,1/4", "vertex", 8), ("0,0", "face", 4),
    ("2", "vertex", 8), ("1,3", "edge", 10), ("2,-1", "face", 6), ("2/4,0,6", "vertex", 12),
    ("1/36,1/56,1/60,1/66", "edge", 34),
]


class TestLevelLines:
    """solve's lines, written from reduced integer pairs, against the Fraction text."""

    @pytest.mark.parametrize("as_float", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("coeffs,measure,d", LEVEL_LINE_GRID,
                             ids=[f"{c}-{m}-{d}" for c, m, d in LEVEL_LINE_GRID])
    def test_lines_match_the_fraction_text(self, capsys, coeffs, measure, d, as_float):
        argv = ["solve", f"--coeffs={coeffs}", "--measure", measure, "--d", str(d)]
        want, spec, values = _solve_oracle(coeffs, measure, d, as_float)
        assert run(capsys, *argv, *(["--float"] if as_float else [])) == (0, want)
        self._assert_reduced(spec, values)

    @staticmethod
    def _assert_reduced(spec, values):
        for _, n, den in series.partial_pairs(spec, values):
            if den is not None:
                assert den > 0 and math.gcd(n, den) == 1, (spec, values, n, den)

    @settings(max_examples=80, deadline=None)
    @given(coeffs=st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=30),
                           min_size=1, max_size=4),
           measure=st.sampled_from(["vertex", "edge", "face"]),
           d=st.integers(min_value=0, max_value=18), as_float=st.booleans())
    def test_small_fractions(self, coeffs, measure, d, as_float):
        text = ",".join(map(str, coeffs))
        argv = ["solve", f"--coeffs={text}", "--measure", measure, "--d", str(d)]
        want, spec, values = _solve_oracle(text, measure, d, as_float)
        assert _main_captured(argv + (["--float"] if as_float else [])) == (0, want, "")
        self._assert_reduced(spec, values)


class TestCoefficientText:
    """A coefficient is read from ASCII text without '_', as a type vector entry is."""

    @pytest.mark.parametrize("text", ["\u0663", "1/\u0663", "1_0", "1/1_0", "\uff11", "1\u00a0"])
    def test_non_ascii_or_underscore_exits_2(self, capsys, text):
        with pytest.raises(SystemExit) as exc:
            main(["solve", f"--coeffs={text}", "--d", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: bad coefficient {text!r}\n")

    @pytest.mark.parametrize("text,value", [("+1/3", Fraction(1, 3)), (" 1/3", Fraction(1, 3)),
                                            ("1e-3", Fraction(1, 1000)), ("-1/3", Fraction(-1, 3))])
    def test_ascii_forms_are_read(self, capsys, text, value):
        code, out = run(capsys, "solve", f"--coeffs={text}", "--d", "1")
        assert code == 0
        assert out.splitlines()[1] == f"level   1: partial sum = {_fraction_text(1 + value)}"


class TestSubdigons:
    def test_count_with_split(self, capsys):
        code, out = run(capsys, "subdigons", "--type", "2,1")
        assert code == 0
        assert out.strip() == "21 split central-3:12 central-4:9"

    def test_list_single_triangle(self, capsys):
        _, out = run(capsys, "subdigons", "--type", "1", "--format", "list")
        assert out.split() == ["200"]

    def test_json_round_trips(self, capsys):
        _, out = run(capsys, "subdigons", "--type", "2", "--format", "json")
        words = json.loads(out)
        assert len(words) == 2
        for w in words:
            tree_of(w)

    def test_list_and_json_print_the_same_words(self, capsys):
        _, listed = run(capsys, "subdigons", "--type", "2,1", "--format", "list")
        _, dumped = run(capsys, "subdigons", "--type", "2,1", "--format", "json")
        assert listed.splitlines() == json.loads(dumped)
        assert dumped == json.dumps(listed.splitlines()) + "\n"

    @pytest.mark.parametrize("counts", ["150", "200", "2,2,1,1"])
    def test_count_from_empty_memo(self, capsys, counts):
        # a first count in a process needs none of the program's caches, even at 150
        # faces of one arity (a count memo filled from empty once ran out of stack there)
        subdigon._listing.cache_clear()
        m = TypeVector.from_counts(int(c) for c in counts.split(","))
        split = [f"central-{r + 1}:{central_count(m, r)}" for r, _ in m.items()]
        assert sum(central_count(m, r) for r, _ in m.items()) == count_trees(m)
        expected = f"{count_trees(m)} split {' '.join(split)}\n"
        assert run(capsys, "subdigons", "--type", counts) == (0, expected)

    @pytest.mark.parametrize("fmt", ["list", "json"])
    def test_list_after_a_parent_equals_a_fresh_list(self, capsys, fmt):
        # 2,1 is a child type of 2,2,1: listing the parent first leaves its listing as it was
        subdigon._listing.cache_clear()
        fresh = run(capsys, "subdigons", "--type", "2,1", "--format", fmt)
        subdigon._listing.cache_clear()
        assert run(capsys, "subdigons", "--type", "2,2,1", "--format", fmt)[0] == 0
        assert run(capsys, "subdigons", "--type", "2,1", "--format", fmt) == fresh

    def test_arity_above_9_is_comma_separated(self, capsys):
        code, out = run(capsys, "subdigons", "--type", "0,0,0,0,0,0,0,0,0,0,1", "--format", "list")
        assert (code, out) == (0, "12,0,0,0,0,0,0,0,0,0,0,0,0\n")
        assert run(capsys, "raney", "check", out.strip(), "--n", "1") == (0, "yes\n")

    def test_list_and_json_write_the_library_words(self, capsys):
        # every type of <= 5 faces over arities 2-5, and one in the comma form, arity 10
        types = [counts for counts in itertools.product(range(6), repeat=4) if sum(counts) <= 5]
        for counts in [*types, (0,) * 8 + (1,)]:
            words = subdigon.enumerate_subdigons(TypeVector.from_counts(counts))
            argv = ["subdigons", "--type", ",".join(map(str, counts)), "--format"]
            assert run(capsys, *argv, "list") == (0, "\n".join(words) + "\n"), counts
            assert run(capsys, *argv, "json") == (0, json.dumps(words) + "\n"), counts


class TestRaney:
    def test_rank(self, capsys):
        code, out = run(capsys, "raney", "rank", "0")
        assert code == 0 and out.strip() == "-1"
        assert run(capsys, "raney", "rank", "2 , 0 ,0") == (0, "-1\n")
        assert run(capsys, "raney", "rank", "1\n0") == (0, "-1\n")

    def test_check(self, capsys):
        code, out = run(capsys, "raney", "check", "202030100")
        assert code == 0 and out.strip() == "yes"
        code, out = run(capsys, "raney", "check", "020")
        assert code == 1 and out.strip() == "no"
        assert run(capsys, "raney", "check", "2\n0\n0") == (0, "yes\n")

    def test_identify_paper_example(self, capsys):
        code, out = run(capsys, "raney", "identify", "0030130010001000420",
                        "--cyclic")
        assert code == 0
        assert out.split() == ["(10)", "0", "0", "(4(200)0(30(1(300(10)))0)0)"]

    def test_identify_separates_the_items_of_a_wide_word(self, capsys):
        out = "(10 0 0 0 0 0 0 0 0 0 0)\n"
        assert run(capsys, "raney", "identify", ",".join(["10"] + ["0"] * 10)) == (0, out)

    def test_identify_linear_leaves_the_wrapped_head(self, capsys):
        out = "INCOMPLETE: unidentified symbols remain\n"
        assert run(capsys, "raney", "identify", "0030130010001000420") == (1, out)

    def test_enumerate(self, capsys):
        code, out = run(capsys, "raney", "enumerate", "--n", "1",
                        "--m2", "2", "--m3", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 22
        assert lines[0] == "20203000"
        assert lines[-1] == "total 21 (closed form 21)"

    def test_rotations(self, capsys):
        code, out = run(capsys, "raney", "rotations", "0002")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("n,counts", [
        (1, {}), (3, {1: 1, 2: 1}), (1, {2: 2, 3: 1}), (2, {1: 3, 2: 2, 3: 1}),
        (1, {2: 1, 9: 1}), (4, {1: 2, 5: 1}), (2, {1: 1, 2: 1, 4: 1, 9: 1}),
    ])
    def test_enumerate_writes_every_list_then_the_total(self, capsys, n, counts):
        c = Composition(counts.get(1, 0), TypeVector.of({k: v for k, v in counts.items() if k > 1}))
        lists = [format_string(s) for s in enumerate_lists_dfs(n, c)]
        total = f"total {len(lists)} (closed form {raney_count(n, c)})"
        argv = ["raney", "enumerate", "--n", str(n)]
        argv += [arg for k, v in counts.items() for arg in (f"--m{k}", str(v))]
        assert run(capsys, *argv) == (0, "\n".join([*lists, total]) + "\n")

    @pytest.mark.parametrize("string", [
        "0002", "00302000100", "0030130010001000420", "10,0,0,0,0,0,0,0,0,0,0,0,0",
        "0,0,12,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
    ])
    def test_rotations_print_each_rotation_in_format_string_form(self, capsys, string):
        sigma = parse_string(string)
        want = "".join(f"{off}: {format_string(rotate(sigma, off))}\n"
                       for off in sorted(list_rotations_scan(sigma)))
        assert run(capsys, "raney", "rotations", string) == (0, want)


    @pytest.mark.parametrize("string", ["\u00b2", "2,\u00b2", "\u0663\u0663", "1_0,0"])
    def test_non_ascii_digit_symbols_are_usage_errors(self, capsys, string):
        with pytest.raises(SystemExit) as exc:
            main(["raney", "rank", string])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "invalid literal" not in captured.err


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most three bytes of each write."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()
        self.offered = []

    def writable(self):
        return True

    def write(self, b):
        self.offered.append(len(b))
        self.data += bytes(b[:3])
        return min(len(b), 3)


def test_write_delivers_every_chunk_through_short_writes(monkeypatch):
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    monkeypatch.setattr(cli, "_CHUNK", 3)
    texts = ["0123456789" * 2, "", "\u00e9\u2014x\n[12]"]
    cli._write(*texts)
    assert bytes(raw.data) == "".join(texts).encode("utf-8")
    assert max(raw.offered) <= 4 * 3  # no write is offered more than one encoded chunk


class TestPowers:
    def test_identity(self, capsys):
        code, out = run(capsys, "powers", "--identity", "7")
        assert code == 0 and out.strip() == "ZERO"

    def test_coefficient(self, capsys):
        code, out = run(capsys, "powers", "--r", "2", "--m", "2")
        assert code == 0 and out.strip() == "5"

    def test_identity_nonzero_residual(self, capsys, monkeypatch):
        # C_3 raised by 1 raises T = T^1 by t^3, and only P_3 T reads T: t^{r-1} T^r is
        # the row at r = 3, so the residual is -P_3 t^3 = -(1 - t) t^3, cut at order 6
        powers = catpow._catalan_powers
        monkeypatch.setattr(catpow, "_catalan_powers", lambda r, n: [
            c + (r == 1 and k == 3) for k, c in enumerate(powers(r, n))])
        code, out = run(capsys, "powers", "--identity", "3", "--order", "6")
        assert code == 1 and out == "NONZERO residual: -t^3 + t^4\n"

    @pytest.mark.parametrize("argv,stdout", [
        (["coeff", "--type", "1", "--power", HUGE],
         f"type [m2=1]\nC = 1\nV = 3, E = 3, F = 1\nC^({HUGE}) = {HUGE}\n"),
        (["powers", "--r", HUGE, "--m", "1"], f"{HUGE}\n"),
    ], ids=["coeff-huge-power", "powers-huge-r"])
    def test_huge_power_of_one_triangle(self, capsys, argv, stdout):
        # r words over one triangle: a falling factorial of one factor, however large r is
        assert run(capsys, *argv) == (0, stdout)


# Python 3.11 (and 3.10.7 on) refuse to print an int of more than 4300 digits
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-str digit limit")
DIGIT_LIMIT_ERROR = ("error: result has more than 4300 digits, Python's int-to-str limit "
                     "(PYTHONINTMAXSTRDIGITS=0 lifts it)")
# math.perm forms no falling factorial of more than sys.maxsize (2^63 - 1 on 64-bit builds) factors
TOO_LARGE_ERROR = f"error: input too large to compute: k must not exceed {sys.maxsize}"
# a Raney string of two 4300-digit symbols, whose rank has 4301 digits
NINES = "9" * 4300 + "," + "9" * 4300


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["powers"], "error: powers needs --identity, or both --r and --m"),
        (["raney", "rotations", "111"], "error: rank 0 is not negative"),
        (["raney", "enumerate", "--n", "0"], "error: word count 0 < 1"),
        (["raney", "identify", "111"], "error: rank 0 is not negative"),
        (["raney", "check", "0", "--n", "0"], "error: word count 0 < 1"),
        (["raney", "enumerate", "--n", "1", "--m2", "-1"], "error: negative symbol count"),
        (["raney", "rank", "1x"], "error: not a digit string: '1x'"),
        (["powers", "--r", "0", "--m", "1"], "error: power 0 < 1"),
        (["powers", "--r", "1", "--m", "-1"], "error: negative index -1"),
        (["powers", "--identity", "0"], "error: power 0 < 1"),
        (["powers", "--identity", "2", "--order", "-1"], "error: negative order -1"),
        (["raney", "check", "2,-1,0"], "error: negative symbol -1"),
        (["raney", "identify", "0,-1,0"], "error: negative symbol -1"),
        (["raney", "rotations", "0,-1,0"], "error: negative symbol -1"),
        (["raney", "rank", ",0"], "error: bad symbol ''"),
        (["raney", "rank", "0,,0"], "error: bad symbol ''"),
        (["raney", "rank", "2,0,0,"], "error: bad symbol ''"),
        (["coeff", "--type", "1", "--power", "0"], "error: power 0 < 1"),
        (["subdigons", "--type", "9", "--format", "list"], "error: face count 9 exceeds cap 8"),
        (["subdigons", "--type", "9", "--format", "json"], "error: face count 9 exceeds cap 8"),
        (["subdigons", "--type", "1,1,1", "--format", "list", "--max-faces", "2"],
         "error: face count 3 exceeds cap 2"),
        (["solve", "--float", "--d", "2", "--coeffs=1e400"],
         "error: out of float range at level bound 2: integer division result too large for a float"),
        # binom(2F, F)/(F+1) outgrows a float (level ~515) before 3.0^F does (level ~646), and
        # the scaled pass names level 290, the first whose exact sum C_F 3^F is past 1.8e308
        (["solve", "--float", "--d", "700", "--coeffs=3"],
         "error: out of float range at level bound 700: level 290 sum is inf"),
        (["solve", "--float", "--d", "2", "--coeffs=1e300"],
         "error: out of float range at level bound 2: level 2 sum is inf"),
        # every level sum is finite, but alpha^6, alpha^7 and alpha^8 of the residual are not
        (["solve", "--float", "--coeffs=1/9,1/11,1/13,1/17,1/19,1/23,1/29", "--d", "300"],
         "error: out of float range at level bound 300: "
         "alpha^8 in the residual, alpha = 3.58029560155e+61"),
        # the level list of 10^17 entries is refused at once
        (["solve", "--coeffs", "1/5", "--d", "99999999999999999"],
         "error: input too large to compute: not enough memory"),
        *[pytest.param(argv, DIGIT_LIMIT_ERROR, marks=NEEDS_DIGIT_LIMIT) for argv in (
            ["coeff", "--type", "8000"],
            ["powers", "--r", "1", "--m", "8000"],
            ["solve", "--coeffs=1/7", "--d", "6000"],
            # the 4,456-digit denominator 13^4000 of the level lines, all formatted before any print
            ["solve", "--coeffs", "1/13", "--d", "4000"],
            ["subdigons", "--type", "8000"],
            ["raney", "rank", NINES],
            # the rank that identify and rotations name in their error
            ["raney", "identify", NINES],
            ["raney", "rotations", NINES],
        )],
        (["coeff", "--type", HUGE], TOO_LARGE_ERROR),
        (["subdigons", "--type", HUGE], TOO_LARGE_ERROR),
        (["powers", "--r", "1", "--m", HUGE], TOO_LARGE_ERROR),
    ], ids=["powers-without-arguments", "rotations-rank-0", "enumerate-n-0",
            "identify-rank-0", "check-n-0", "enumerate-negative-count", "rank-bad-digits",
            "powers-r-0", "powers-m-negative", "identity-0", "identity-negative-order",
            "check-negative-symbol", "identify-negative-symbol", "rotations-negative-symbol",
            "rank-empty-first-field", "rank-empty-inner-field", "rank-empty-last-field",
            "coeff-power-0", "subdigons-list-over-cap", "subdigons-json-over-cap",
            "subdigons-max-faces", "solve-float-coefficient-overflow", "solve-float-term-overflow",
            "solve-float-power-overflow", "solve-float-residual-overflow",
            "solve-huge-level-bound", "coeff-digit-limit", "powers-digit-limit",
            "solve-digit-limit", "solve-level-line-digit-limit", "subdigons-digit-limit",
            "rank-digit-limit", "identify-digit-limit", "rotations-digit-limit", "coeff-huge-type",
            "subdigons-huge-type", "powers-huge-m"])
    def test_exit_2_with_one_line_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


class TestLibraryErrors:
    """main reports the library's ValueErrors as usage errors, and nothing else."""

    @staticmethod
    def _fail_with(monkeypatch, error):
        def fail(m):
            raise error
        monkeypatch.setattr(cli, "hyper_catalan", fail)

    def test_value_error_exits_2_with_its_message(self, capsys, monkeypatch):
        self._fail_with(monkeypatch, ValueError("gon index 1 < 2"))
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--type", "2,1"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: gon index 1 < 2\n")

    def test_arithmetic_error_propagates(self, monkeypatch):
        self._fail_with(monkeypatch, ArithmeticError("non-exact division 7/2"))
        with pytest.raises(ArithmeticError, match="non-exact division 7/2"):
            main(["coeff", "--type", "2,1"])


class TestDeepWords:
    def test_check_long_unary_chain(self, capsys):
        code, out = run(capsys, "raney", "check", "1" * 1500 + "0")
        assert code == 0 and out == "yes\n"

    def test_identify_deep_word(self, capsys):
        code, out = run(capsys, "raney", "identify", "2" * 1200 + "0" * 1201)
        assert code == 0
        assert out == "(2" * 1200 + "0" + "0)" * 1200 + "\n"


    def test_enumerate_long_list(self, capsys):
        code, out = run(capsys, "raney", "enumerate", "--n", "1", "--m1", "1200")
        assert code == 0
        assert out.splitlines() == ["1" * 1200 + "0", "total 1 (closed form 1)"]


def _main_captured(argv, call=main):
    """(result, stdout, stderr) of call(argv), main by default; a SystemExit is read as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# how every one-line usage error that the program writes begins: its own
# messages and the library's ValueErrors; main reports any ValueError this
# way, so a stray one (such as int()'s "invalid literal") must fail the property test
USAGE_ERRORS = tuple("error: " + head for head in (
    "bad type vector ", "bad coefficient ", "out of float range ", "result has more than ",
    "input too large to compute: ", "powers needs --identity", "word count ",
    "negative symbol ", "bad symbol ", "not a digit string: ", "rank ", "power ",
    "negative index ", "negative order ", "face count ", "negative level bound ", "gon bound ",
    "face layering requires a gon bound",
))


def _pick(*strategies):
    """One of the strategies, each as likely: st.one_of would weigh a nested one_of by its
    branches."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


# The command-line grammar that the tests draw from: every command of cli._COMMANDS and
# every argument, with values from its type and choices, spelled well and not.  Only sizes
# and the free-text values are written here.
#
# Sizes, so that no call can run away: the largest value drawn for an int option, by name.
# Any other int option is a count, drawn up to COUNT, and a call is run only if its counts
# add up to at most COUNT_TOTAL (a Raney listing of at most 552 lists).  Ints start at -2.
SIZES = {"--d": 8, "--q": 6, "--max-faces": 6,
         **dict.fromkeys(["--power", "--r", "--m", "--identity", "--order"], 30)}
COUNT, COUNT_TOTAL = 3, 4
# values no argument takes as they are: empty, "--", a leading '-', '_' in digits, a non-ASCII digit
MALFORMED = ["", "--", "-", "-x", "1_0", "\u0663"]
# Raney strings: free text of at most 30 characters, and separated forms of at most 10
# symbols that may be negative or malformed
RANEY_TEXT = st.one_of(
    st.text(alphabet="0123456789, -", max_size=30),
    st.tuples(st.sampled_from([",", " ", ", "]), st.lists(
        st.one_of(st.integers(min_value=-2, max_value=4).map(str), st.sampled_from(MALFORMED)),
        max_size=10)).map(lambda parts: parts[0].join(parts[1])),
)
# type vectors of at most 4 counts of at most 3 and at most 5 faces (at most 46,512 subdigons)
TYPE_TEXT = st.lists(st.integers(min_value=-1, max_value=3), max_size=4).filter(
    lambda counts: sum(counts) <= 5).map(lambda counts: ",".join(map(str, counts)))
# lists of 1 to 6 coefficients, three good ones in four (an absent --coeffs is the empty list)
GOOD_COEFF = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(str, st.integers(-9, 9)),
    st.sampled_from(["0.25", "-0.1", "1e-3"]),
)
BAD_COEFF = st.one_of(st.sampled_from(["1e400", "1e300", "1/0", "", "x", "-"]),
                      st.text(alphabet="0123456789/-.", max_size=6))
COEFF_TEXT = st.lists(_pick(GOOD_COEFF, GOOD_COEFF, GOOD_COEFF, BAD_COEFF), min_size=1,
                      max_size=6).map(",".join)
TEXTS = {"--type": TYPE_TEXT, "--coeffs": COEFF_TEXT, "string": RANEY_TEXT}
ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# spellings of an int v that int() reads: plain, in non-ASCII digits, between spaces,
# with its sign, and with a '_'
SPELLINGS = [str, lambda v: str(v).translate(ARABIC_DIGITS), " {} ".format, "{:+}".format,
             lambda v: "-" * (v < 0) + f"0_{abs(v)}"]
# a choice misspelled: in the wrong case, abbreviated, after a '-'
MISSPELLINGS = [str.upper, str.title, lambda c: c[:2], "-{}".format]


def _spelled(values, spellings):
    return st.tuples(values, st.sampled_from(spellings)).map(lambda pair: pair[1](pair[0]))


def _values(name, options):
    """(good, bad): strategies of the values of an argument that its type and choices take, and
    of misspellings that they do not take (MALFORMED adds more)."""
    if "choices" in options:
        good = st.sampled_from(options["choices"])
        return good, _spelled(good, MISSPELLINGS)
    if "type" in options:  # ints at and next to their bounds one time in two
        top = SIZES.get(name, COUNT)
        n = _pick(st.integers(min_value=-2, max_value=top), st.sampled_from([-1, 0, 1, top]))
        return _spelled(n, SPELLINGS), n.map("{}.0".format)
    return TEXTS.get(name, st.text(max_size=8)), st.nothing()


def _items(name, options):
    """(plain, edge, well-formed): strategies of the words that give one argument.  Plain: its
    name in full and a value that its type and choices take, after a '=' if it starts with
    '-'.  Edge: no value, argparse's separator "--" in place of one, '=value', the name
    abbreviated, or a value that is not taken; for the positional, a value not taken or a
    "--" before a good one.  Well-formed: plain as _scan reads it, with no value empty or
    starting with '-'."""
    good, bad = _values(name, options)
    value = st.one_of(good, bad, st.sampled_from(MALFORMED))
    if name[0] != "-":  # the positional
        plain = good.map(lambda v: [v])
        edge = _pick(value.map(lambda v: [v]), good.map(lambda v: ["--", v]))
    elif options.get("action") == "store_true":
        flag = st.just([name])
        return flag, st.sampled_from([[name + "=1"], [name[:3]], [name[:-1]]]), flag
    else:
        named = st.sampled_from(sorted({name, name[:3], name[:-1]} - {"--"}))
        plain = good.map(lambda v: [f"{name}={v}"] if v[:1] == "-" else [name, v])
        edge = _pick(st.just([name]), st.just([name, "--"]), st.just([name + "=--"]),
                     st.tuples(named, value).map(lambda pair: ["=".join(pair)]),
                     st.tuples(named, value).map(list))
    return plain, edge, plain.filter(lambda words: words[-1][:1] not in ("", "-"))


def _required(arguments):
    return [name for name, options in arguments.items() if options.get("required") or name[0] != "-"]


# per command, per argument: whether it is required, and its plain, edge and well-formed words
GRAMMAR = {words: [(name in _required(arguments), *_items(name, options))
                   for name, options in arguments.items()]
           for words, (_, _, arguments) in cli._COMMANDS.items()}
# words no command takes: help and its abbreviation, "--", unknown words and options, and the
# words and arguments of every command
NOISE = _pick(
    st.sampled_from([["-h"], ["--he"], ["--"], ["bogus"], ["--bogus"], ["-x"],
                     *([word] for words in GRAMMAR for word in words)]),
    st.one_of(*(plain for arguments in GRAMMAR.values() for _, plain, _, _ in arguments)),
)


@st.composite
def _call(draw, words, well_formed=False):
    """An argv of one command: its words, then in any order its required arguments and each
    other argument one time in two.  If well_formed, all are as _scan reads them.  If not,
    the others are in their plain words, the required ones well-formed one time in two and
    else in plain words or left out, and one time in three an odd item is added: an
    argument's edge words, or noise."""
    arguments, items = GRAMMAR[words], []
    form = 2 if well_formed else draw(st.integers(0, 3))  # of the required: 0 out, 1 plain
    for required, plain, _, well in arguments:
        if required and form:
            items.append(draw(plain if form == 1 else well))
        elif not required and draw(st.booleans()):
            items.append(draw(well if well_formed else plain))
    if not (well_formed or draw(st.integers(0, 2))):
        items.append(draw(draw(st.sampled_from([*(edge for _, _, edge, _ in arguments), NOISE]))))
    return [*words, *itertools.chain(*draw(st.permutations(items)))]


# no command: bare, help, "--" or an unknown word, before any group's commands or none, then noise
HEADS = [[*group, word] for group in {words[:-1] for words in GRAMMAR}
         for word in ("-h", "--", "bogus")] + [[], ["raney"]]
ARGVS = st.one_of(
    *map(_call, GRAMMAR),
    st.tuples(st.sampled_from(HEADS), st.lists(NOISE, max_size=3)).map(
        lambda parts: [*parts[0], *itertools.chain(*parts[1])]),
)
WELL_FORMED = st.one_of(*(_call(words, well_formed=True) for words in GRAMMAR))


@settings(max_examples=1000, deadline=None)
@given(argv=ARGVS)
def test_one_pass_parse_matches_the_parser_tree(argv):
    # the same Namespace, or the same exit code, stdout and stderr
    assert _main_captured(argv, cli._parse) == _main_captured(argv, build_parser().parse_args)


@settings(max_examples=200, deadline=None)
@given(argv=WELL_FORMED)
def test_well_formed_calls_never_build_the_parser_tree(argv):
    build_parser.cache_clear()
    args = cli._parse(argv)
    assert build_parser.cache_info().currsize == 0
    assert args == build_parser().parse_args(argv)


def _words(args):
    """The command words of a parsed call, its key in cli._COMMANDS."""
    return tuple(filter(None, (args.command, getattr(args, "raney_cmd", None))))


def _counts(args):
    """The sum of the counts of a parsed call: the values of its int options not in SIZES."""
    return sum(max(getattr(args, name.lstrip("-").replace("-", "_")), 0)
               for name, options in cli._COMMANDS[_words(args)][2].items()
               if "type" in options and name not in SIZES)


# the commands whose verdict can fail, with exit 1; the others exit 0 or 2 on any input
VERDICTS = [("raney", "check"), ("raney", "identify")]


def _assert_exits_as_documented(argv):
    """Run argv, if its counts are within COUNT_TOTAL, and check its exit code, stdout and
    stderr, and the postconditions of verify, solve and subdigons."""
    args = _main_captured(argv, cli._parse)[0]
    parsed = isinstance(args, argparse.Namespace)
    if parsed:
        assume(_counts(args) <= COUNT_TOTAL)
    code, out, err = _main_captured(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, err
    if code == 2:
        # one error line, the last: argparse's after its usage, or the program's alone
        last = err.splitlines()[-1]
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == [last]
        assert (last.startswith("hypercatalan") and ": error: " in last
                or err == last + "\n" and last.startswith(USAGE_ERRORS)), err
    if not parsed:
        return
    words = _words(args)
    assert code != 1 or words in VERDICTS, (code, out)
    if code == 0 and words == ("verify",):
        assert out == "ZERO\n"
    if code == 0 and words == ("solve",):
        assert out.splitlines()[-1].startswith("residual = ")
    if words == ("subdigons",) and (code == 0 or err.startswith("error: face count ")):
        # a listing past its face cap is refused, by an error that names the cap
        faces = sum(int(p) for p in args.type.split(",") if p.strip())
        over = args.format != "count" and faces > args.max_faces
        assert err == (f"error: face count {faces} exceeds cap {args.max_faces}\n" if over else "")


@settings(max_examples=2500, deadline=None)
@given(argv=ARGVS)
def test_every_call_exits_as_documented(argv):
    _assert_exits_as_documented(argv)


def _calls(*commands):
    """The calls of these commands, drawn as in ARGVS."""
    return st.one_of(*(_call(words) for words in GRAMMAR if words[0] in commands))


# one command or group at a time, so that each has a share of examples of its own
@settings(max_examples=300, deadline=None)
@given(argv=_calls("raney"))
def test_raney_fuzz_exit_codes(argv):
    _assert_exits_as_documented(argv)


@settings(max_examples=200, deadline=None)
@given(argv=_calls("subdigons"))
def test_subdigons_fuzz_exit_codes(argv):
    _assert_exits_as_documented(argv)


@settings(max_examples=150, deadline=None)
@given(argv=_calls("verify", "table"))
def test_layering_fuzz_exit_codes(argv):
    _assert_exits_as_documented(argv)


@settings(max_examples=300, deadline=None)
@given(argv=_calls("solve"))
def test_solve_fuzz_exit_codes(argv):
    _assert_exits_as_documented(argv)


@settings(max_examples=150, deadline=None)
@given(argv=_calls("coeff"))
def test_coeff_fuzz_exit_codes(argv):
    _assert_exits_as_documented(argv)


@settings(max_examples=150, deadline=None)
@given(argv=_calls("powers"))
def test_powers_fuzz_exit_codes(argv):
    _assert_exits_as_documented(argv)


def test_parser_is_built_once():
    assert build_parser() is build_parser()
