"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; any assertion failure marks the criterion FAILED.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from hypercatalan.catpow import catalan_power, verify_power_identity
from hypercatalan.cli import main
from hypercatalan.core import (
    Composition,
    TypeVector,
    central_count,
    hyper_catalan,
    power_coeff,
    raney_count,
)
from hypercatalan.raney import (
    enumerate_lists,
    identify_words,
    is_word_list,
    list_rotations,
    parse_string,
    rank,
    render,
)
from hypercatalan.series import (
    LayerSpec,
    Measure,
    build_beta,
    geode_quotient,
    mul_truncated,
    table_rows,
)
from hypercatalan.subdigon import count_subdigons, enumerate_subdigons
from oracles import (UniPoly, catalan_power_factorial, catalan_series, central_arity, count_trees,
                     geode, poly, rotate, tree_of, unpacked)


def tv(*counts):
    return TypeVector.from_counts(counts)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_closed_form_fidelity():
    hyper_catalan(tv(1))  # warm the import path before timing
    start = time.perf_counter()
    a = hyper_catalan(tv(2, 1))
    b = hyper_catalan(tv(2, 1, 1))
    elapsed = time.perf_counter() - start
    assert a == 21
    assert b == 495
    assert elapsed < 1e-3
    report(1, f"C[2,1]=21 and C[2,1,1]=495 in {elapsed * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for counts in itertools.product(range(7), repeat=5):
        if sum(counts) > 6:
            continue
        m = TypeVector.from_counts(counts)
        assert count_subdigons(m) == count_trees(m), m
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(2, f"count_subdigons == the tree recursion on {checked} types in {elapsed:.1f} s")


def test_criterion_3_layering_zeros(capsys):
    start = time.perf_counter()
    runs = [
        ["verify", "--measure", "vertex", "--d", "5"],
        ["verify", "--measure", "edge", "--d", "8"],
        ["verify", "--measure", "face", "--d", "4", "--q", "3"],
    ]
    runs += [["verify", "--measure", "vertex", "--d", str(d)] for d in range(8)]
    runs += [["verify", "--measure", "edge", "--d", str(d)] for d in range(10)]
    runs += [
        ["verify", "--measure", "face", "--d", str(d), "--q", str(q)]
        for d in range(6) for q in range(2, 6)
    ]
    for argv in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "ZERO", argv
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    with capsys.disabled():
        report(3, f"{len(runs)} layering verifications ZERO in {elapsed:.1f} s")


# every printed coefficient of the three layer tables, keyed by row label
VERTEX_TABLE = {
    "[v^0] total": [],
    "[v^1] t2 b^2": [(1, [1])],
    "[v^1] total": [(1, [1])],
    "[v^2] t2 b^2": [(2, [2])],
    "[v^2] t3 b^3": [(1, [0, 1])],
    "[v^2] total": [(2, [2]), (1, [0, 1])],
    "[v^3] t2 b^2": [(5, [3]), (2, [1, 1])],
    "[v^3] t3 b^3": [(3, [1, 1])],
    "[v^3] t4 b^4": [(1, [0, 0, 1])],
    "[v^3] total": [(5, [3]), (5, [1, 1]), (1, [0, 0, 1])],
    "[v^4] t2 b^2": [(14, [4]), (12, [2, 1]), (2, [1, 0, 1])],
    "[v^4] t3 b^3": [(9, [2, 1]), (3, [0, 2])],
    "[v^4] t4 b^4": [(4, [1, 0, 1])],
    "[v^4] t5 b^5": [(1, [0, 0, 0, 1])],
    "[v^4] total": [(14, [4]), (21, [2, 1]), (6, [1, 0, 1]), (3, [0, 2]),
                    (1, [0, 0, 0, 1])],
    "[v^5] t2 b^2": [(42, [5]), (56, [3, 1]), (14, [2, 0, 1]), (7, [1, 2]),
                     (2, [1, 0, 0, 1])],
    "[v^5] t3 b^3": [(28, [3, 1]), (21, [1, 2]), (3, [0, 1, 1])],
    "[v^5] t4 b^4": [(14, [2, 0, 1]), (4, [0, 1, 1])],
    "[v^5] t5 b^5": [(5, [1, 0, 0, 1])],
    "[v^5] t6 b^6": [(1, [0, 0, 0, 0, 1])],
    "[v^5] total": [(42, [5]), (84, [3, 1]), (28, [2, 0, 1]), (28, [1, 2]),
                    (7, [1, 0, 0, 1]), (7, [0, 1, 1]), (1, [0, 0, 0, 0, 1])],
}

EDGE_TABLE = {
    "[e^0] total": [],
    "[e^1] total": [],
    "[e^2] t2 b^2": [(1, [1])],
    "[e^2] total": [(1, [1])],
    "[e^3] t3 b^3": [(1, [0, 1])],
    "[e^3] total": [(1, [0, 1])],
    "[e^4] t2 b^2": [(2, [2])],
    "[e^4] t4 b^4": [(1, [0, 0, 1])],
    "[e^4] total": [(2, [2]), (1, [0, 0, 1])],
    "[e^5] t2 b^2": [(2, [1, 1])],
    "[e^5] t3 b^3": [(3, [1, 1])],
    "[e^5] t5 b^5": [(1, [0, 0, 0, 1])],
    "[e^5] total": [(5, [1, 1]), (1, [0, 0, 0, 1])],
    "[e^6] t2 b^2": [(5, [3]), (2, [1, 0, 1])],
    "[e^6] t3 b^3": [(3, [0, 2])],
    "[e^6] t4 b^4": [(4, [1, 0, 1])],
    "[e^6] t6 b^6": [(1, [0, 0, 0, 0, 1])],
    "[e^6] total": [(5, [3]), (6, [1, 0, 1]), (3, [0, 2]), (1, [0, 0, 0, 0, 1])],
    "[e^7] t2 b^2": [(12, [2, 1]), (2, [1, 0, 0, 1])],
    "[e^7] t3 b^3": [(9, [2, 1]), (3, [0, 1, 1])],
    "[e^7] t4 b^4": [(4, [0, 1, 1])],
    "[e^7] t5 b^5": [(5, [1, 0, 0, 1])],
    "[e^7] t7 b^7": [(1, [0, 0, 0, 0, 0, 1])],
    "[e^7] total": [(21, [2, 1]), (7, [1, 0, 0, 1]), (7, [0, 1, 1]),
                    (1, [0, 0, 0, 0, 0, 1])],
    "[e^8] t2 b^2": [(14, [4]), (14, [2, 0, 1]), (7, [1, 2]), (2, [1, 0, 0, 0, 1])],
    "[e^8] t3 b^3": [(21, [1, 2]), (3, [0, 1, 0, 1])],
    "[e^8] t4 b^4": [(14, [2, 0, 1]), (4, [0, 0, 2])],
    "[e^8] t5 b^5": [(5, [0, 1, 0, 1])],
    "[e^8] t6 b^6": [(6, [1, 0, 0, 0, 1])],
    "[e^8] t8 b^8": [(1, [0, 0, 0, 0, 0, 0, 1])],
    "[e^8] total": [(14, [4]), (28, [2, 0, 1]), (28, [1, 2]), (8, [1, 0, 0, 0, 1]),
                    (8, [0, 1, 0, 1]), (4, [0, 0, 2]), (1, [0, 0, 0, 0, 0, 0, 1])],
}

FACE_TABLE = {
    "[f^0] total": [],
    "[f^1] t2 b^2": [(1, [1])],
    "[f^1] t3 b^3": [(1, [0, 1])],
    "[f^1] total": [(1, [1]), (1, [0, 1])],
    "[f^2] t2 b^2": [(2, [2]), (2, [1, 1])],
    "[f^2] t3 b^3": [(3, [1, 1]), (3, [0, 2])],
    "[f^2] total": [(2, [2]), (5, [1, 1]), (3, [0, 2])],
    "[f^3] t2 b^2": [(5, [3]), (12, [2, 1]), (7, [1, 2])],
    "[f^3] t3 b^3": [(9, [2, 1]), (21, [1, 2]), (12, [0, 3])],
    "[f^3] total": [(5, [3]), (21, [2, 1]), (28, [1, 2]), (12, [0, 3])],
    "[f^4] t2 b^2": [(14, [4]), (56, [3, 1]), (72, [2, 2]), (30, [1, 3])],
    "[f^4] t3 b^3": [(28, [3, 1]), (108, [2, 2]), (135, [1, 3]), (55, [0, 4])],
    "[f^4] total": [(14, [4]), (84, [3, 1]), (180, [2, 2]), (165, [1, 3]),
                    (55, [0, 4])],
}


@pytest.mark.parametrize("spec,expected", [
    (LayerSpec(Measure.VERTEX, 5), VERTEX_TABLE),
    (LayerSpec(Measure.EDGE, 8), EDGE_TABLE),
    (LayerSpec(Measure.FACE, 4, 3), FACE_TABLE),
])
def test_criterion_4_table_reproduction(spec, expected):
    got = {label: unpacked(bucket, spec) for label, bucket in table_rows(spec)}
    assert set(got) == set(expected)
    for label, terms in expected.items():
        assert got[label] == poly(*terms), label
    report(4, f"{spec.measure.value} table matches all {len(expected)} printed rows")


def test_criterion_5_central_polygon_split():
    subs = [tree_of(w) for w in enumerate_subdigons(tv(2, 1))]
    split = {}
    for s in subs:
        split[central_arity(s)] = split.get(central_arity(s), 0) + 1
    assert split == {2: 12, 3: 9}
    assert central_count(tv(2, 1), 2) == 12
    assert central_count(tv(2, 1), 3) == 9
    report(5, "21 subdigons of type [2,1] split 12/9 by central polygon")


def test_criterion_6_raney_lemma_and_identification():
    rng = random.Random(20250823)
    checked = 0
    while checked < 500:
        length = rng.randint(1, 12)
        sigma = tuple(rng.randint(0, 4) for _ in range(length))
        n = -rank(sigma)
        if not 1 <= n <= 5:
            continue
        offsets = list_rotations(sigma)
        assert len(offsets) == n
        for off in range(length):
            assert is_word_list(rotate(sigma, off), n) == (off in offsets)
        checked += 1

    items = identify_words(parse_string("0030130010001000420"), cyclic=True)
    words = [render(w) for _, w in items]
    assert len(words) == 4
    assert words[:3] == ["(10)", "0", "0"]
    # the fourth word: 4 followed by (200) [wrapping], 0, the 9-symbol
    # triquad word, 0; the bracketing invariant (head i, then i identified
    # words) pins the closing parens
    assert words[3] == "(4(200)0(30(1(300(10)))0)0)"
    assert items[3][1] == (4, 2, 0, 0, 0, 3, 0, 1, 3, 0, 0, 1, 0, 0, 0)
    report(6, "Raney lemma on 500 random strings; 4-word identification exact")


def test_criterion_7_raney_enumeration():
    words = enumerate_lists(1, Composition(0, tv(2, 1)))
    expected_words = {
        "20203000", "20230000", "20300200", "20302000", "20320000", "22003000",
        "22030000", "22300000", "23000200", "23002000", "23020000", "23200000",
        "30020200", "30022000", "30200200", "30202000", "30220000", "32000200",
        "32002000", "32020000", "32200000",
    }
    assert set(words) == expected_words

    lists = enumerate_lists(3, Composition(1, tv(1)))
    expected_lists = {
        "001200", "002010", "002100", "010200", "012000", "020010", "020100",
        "021000", "100200", "102000", "120000", "200010", "200100", "201000",
        "210000",
    }
    assert set(lists) == expected_lists

    assert factorial(8) // (factorial(5) * factorial(2)) == 168
    assert factorial(6) // (factorial(4) * factorial(1) * factorial(1)) == 30
    report(7, "21 words and 15 three-word lists enumerated exactly")


def test_criterion_8_catalan_powers():
    for r in range(1, 11):
        assert verify_power_identity(r, 20) == [], r

    order = 15
    T = catalan_series(order)
    power = UniPoly.one()
    for r in range(1, 7):
        power = (power * T).truncated(order)
        for m in range(order + 1):
            assert power.coeff(m) == catalan_power(r, m) == catalan_power_factorial(r, m), (r, m)

    for r in range(3, 11):
        for m in range(16):
            assert catalan_power(r, m) == (
                catalan_power(r - 1, m + 1) - catalan_power(r - 2, m + 1)
            ), (r, m)
    report(8, "reduction identity, truncated products and recurrence all exact")


def test_criterion_9_power_coefficients():
    spec = LayerSpec(Measure.FACE, 5, 5)
    beta = build_beta(spec)
    power = beta
    for r in range(1, 6):
        if r > 1:
            power = mul_truncated(power, beta, spec)
        for m, c in power.terms.items():
            assert c == power_coeff(m, r), (m, r)
            assert c == raney_count(r, Composition(0, m)), (m, r)
    report(9, "power coefficients match truncated products and Raney counts")


def test_criterion_10_numeric_solve(capsys):
    start = time.perf_counter()
    assert main(["solve", "--coeffs", "1/5", "--measure", "vertex", "--d", "40"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    alpha = residual = None
    for line in out.splitlines():
        if line.startswith("alpha = "):
            alpha = Fraction(line.split("=")[1].split("~")[0].strip())
        if line.startswith("residual = "):
            residual = Fraction(line.split("=")[1].split("~")[0].strip())
    assert abs(float(alpha) - 1.3819660113) < 1e-4
    assert abs(float(residual)) < 1e-4
    assert elapsed < 1
    with capsys.disabled():
        report(10, f"alpha within 1e-4 of the quadratic root in {elapsed:.2f} s")


def test_criterion_11_geode_divisibility():
    for q in range(2, 5):
        for d in range(1, 6):
            geode_quotient(d, q)  # raises NonzeroRemainder on failure
    assert geode(2, 3) == poly((2, [1]), (3, [0, 1]))
    report(11, "Geode quotients exact for d <= 5, q <= 4; d=2,q=3 is 2t2+3t3")
