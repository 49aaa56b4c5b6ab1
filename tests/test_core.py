import ast
import random
from pathlib import Path

import hypercatalan
import pytest
from hypothesis import example, given, strategies as st

from hypercatalan.core import (
    Composition,
    TypeVector,
    central_count,
    hyper_catalan,
    power_coeff,
    raney_count,
    unit_type,
    vef,
)
from oracles import (central_count_factorial, hyper_catalan_factorial, power_coeff_factorial,
                     to_counts)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
           742900, 2674440, 9694845]


def tv(*counts):
    return TypeVector.from_counts(counts)


type_vectors = st.dictionaries(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=5),
    max_size=4,
).map(TypeVector.of)


class TestTypeVector:
    def test_canonical_no_zero_entries(self):
        assert TypeVector.from_counts([0, 1, 0]) == TypeVector(((3, 1),))
        assert TypeVector.from_counts([]) == TypeVector()

    def test_trailing_zeros_stripped_on_output(self):
        assert to_counts(TypeVector.from_counts([2, 1, 0, 0])) == [2, 1]
        assert to_counts(TypeVector()) == []

    def test_addition_identity_and_commutativity(self):
        a, b = tv(2, 1), tv(0, 3, 1)
        assert a + TypeVector() == a
        assert a + b == b + a
        assert (a + b).get(3) == 4

    def test_unit_type(self):
        assert unit_type(2) == tv(1)
        assert unit_type(5).get(5) == 1
        with pytest.raises(ValueError):
            unit_type(1)

    @given(type_vectors, type_vectors)
    def test_add_entrywise(self, a, b):
        s = a + b
        for k in range(2, 11):
            assert s.get(k) == a.get(k) + b.get(k)


class TestVEF:
    def test_null(self):
        assert vef(TypeVector()) == vef(TypeVector.from_counts([]))
        s = vef(TypeVector())
        assert (s.V, s.E, s.F) == (2, 1, 0)

    def test_fig_values(self):
        s = vef(tv(2, 1))
        assert (s.V, s.E, s.F) == (6, 8, 3)
        s = vef(tv(2, 1, 1))
        assert (s.V, s.E, s.F) == (9, 12, 4)

    def test_single_pentagon(self):
        s = vef(unit_type(4))
        assert (s.V, s.E, s.F) == (5, 5, 1)

    @given(type_vectors)
    def test_euler_relation(self, m):
        s = vef(m)
        assert s.V - s.E + s.F == 1


class TestHyperCatalan:
    def test_known_values(self):
        assert hyper_catalan(TypeVector()) == 1
        assert hyper_catalan(tv(2, 1)) == 21
        assert hyper_catalan(tv(2, 1, 1)) == 495
        assert hyper_catalan(tv(4)) == 14

    def test_catalan_specialization(self):
        for n, c in enumerate(CATALAN):
            assert hyper_catalan(TypeVector.of({2: n} if n else {})) == c

    @given(type_vectors)
    def test_integrality(self, m):
        # the internal divisibility assertion must never fire
        assert hyper_catalan(m) >= 1


class TestCentralCount:
    def test_paper_split(self):
        assert central_count(tv(2, 1), 2) == 12
        assert central_count(tv(2, 1), 3) == 9

    def test_zero_cases(self):
        assert central_count(TypeVector(), 2) == 0
        assert central_count(tv(2, 1), 4) == 0

    @given(type_vectors)
    def test_split_sums_to_total(self, m):
        if not m:
            return
        total = sum(central_count(m, r) for r, _ in m.items())
        assert total == hyper_catalan(m)


class TestPowerCoeff:
    def test_power_one_is_hyper_catalan(self):
        for m in [TypeVector(), tv(2, 1), tv(0, 0, 2), tv(3)]:
            assert power_coeff(m, 1) == hyper_catalan(m)

    def test_small_values(self):
        # [t2] S^3 = 3 and [t2^2] S^2 = 5, from expanding the truncations
        assert power_coeff(tv(1), 3) == 3
        assert power_coeff(tv(2), 2) == 5

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=10**30))
    @example(2, 10**30)
    @example(17, 10**30)
    def test_one_polygon_any_power(self, k, r):
        # r*(r-2+E)!/((r-2+V)! m!) with E = k + 1 = V: the gon sits in one of the r words
        assert power_coeff(unit_type(k), r) == r

    @given(type_vectors, st.integers(min_value=2, max_value=6))
    def test_equals_central_count_of_bumped_type(self, m, r):
        assert power_coeff(m, r) == central_count(m + unit_type(r), r)


class TestRaneyCount:
    def test_paper_examples(self):
        assert raney_count(1, Composition(0, tv(2, 1))) == 21
        assert raney_count(3, Composition(1, tv(1))) == 15
        assert raney_count(1, Composition()) == 1

    def test_composition_bookkeeping(self):
        c = Composition(0, tv(2, 1))
        assert c.zeros(1) == 5
        assert c.length(1) == 8

    @given(type_vectors, st.integers(min_value=1, max_value=5))
    def test_agrees_with_power_coeff(self, m, r):
        assert raney_count(r, Composition(0, m)) == power_coeff(m, r)


# the large closed-form bench types, past any enumeration
BENCH_TYPES = [(35, 0, 0, 0, 1), (18, 0, 0, 42, 3), (4, 0, 4, 8, 2)]


class TestFactorialForms:
    """Each count against the paper's own factorial form, not against another count."""

    @given(type_vectors, st.integers(min_value=1, max_value=9))
    def test_hypothesis_types(self, m, r):
        assert hyper_catalan(m) == hyper_catalan_factorial(m)
        assert power_coeff(m, r) == power_coeff_factorial(m, r)
        for k in range(2, 10):
            assert central_count(m, k) == central_count_factorial(m, k)

    @pytest.mark.parametrize("counts", BENCH_TYPES, ids=lambda c: ",".join(map(str, c)))
    def test_bench_types(self, counts):
        m = tv(*counts)
        assert hyper_catalan(m) == hyper_catalan_factorial(m)
        for r in range(1, 10):
            assert power_coeff(m, r) == power_coeff_factorial(m, r)
        for r in range(2, 10):
            assert central_count(m, r) == central_count_factorial(m, r)


def test_random_sweep_exactness():
    # broad seeded sweep: Euler + integrality across all closed forms
    rng = random.Random(20250823)
    for _ in range(1000):
        counts = {k: rng.randint(0, 5) for k in rng.sample(range(2, 10), 3)}
        m = TypeVector.of({k: v for k, v in counts.items() if v})
        s = vef(m)
        assert s.V - s.E + s.F == 1
        hyper_catalan(m)
        for r, _ in m.items():
            central_count(m, r)
        r = rng.randint(1, 5)
        assert power_coeff(m, r) == raney_count(r, Composition(0, m))


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no check that matters may rely on one
    found = []
    for path in sorted(Path(hypercatalan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
