import random
from math import comb

import pytest

from hypercatalan import catpow
from hypercatalan.catpow import _catalan_powers, catalan_power, verify_power_identity
from hypercatalan.core import TypeVector, _mul_cut, hyper_catalan, power_coeff
from oracles import (
    UniPoly,
    catalan,
    catalan_power_factorial,
    catalan_series,
    p_poly,
    power_recurrence_check,
    q_poly,
)


class TestUniPoly:
    def test_normalization(self):
        assert UniPoly([1, 2, 0, 0]) == UniPoly([1, 2])
        assert UniPoly([0, 0]).degree is None
        assert not UniPoly()

    def test_arithmetic(self):
        p = UniPoly([1, 1])
        assert (p * p) == UniPoly([1, 2, 1])
        assert p - p == UniPoly()
        assert p.shift(2) == UniPoly([0, 0, 1, 1])
        assert (p * p).truncated(1) == UniPoly([1, 2])

    def test_str(self):
        assert str(UniPoly([1, -3, 1])) == "1 - 3t + t^2"
        assert str(UniPoly()) == "0"


class TestCatalan:
    def test_first_values(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_matches_hyper_catalan_specialization(self):
        for n in range(16):
            m = TypeVector.of({2: n} if n else {})
            assert catalan(n) == hyper_catalan(m)

    def test_series(self):
        assert catalan_series(3) == UniPoly([1, 1, 2, 5])

    def test_ratio_row_matches_closed_form(self):
        # the power check takes T as T^1
        assert _catalan_powers(1, 61) == [catalan(k) for k in range(61)]


class TestCatalanPower:
    def test_power_one(self):
        for m in range(10):
            assert catalan_power(1, m) == catalan(m)

    def test_ratio_row_matches_closed_form(self):
        # the power check advances T^r by the ratio of consecutive coefficients
        for r in range(1, 31):
            assert _catalan_powers(r, 61) == [catalan_power(r, m) for m in range(61)], r
            assert _catalan_powers(r, 0) == _catalan_powers(r, -3) == []

    def test_examples(self):
        # [t^2] of (1 + t + 2t^2 + 5t^3 + ...)^2
        assert catalan_power(2, 2) == 5
        assert catalan_power(3, 0) == 1

    def test_shift_law(self):
        # t T^2 = T - 1 gives [t^m] T^2 = C_{m+1}
        for m in range(21):
            assert catalan_power(2, m) == catalan(m + 1)

    def test_matches_truncated_multiplication(self):
        order = 15
        T = catalan_series(order)
        power = UniPoly.one()
        for r in range(1, 7):
            power = (power * T).truncated(order)
            for m in range(order + 1):
                assert power.coeff(m) == catalan_power(r, m)

    def test_matches_multivariate_power_coeff(self):
        for r in range(1, 6):
            for m in range(11):
                mv = TypeVector.of({2: m} if m else {})
                assert catalan_power(r, m) == power_coeff(mv, r) == catalan_power_factorial(r, m)


def _product(p, q):
    """The full product, coefficient by coefficient."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return UniPoly(out)


class TestTruncatedProducts:
    def test_truncated_mul_matches_full_product(self):
        # the kernel on plain lists, with zeros anywhere and empty factors
        rng = random.Random(3)
        for _ in range(300):
            p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
            q = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
            full = _product(UniPoly(p), UniPoly(q))
            assert UniPoly(p) * UniPoly(q) == full
            terms = [(j, a) for j, a in enumerate(p) if a]
            for order in range(-2, 20):
                want = list(full.truncated(order).coeffs) if order >= 0 else []
                assert _mul_cut(terms, q, order + 1) == want, (p, q, order)
                assert _mul_cut(terms[::-1], q, order + 1) == want, (p, q, order)

    def test_residual_matches_untruncated_chain(self):
        # T at order 60, its powers by full products, truncated only at the end
        T = catalan_series(60)
        power = UniPoly.one()
        for r in range(1, 31):
            power = _product(power, T)
            residual = power.shift(r - 1) - (_product(p_poly(r), T) + q_poly(r))
            for d in range(61):
                assert verify_power_identity(r, d) == list(residual.truncated(d).coeffs), (r, d)


class TestReductionPolys:
    def test_base_cases(self):
        assert p_poly(0) == UniPoly()
        assert p_poly(1) == UniPoly.one()
        assert q_poly(1) == UniPoly()
        assert p_poly(2) == UniPoly.one()
        assert q_poly(2) == UniPoly([-1])

    def test_p5(self):
        assert p_poly(5) == UniPoly([1, -3, 1])

    @pytest.mark.parametrize("r", range(1, 31))
    def test_degree(self, r):
        assert p_poly(r).degree == (r - 1) // 2

    def test_q_is_shifted_p(self):
        for r in range(2, 12):
            assert q_poly(r) == -p_poly(r - 1)


class TestPowerIdentity:
    def test_trivial_r1(self):
        assert verify_power_identity(1, 25) == []

    @pytest.mark.parametrize("r", range(1, 11))
    def test_zero_residual(self, r):
        assert verify_power_identity(r, 20) == []

    def test_r2_is_defining_quadratic(self):
        assert verify_power_identity(2, 10) == []

    def test_power_far_past_the_order(self):
        assert verify_power_identity(10**12, 20) == []

    def test_left_side_empty_matches_oracle_chain(self):
        # for r > d + 1 nothing of t^{r-1} T^r is left, and the residual is -(P_r T + Q_r)
        T = catalan_series(60)
        for r in range(3, 301):
            rhs = p_poly(r) * T + q_poly(r)
            for d in range(min(r - 1, 61)):
                assert verify_power_identity(r, d) == list((-rhs).truncated(d).coeffs), (r, d)


class TestCorruptedForms:
    """A wrong coefficient on either side leaves the residual the closed forms predict."""

    @pytest.mark.parametrize("r,n", [(1, 0), (3, 3), (4, 0), (6, 5), (9, 2)])
    def test_bumped_catalan(self, monkeypatch, r, n):
        # T = T^1 gains t^n, which only P_r T reads when r > 1: the residual is -P_r t^n.
        # At r = 1 the left side T^1 gains it too, and P_1 = 1 cancels it
        monkeypatch.setattr(catpow, "_catalan_powers", lambda s, size: [
            c + (s == 1 and k == n) for k, c in enumerate(_catalan_powers(s, size))])
        for d in range(16):
            got = verify_power_identity(r, d)
            if r == 1:
                assert got == [], (n, d)
                continue
            assert got == list((-p_poly(r).shift(n)).truncated(d).coeffs), (r, n, d)
            if n <= d:  # first seen at order n, since P_r(0) = 1
                assert got[: n + 1] == [0] * n + [-1]

    @pytest.mark.parametrize("r,m", [(1, 0), (2, 3), (5, 0), (7, 4)])
    def test_bumped_catalan_power(self, monkeypatch, r, m):
        # [t^m] T^r raised by 1 raises the left side by t^{r-1+m}; at r = 1 it raises T
        # too, and P_1 T = T cancels it
        monkeypatch.setattr(catpow, "_catalan_powers", lambda s, size: [
            c + (s == r and k == m) for k, c in enumerate(_catalan_powers(s, size))])
        for d in range(16):
            want = [0] * (r - 1 + m) + [1] if r > 1 and r - 1 + m <= d else []
            assert verify_power_identity(r, d) == want, (r, m, d)

    def test_bumped_reduction_binomial(self, monkeypatch):
        # binom(n-1-j, j) is |[t^j] P_n|, and catpow reads no other binomial.  Raising it by 1
        # adds (-1)^j t^j to P_n: for n = r the residual gains -(-1)^j t^j T, for n = r - 1
        # (P_{r-1} = -Q_r) it gains (-1)^j t^j
        T = catalan_series(12)
        for r in range(2, 14):
            for n, sign in ((r, -1), (r - 1, 1)):
                for j in range((n - 1) // 2 + 1):
                    bumped = (n - 1 - j, j)
                    monkeypatch.setattr(catpow, "comb", lambda a, b: comb(a, b) + ((a, b) == bumped))
                    term = UniPoly([0] * j + [sign * (-1) ** j])
                    want = (term * T if n == r else term).truncated(12)
                    assert verify_power_identity(r, 12) == list(want.coeffs), (r, n, j)


class TestRecurrence:
    def test_examples(self):
        assert catalan_power(2, 1) - catalan_power(1, 1) == 1 == catalan_power(3, 0)
        assert power_recurrence_check(3, 0)
        assert power_recurrence_check(4, 2)
        assert power_recurrence_check(3, 5)

    def test_full_range(self):
        for r in range(3, 11):
            for m in range(16):
                assert power_recurrence_check(r, m)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            power_recurrence_check(2, 0)
