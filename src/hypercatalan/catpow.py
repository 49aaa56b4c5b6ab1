"""Powers of the Catalan generating series, exactly and by reduction.

T = 1 + t T^2 lets every power of T be rewritten as a linear
combination P_r T + Q_r with polynomial coefficients; this module
holds the reduction polynomials, the closed form for the power
coefficients, and finite truncated checks of the identities.  The check
forms T^r by repeated squaring, each product cut at the order it needs,
and takes P_r and Q_r = -P_{r-1} from one pass of the recurrence.
"""

from __future__ import annotations

from math import comb

from .core import TypeVector, power_coeff


class UniPoly:
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return self.truncated_mul(other, len(self.coeffs) + len(other.coeffs))

    def truncated_mul(self, other: "UniPoly", order: int) -> "UniPoly":
        """(self * other).truncated(order), forming no term of degree above order."""
        n = max(order + 1, 0)  # the number of coefficients kept
        a, b = self.coeffs[:n], other.coeffs[:n]
        out = [0] * min(len(a) + len(b) - 1, n)
        for i, x in enumerate(a):
            if x:
                row = b[: len(out) - i]
                out[i : i + len(row)] = [o + x * y for o, y in zip(out[i : i + len(row)], row)]
        return UniPoly(out)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t^k."""
        return UniPoly((0,) * k + self.coeffs)

    def truncated(self, order: int) -> "UniPoly":
        """Drop all terms of degree above order."""
        return UniPoly(self.coeffs[: order + 1])

    def __str__(self):
        return _poly_text(("t" if k == 1 else f"t^{k}" if k else "", c)
                          for k, c in enumerate(self.coeffs) if c)


def _poly_text(terms) -> str:
    """'42t2^5 - t4' from (monomial text, coefficient) pairs in print order; '0' if none."""
    text = " + ".join(
        mono if c == 1 and mono else "-" + mono if c == -1 and mono else f"{c}{mono}"
        for mono, c in terms
    )
    return text.replace("+ -", "- ") if text else "0"


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError(f"negative index {n}")
    return comb(2 * n, n) // (n + 1)


def catalan_series(order: int) -> UniPoly:
    """T truncated at the given order."""
    return UniPoly(catalan(n) for n in range(order + 1))


def catalan_power(r: int, m: int) -> int:
    """Coefficient of t^m in T^r, (r/(2m+r)) * binom(2m+r, m): power_coeff of m triangles."""
    if r < 1:
        raise ValueError(f"power {r} < 1")
    if m < 0:
        raise ValueError(f"negative index {m}")
    return power_coeff(TypeVector.of({2: m}), r)


def _p_pair(r: int) -> tuple[UniPoly, UniPoly]:
    """(P_{r-1}, P_r) for r >= 1, from one pass of P_r = P_{r-1} - t P_{r-2}."""
    prev, cur = UniPoly.zero(), UniPoly.one()
    for _ in range(r - 1):
        prev, cur = cur, cur - prev.shift(1)
    return prev, cur


def p_poly(r: int) -> UniPoly:
    """P_0 = 0, P_1 = 1, P_r = P_{r-1} - t P_{r-2}."""
    if r < 0:
        raise ValueError(f"negative index {r}")
    return _p_pair(r)[1] if r else UniPoly.zero()


def q_poly(r: int) -> UniPoly:
    """Q_1 = 0 and Q_{r+1} = -P_r."""
    if r < 1:
        raise ValueError(f"power {r} < 1")
    return -_p_pair(r)[0]


def verify_power_identity(r: int, d: int) -> UniPoly:
    """Residual of t^{r-1} T^r = P_r T + Q_r, truncated at order d.

    T is truncated at order d, and T^r, formed by repeated squaring, at
    d - r + 1, the order that the shift by t^{r-1} moves to d; every
    product is cut there.  The contract is the zero polynomial.
    """
    if r < 1:
        raise ValueError(f"power {r} < 1")
    if d < 0:
        raise ValueError(f"negative order {d}")
    T, order = catalan_series(d), d - r + 1
    lhs, square, bits = UniPoly.one(), T, r
    while bits:
        if bits & 1:
            lhs = lhs.truncated_mul(square, order)
        bits >>= 1
        if bits:
            square = square.truncated_mul(square, order)
    prev, p = _p_pair(r)
    rhs = p.truncated_mul(T, d) - prev  # Q_r = -P_{r-1}
    return (lhs.shift(r - 1) - rhs).truncated(d)
