"""Powers of the Catalan generating series, exactly and by reduction.

T = 1 + t T^2 lets every power of T be rewritten as a linear
combination P_r T + Q_r with polynomial coefficients; this module
holds the closed form for the power coefficients and a finite
truncated check of that reduction.  A univariate polynomial is a plain
list of coefficients, lowest degree first, and [] is zero; its one truncated
product is core._mul_cut, and core._poly_text prints a residual.  The check
advances the coefficients of T^r, and of T as T^1, by the ratio of consecutive
ones, and takes P_r and Q_r = -P_{r-1} from binomials.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb

from .core import TypeVector, _mul_cut, _poly_text, power_coeff


def residual_text(coeffs) -> str:
    """'1 - 3t + t^2' for the coefficients [1, -3, 1]; '0' for []."""
    return _poly_text(("t" if k == 1 else f"t^{k}" if k else "", c)
                      for k, c in enumerate(coeffs) if c)


def catalan_power(r: int, m: int) -> int:
    """Coefficient of t^m in T^r, (r/(2m+r)) * binom(2m+r, m): power_coeff of m triangles."""
    if r < 1:
        raise ValueError(f"power {r} < 1")
    if m < 0:
        raise ValueError(f"negative index {m}")
    return power_coeff(TypeVector.of({2: m}), r)


def _catalan_powers(r: int, n: int) -> list[int]:
    """The first n coefficients of T^r, c_0 = 1 and c_{m+1} = c_m (2m+r)(2m+r+1) / ((m+1)(m+r+1)).

    Each division is exact: the ratio of catalan_power(r, m + 1) to catalan_power(r, m).
    """
    row = [1] if n > 0 else []
    for m in range(n - 1):
        row.append(row[m] * (2 * m + r) * (2 * m + r + 1) // ((m + 1) * (m + r + 1)))
    return row


def _reduction_poly(n: int, d: int) -> list[int]:
    """P_n cut at order d: (-1)^j binom(n-1-j, j) at t^j, solving P_n = P_{n-1} - t P_{n-2}."""
    return [(-1) ** j * comb(n - 1 - j, j) for j in range(min(d, (n - 1) // 2) + 1)]


def verify_power_identity(r: int, d: int) -> list[int]:
    """Residual of t^{r-1} T^r = P_r T + Q_r, truncated at order d.

    T^r is _catalan_powers (none of t^{r-1} T^r is left once r - 1 > d), T is
    the same row at r = 1, P_r and Q_r = -P_{r-1} are _reduction_poly: P_r T,
    cut at d, is the one product.  The contract is [], the zero polynomial.
    """
    if r < 1:
        raise ValueError(f"power {r} < 1")
    if d < 0:
        raise ValueError(f"negative order {d}")
    lhs = [0] * min(r - 1, d + 1) + _catalan_powers(r, d - r + 2)
    rhs = _mul_cut(enumerate(_reduction_poly(r, d)), _catalan_powers(1, d + 1), d + 1)
    # Q_r = -P_{r-1}, so the residual is t^{r-1} T^r - P_r T + P_{r-1}
    out = [x - y + z for x, y, z in zip_longest(lhs, rhs, _reduction_poly(r - 1, d), fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out
