"""Exact integer/rational combinatorics: binomials, Stirling numbers, S^(k).

Coefficients are Python ints (arbitrary precision); S^(k) is a
fractions.Fraction, imported by s_upper alone, which only the tests use.
"""

from functools import lru_cache
from math import comb, factorial


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside 0 <= k <= n.

    Polynomial (symbolic) arguments are handled by poly.binom_poly, not here.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def _stirling(first: bool, m: int, k: int) -> int:
    """s(m, k) if first, else S(m, k): [k = m] when k = 0 or k >= m, otherwise
    T(m-1, k-1) + w T(m-1, k) with w = -(m-1) for s and w = k for S."""
    if k == 0 or k >= m:
        return int(k == m)
    w = 1 - m if first else k
    return _stirling(first, m - 1, k - 1) + w * _stirling(first, m - 1, k)


def stirling_first(m: int, k: int) -> int:
    """Signed Stirling number of the first kind s(m, k)."""
    if m < 0 or k < 0:
        raise ValueError("stirling_first: arguments must be >= 0")
    return _stirling(True, m, k)


def stirling_second(n: int, j: int) -> int:
    """Stirling number of the second kind S(n, j)."""
    if n < 0 or j < 0:
        raise ValueError("stirling_second: arguments must be >= 0")
    return _stirling(False, n, j)


@lru_cache(maxsize=None)
def s_upper(k: int, n: int):
    """S^(k)(n) = sum_{m=k}^{n} C(n-1, m-1) * 2^m k!/m! * s(m, k), a Fraction.

    These are the coefficients of the expansion of (ln((1+z)/(1-z)))^k.
    """
    from fractions import Fraction

    if not 1 <= k <= n:
        raise ValueError(f"s_upper: need 1 <= k <= n, got k={k}, n={n}")
    total = Fraction(0)
    for m in range(k, n + 1):
        total += (
            binomial(n - 1, m - 1)
            * Fraction(2**m * factorial(k), factorial(m))
            * stirling_first(m, k)
        )
    return total


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1; (-1)!! = 1 (empty product)."""
    if n == -1:
        return 1
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double_factorial: n must be odd or -1, got {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result
