"""Kravchuk polynomials K_n(x, a) and their derivative expansions."""

from fractions import Fraction
from functools import lru_cache

from .poly import A, X, Polynomial


@lru_cache(maxsize=None)
def kravchuk(n: int) -> Polynomial:
    """K_n(x,a) from the three-term recurrence
    (m+1) K_{m+1} = (a - 2x) K_m - (a - m + 1) K_{m-1},  K_0 = 1, K_1 = a - 2x.
    """
    if n < 0:
        raise ValueError(f"kravchuk: n must be >= 0, got {n}")
    if n == 0:
        return Polynomial.one()
    a = Polynomial.var(A)
    k1 = a - 2 * Polynomial.var(X)
    if n == 1:
        return k1
    # Fill the cache from the bottom, so that a cold K_n never recurses
    # more than one call deep.
    for m in range(2, n - 1):
        kravchuk(m)
    return (k1 * kravchuk(n - 1) - (a - (n - 2)) * kravchuk(n - 2)) / n


def dKdx_expansion(n: int) -> Polynomial:
    """d/dx K_n as the combination -2 sum_{i=1}^n (1-(-1)^i)/(2i) K_{n-i}."""
    if n < 1:
        raise ValueError(f"dKdx_expansion: n must be >= 1, got {n}")
    total = Polynomial.zero()
    for i in range(1, n + 1):
        c = Fraction(1 - (-1) ** i, 2 * i)
        if c:
            total = total + kravchuk(n - i) * (-2 * c)
    return total


def dKda_expansion(n: int) -> Polynomial:
    """d/da K_n as the combination sum_{i=0}^{n-1} (-1)^(n+1+i)/(n-i) K_i."""
    if n < 1:
        raise ValueError(f"dKda_expansion: n must be >= 1, got {n}")
    total = Polynomial.zero()
    for i in range(n):
        total = total + kravchuk(i) * Fraction((-1) ** (n + 1 + i), n - i)
    return total
