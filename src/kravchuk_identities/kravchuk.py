"""Kravchuk polynomials K_n(x, a), the substitution phi_K (x_i -> K_i) and
the derivative expansions."""

from functools import lru_cache

from . import derivations
from .poly import A, X, Polynomial, generators


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


def phi_k(p: Polynomial) -> Polynomial:
    """Substitute x_i -> K_i(x,a) and expand."""
    return p.substitute({v: kravchuk(v) for v in generators(p)})


def _expansion(name: str, n: int, D, scale: int) -> Polynomial:
    """scale * phi_K(D(x_n)), a combination of K_0..K_{n-1}."""
    if n < 1:
        raise ValueError(f"{name}: n must be >= 1, got {n}")
    return phi_k(D(n)) * scale


def dKdx_expansion(n: int) -> Polynomial:
    """d/dx K_n = -2 phi_K(D_K1(x_n))."""
    return _expansion("dKdx_expansion", n, derivations.kravchuk1, -2)


def dKda_expansion(n: int) -> Polynomial:
    """d/da K_n = phi_K(D_K2(x_n))."""
    return _expansion("dKda_expansion", n, derivations.kravchuk2, 1)
