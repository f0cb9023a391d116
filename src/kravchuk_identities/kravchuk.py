"""Kravchuk polynomials K_n(x, a) and their derivative expansions."""

from functools import lru_cache

from . import derivations
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


def _phi_image(image: Polynomial) -> Polynomial:
    """phi_K of a linear form in the generators: x_i -> K_i."""
    return image.substitute({v: kravchuk(v) for v in image.variables()})


def dKdx_expansion(n: int) -> Polynomial:
    """d/dx K_n = -2 phi_K(D_K1(x_n)), a combination of K_0..K_{n-1}."""
    if n < 1:
        raise ValueError(f"dKdx_expansion: n must be >= 1, got {n}")
    return _phi_image(derivations.kravchuk1(n).images[n]) * -2


def dKda_expansion(n: int) -> Polynomial:
    """d/da K_n = phi_K(D_K2(x_n)), a combination of K_0..K_{n-1}."""
    if n < 1:
        raise ValueError(f"dKda_expansion: n must be >= 1, got {n}")
    return _phi_image(derivations.kravchuk2(n).images[n])
