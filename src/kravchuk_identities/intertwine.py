"""Intertwining maps from the Weitzenbock derivation to the Kravchuk ones.

psi_ak1 transports ker(weitzenbock) into ker(kravchuk1) via the T(n,i)
coefficients, psi_ak2 into ker(kravchuk2) via B(n,k) = k! S(n,k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import arith
from .poly import Polynomial, var_name, xvar


@lru_cache(maxsize=None)
def t_coeff(n: int, i: int) -> Fraction:
    """T(n,i) = sum_{j=i}^n (-1)^(j-i) 2^(n-j) j! S(n,j) C(j-1, i-1).

    T(1,1) = 1 per the image tables (the trivial map on x_1)."""
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    total = Fraction(0)
    for j in range(i, n + 1):
        total += (
            (-1) ** (j - i)
            * 2 ** (n - j)
            * factorial(j)
            * arith.stirling_second(n, j)
            * arith.binomial(j - 1, i - 1)
        )
    return total


def b_coeff(n: int, k: int) -> int:
    """B(n,k) = k! S(n,k)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return factorial(k) * arith.stirling_second(n, k)


@dataclass(frozen=True)
class LinearSubstitution:
    """images[n] = psi(x_n), each a linear form; extends to a ring
    homomorphism by substitution."""

    name: str
    images: tuple

    @property
    def max_index(self) -> int:
        return len(self.images) - 1


def build_psi(kind: str, N: int) -> LinearSubstitution:
    if N < 1:
        raise ValueError(f"build_psi: N must be >= 1, got {N}")
    if kind == "ak1":
        coeff = t_coeff
    elif kind == "ak2":
        coeff = b_coeff
    else:
        raise ValueError(f"unknown intertwining map kind: {kind!r}")
    images = [Polynomial.var(xvar(0))]
    for n in range(1, N + 1):
        img = Polynomial.zero()
        for i in range(1, n + 1):
            c = coeff(n, i)
            if c:
                img = img + Polynomial.var(xvar(i)) * c
        images.append(img)
    return LinearSubstitution(kind, tuple(images))


@lru_cache(maxsize=None)
def psi_ak1(N: int) -> LinearSubstitution:
    return build_psi("ak1", N)


@lru_cache(maxsize=None)
def psi_ak2(N: int) -> LinearSubstitution:
    return build_psi("ak2", N)


def apply_psi(psi: LinearSubstitution, p: Polynomial) -> Polynomial:
    for v in p.variables():
        if v > psi.max_index:
            raise ValueError(
                f"variable {var_name(v)} out of range for psi_{psi.name} "
                f"built on x0..x{psi.max_index}"
            )
    return p.substitute({v: psi.images[v] for v in p.variables()})

