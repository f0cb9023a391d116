"""Intertwining maps from the Weitzenbock derivation to the Kravchuk ones.

psi_ak1 transports ker(weitzenbock) into ker(kravchuk1) via the T(n,i)
coefficients, psi_ak2 into ker(kravchuk2) via B(n,k) = k! S(n,k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poly import Polynomial, var_name, xvar


@lru_cache(maxsize=None)
def _row(kind: str, n: int) -> tuple:
    """Row n, indices 0..n, of T(n,i) = n! [z^n] tanh(z)^i (kind "ak1") or
    B(n,k) = n! [z^n] (e^z - 1)^k = k! S(n,k) (kind "ak2"), from the
    derivatives of the generating functions: T(n+1,i) = i (T(n,i-1) -
    T(n,i+1)) and B(n+1,k) = k (B(n,k) + B(n,k-1)), T(0,0) = B(0,0) = 1."""
    if n == 0:
        return (1,)
    # Fill the cache from the bottom, so that a cold row never recurses
    # more than one call deep.
    for m in range(1, n - 1):
        _row(kind, m)
    prev = _row(kind, n - 1) + (0, 0)
    if kind == "ak1":
        return (0,) + tuple(i * (prev[i - 1] - prev[i + 1]) for i in range(1, n + 1))
    return (0,) + tuple(k * (prev[k] + prev[k - 1]) for k in range(1, n + 1))


def t_coeff(n: int, i: int) -> int:
    """T(n,i), the coefficient of x_i in psi_ak1(x_n)."""
    if not 1 <= i <= n:
        raise ValueError("need 1 <= i <= n")
    return _row("ak1", n)[i]


def b_coeff(n: int, k: int) -> int:
    """B(n,k) = k! S(n,k), the coefficient of x_k in psi_ak2(x_n)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _row("ak2", n)[k]


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
    if kind not in ("ak1", "ak2"):
        raise ValueError(f"unknown intertwining map kind: {kind!r}")
    images = [Polynomial.var(xvar(0))]
    for n in range(1, N + 1):
        row = _row(kind, n)
        images.append(
            Polynomial.sum(Polynomial.var(xvar(i)) * row[i] for i in range(1, n + 1))
        )
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

