"""Intertwining maps from the Weitzenbock derivation to the Kravchuk ones.

psi_ak1 transports ker(weitzenbock) into ker(kravchuk1) via the T(n,i)
coefficients, psi_ak2 into ker(kravchuk2) via B(n,k) = k! S(n,k).  Each map
is the function n -> psi(x_n), a linear form in x_0..x_n whose coefficient
of x_i is T(n,i) or B(n,i), and extends to Q[x0, x1, ...] by substitution.
The coefficient rows come from one generator per sweep; nothing is kept
between calls.
"""

from itertools import count, islice

from .poly import Polynomial, generators


def psi_rows(kind: str):
    """Rows 0, 1, ... (row n has indices 0..n) of T(n,i) = n! [z^n] tanh(z)^i
    (kind "ak1") or B(n,k) = n! [z^n] (e^z - 1)^k = k! S(n,k) (kind "ak2"),
    from the derivatives of the generating functions: T(n+1,i) = i (T(n,i-1)
    - T(n,i+1)) and B(n+1,k) = k (B(n,k) + B(n,k-1)), T(0,0) = B(0,0) = 1.
    Only the last row is held, so row n costs O(n) integers."""
    if kind not in ("ak1", "ak2"):
        raise ValueError(f"unknown intertwining map kind: {kind!r}")
    row = (1,)
    for m in count(1):
        yield row
        prev = row + (0, 0)
        if kind == "ak1":
            row = (0,) + tuple(i * (prev[i - 1] - prev[i + 1]) for i in range(1, m + 1))
        else:
            row = (0,) + tuple(k * (prev[k] + prev[k - 1]) for k in range(1, m + 1))


def build_psi(kind: str, n: int) -> Polynomial:
    """psi(x_n) for kind "ak1" or "ak2", from row n of psi_rows(kind) (row 0
    is (1,), so psi(x_0) = x_0)."""
    return Polynomial.linear(dict(enumerate(next(islice(psi_rows(kind), n, None)))))


def psi_ak1(n: int) -> Polynomial:
    return build_psi("ak1", n)


def psi_ak2(n: int) -> Polynomial:
    return build_psi("ak2", n)


def apply_psi(kind: str, p: Polynomial) -> Polynomial:
    """The ring homomorphism x_v -> psi(x_v) of kind "ak1" or "ak2" applied
    to p: psi_rows(kind) is stepped once, up to p's highest generator, and
    psi(x_v) is built for p's generators alone."""
    vs = generators(p)
    top = max(vs, default=0)
    images = {v: Polynomial.linear(dict(enumerate(row)))
              for v, row in zip(range(top + 1), psi_rows(kind)) if v in vs}
    return p.substitute(images)
