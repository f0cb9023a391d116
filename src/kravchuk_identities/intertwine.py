"""Intertwining maps from the Weitzenbock derivation to the Kravchuk ones.

psi_ak1 transports ker(weitzenbock) into ker(kravchuk1) via the T(n,i)
coefficients, psi_ak2 into ker(kravchuk2) via B(n,k) = k! S(n,k).  Each map
is the function n -> psi(x_n), a linear form in x_0..x_n whose coefficient
of x_i is T(n,i) or B(n,i), and extends to Q[x0, x1, ...] by substitution.
Only the coefficient rows are kept; each call builds its linear form afresh.
"""

from .poly import Polynomial, generators


# kind -> {n: row n}, holding only the rows that were asked for.
_ROWS: dict = {}


def psi_row(kind: str, n: int) -> tuple:
    """Row n, indices 0..n, of T(n,i) = n! [z^n] tanh(z)^i (kind "ak1") or
    B(n,k) = n! [z^n] (e^z - 1)^k = k! S(n,k) (kind "ak2"), from the
    derivatives of the generating functions: T(n+1,i) = i (T(n,i-1) -
    T(n,i+1)) and B(n+1,k) = k (B(n,k) + B(n,k-1)), T(0,0) = B(0,0) = 1."""
    rows = _ROWS.setdefault(kind, {0: (1,)})
    if n in rows:
        return rows[n]
    # Step up from the highest cached row below n, keeping only the
    # previous row: a cold row n holds O(n) integers, not O(n^2).
    start = max(m for m in rows if m < n)
    row = rows[start]
    for m in range(start + 1, n + 1):
        prev = row + (0, 0)
        if kind == "ak1":
            row = (0,) + tuple(i * (prev[i - 1] - prev[i + 1]) for i in range(1, m + 1))
        else:
            row = (0,) + tuple(k * (prev[k] + prev[k - 1]) for k in range(1, m + 1))
    rows[n] = row
    return row


def build_psi(kind: str, n: int) -> Polynomial:
    """psi(x_n) for kind "ak1" or "ak2": the linear form sum_i row[i] x_i
    (row 0 is (1,), so psi(x_0) = x_0), built on each call from the kept
    row; no caller asks for the same psi(x_n) twice (see apply_psi; the
    conjecture-3 moments in identities read psi_row itself)."""
    if kind not in ("ak1", "ak2"):
        raise ValueError(f"unknown intertwining map kind: {kind!r}")
    return Polynomial.linear(dict(enumerate(psi_row(kind, n))))


def psi_ak1(n: int) -> Polynomial:
    return build_psi("ak1", n)


def psi_ak2(n: int) -> Polynomial:
    return build_psi("ak2", n)


def apply_psi(psi, p: Polynomial) -> Polynomial:
    """The ring homomorphism x_v -> psi(v) applied to p."""
    return p.substitute({v: psi(v) for v in generators(p)})
