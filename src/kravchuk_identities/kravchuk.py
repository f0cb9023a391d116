"""Kravchuk polynomials K_n(x, a), K_n on the slice a = 2x, the substitution
phi_K (x_i -> K_i) and the derivative expansions."""

from functools import lru_cache
from math import factorial

from . import derivations
from .poly import A, EXPONENT_LIMIT, X, ExponentOverflow, Polynomial, generators


# (m, rows of P_{m-1}, rows of P_m) for the highest m built so far.
_top = None


def _rows(n: int) -> list:
    """The integer coefficients of P_n = n! K_n: rows[i][j] is that of
    x^i a^j, for j = 0..n-i.  P_0 = 1, P_1 = a - 2x and
        P_{m+1} = (a - 2x) P_m - m (a - m + 1) P_{m-1}
                = a (P_m - m P_{m-1}) - 2x P_m + m (m - 1) P_{m-1}.
    Only the highest pair of consecutive rows is kept: a request at or above
    it steps up from there, one below it from P_0 and P_1.
    """
    global _top
    if n < 2:
        return [[1]] if n == 0 else [[0, 1], [-2]]
    m, prev, cur = _top if _top and n >= _top[0] - 1 else (1, _rows(0), _rows(1))
    if n < m:
        return prev
    while m < n:
        c = m * (m - 1)
        rows = []
        for i in range(m + 2):
            # Coefficient j of row i: r[j-1] - m q[j-1] + c q[j] - 2 s[j].
            r = cur[i] if i <= m else ()
            q = prev[i] if i < m else ()
            s = cur[i - 1] if i else (0,) * (m + 2)
            rows.append([r1 - m * q1 + c * q0 - 2 * s0
                         for r1, q1, q0, s0 in zip((0, *r), (0, *q, 0), (*q, 0, 0), s)])
        m, prev, cur = m + 1, cur, rows
    if not _top or m > _top[0]:
        _top = m, prev, cur
    return cur


def _check(n: int) -> None:
    """Refuse an n with no K_n, or with one whose x^n has no exponent field."""
    if n < 0:
        raise ValueError(f"kravchuk: n must be >= 0, got {n}")
    # x^n is a term, and its exponent would carry into the field of a.
    if n >= EXPONENT_LIMIT:
        raise ExponentOverflow()


@lru_cache(maxsize=None)
def kravchuk(n: int) -> Polynomial:
    """K_n(x,a) = P_n / n!, packed once per n from the integer rows of P_n
    (see _rows) for the callers that reuse it (phi_K and the expansions);
    Polynomial.from_xa_rows divides out the gcd, so K_n is in canonical
    form."""
    _check(n)
    return Polynomial.from_xa_rows(_rows(n), factorial(n))


_clear_kravchuk = kravchuk.cache_clear


def _cache_clear():
    """Clear the cached K_n and the kept pair of rows."""
    global _top
    _clear_kravchuk()
    _top = None


kravchuk.cache_clear = _cache_clear


def slice_numerators(n: int) -> list:
    """t_0..t_n with K_n(a/2, a) = sum_k t_k a^k / (2^n n!), read straight
    off the rows of P_n = n! K_n (see _rows), with no K_n built:
    t_k = sum_{i+j=k} P_n[i][j] 2^(n-i)."""
    _check(n)
    total = [0] * (n + 1)
    for i, row in enumerate(_rows(n)):
        total[i:] = [t + (c << (n - i)) for t, c in zip(total[i:], row)]
    return total


def slice_polynomial(numerators: list, den: int, var: int) -> Polynomial:
    """sum_k numerators[k] a^k / den on the slice a = 2x, as a polynomial in
    var: as it stands for var = A, and sum_k 2^k numerators[k] x^k / den
    for var = X."""
    if var == X:
        return Polynomial.from_xa_rows([[t << k] for k, t in enumerate(numerators)], den)
    return Polynomial.from_xa_rows([numerators], den)


def on_slice(n: int, var: int) -> Polynomial:
    """K_n on the slice a = 2x as a polynomial in var: K_n(a/2, a) for var = A
    and K_n(x, 2x) for var = X, from slice_numerators(n) over 2^n n!; no K_n
    is built or cached."""
    if var not in (X, A):
        raise ValueError(f"on_slice: var must be X or A, got {var!r}")
    return slice_polynomial(slice_numerators(n), factorial(n) << n, var)


def phi_k(p: Polynomial) -> Polynomial:
    """Substitute x_i -> K_i(x,a) and expand."""
    # In ascending order, so _rows steps up from one K_v to the next.
    return p.substitute({v: kravchuk(v) for v in sorted(generators(p))})


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
