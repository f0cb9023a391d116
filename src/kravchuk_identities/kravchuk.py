"""Kravchuk polynomials K_n(x, a), K_n on the slice a = 2x, the substitution
phi_K (x_i -> K_i) and the derivative expansions."""

from functools import lru_cache
from itertools import islice
from math import factorial

from . import derivations
from .poly import EXPONENT_LIMIT, X, ExponentOverflow, Polynomial, generators


def rows():
    """The integer coefficients of P_0, P_1, ... with P_n = n! K_n: item i
    of row n lists those of x^i a^j, j = 0..n-i.  P_0 = 1 and
        P_{m+1} = (a - 2x) P_m - m (a - m + 1) P_{m-1}
                = a (P_m - m P_{m-1}) - 2x P_m + m (m - 1) P_{m-1},
    so only the last two rows are held; a caller that sweeps n holds the
    generator and steps it once per n."""
    m, prev, cur = 0, [], [[1]]
    while True:
        yield cur
        c = m * (m - 1)
        step = []
        for i in range(m + 2):
            # Coefficient j of row i: r[j-1] - m q[j-1] + c q[j] - 2 s[j].
            r = cur[i] if i <= m else ()
            q = prev[i] if i < m else ()
            s = cur[i - 1] if i else (0,) * (m + 2)
            step.append([r1 - m * q1 + c * q0 - 2 * s0
                         for r1, q1, q0, s0 in zip((0, *r), (0, *q, 0), (*q, 0, 0), s)])
        m, prev, cur = m + 1, cur, step


def _check(n: int) -> None:
    """Refuse an n with no K_n, or with one whose x^n has no exponent field."""
    if n < 0:
        raise ValueError(f"kravchuk: n must be >= 0, got {n}")
    # x^n is a term, and its exponent would carry into the field of a.
    if n >= EXPONENT_LIMIT:
        raise ExponentOverflow()


# No caller in the package asks for one K_n twice (phi_K, the expansions and
# the sweeps step rows() themselves); the cache stays only because the
# benchmark tracer reads kravchuk.cache_info() (see ROADMAP item 6).
@lru_cache(maxsize=None)
def kravchuk(n: int) -> Polynomial:
    """K_n(x,a) = P_n / n!, from row n of rows(); Polynomial.from_xa_rows
    divides out the gcd, so K_n is in canonical form."""
    _check(n)
    return Polynomial.from_xa_rows(next(islice(rows(), n, None)), factorial(n))


def slice_numerators(row: list) -> list:
    """t_0..t_n with K_n(a/2, a) = sum_k t_k a^k / (2^n n!), read straight
    off row n of rows(), with no K_n built:
    t_k = sum_{i+j=k} P_n[i][j] 2^(n-i)."""
    n = len(row) - 1
    total = [0] * (n + 1)
    for i, coeffs in enumerate(row):
        total[i:] = [t + (c << (n - i)) for t, c in zip(total[i:], coeffs)]
    return total


def slice_polynomial(numerators: list, den: int, var: int) -> Polynomial:
    """sum_k numerators[k] a^k / den on the slice a = 2x, as a polynomial in
    var: as it stands for var = A, and sum_k 2^k numerators[k] x^k / den
    for var = X."""
    if var == X:
        return Polynomial.from_xa_rows([[t << k] for k, t in enumerate(numerators)], den)
    return Polynomial.from_xa_rows([numerators], den)


def phi_k(p: Polynomial) -> Polynomial:
    """Substitute x_i -> K_i(x,a) and expand: rows() is stepped once, up
    to p's highest generator, and K_v is packed for p's generators alone."""
    vs = generators(p)
    top = max(vs, default=0)
    _check(top)
    images = {v: Polynomial.from_xa_rows(row, factorial(v))
              for v, row in zip(range(top + 1), rows()) if v in vs}
    return p.substitute(images)


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
