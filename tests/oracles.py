"""Independent routes to objects the package computes one way.

Each function here is a slower or differently derived construction that the
tests compare against the package's single route.
"""

from fractions import Fraction
from math import factorial

from kravchuk_identities import arith, series
from kravchuk_identities.derivations import dk1_power_coeff, kravchuk1, power_apply
from kravchuk_identities.kravchuk import kravchuk
from kravchuk_identities.poly import A, X, Polynomial, binom_poly, exact_div, xvar


def kravchuk_binomial_sum(n: int) -> Polynomial:
    """K_n(x,a) = sum_{i=0}^n (-1)^i C(x,i) C(a-x, n-i), expanded."""
    x = Polynomial.var(X)
    a_minus_x = Polynomial.var(A) - x
    total = Polynomial.zero()
    for i in range(n + 1):
        term = binom_poly(x, i) * binom_poly(a_minus_x, n - i)
        total = total + term if i % 2 == 0 else total - term
    return total


def determinant_bareiss(matrix) -> Polynomial:
    """Fraction-free Bareiss elimination with exact polynomial division."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    sign = 1
    denom = Polynomial.one()
    for k in range(n - 1):
        if rows[k][k].is_zero:
            for i in range(k + 1, n):
                if not rows[i][k].is_zero:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero()
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * pivot - rows[i][k] * rows[k][j]
                rows[i][j] = exact_div(num, denom)
            rows[i][k] = Polynomial.zero()
        denom = pivot
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


def dk1_scale_by_iteration(k: int) -> Fraction:
    """The constant c with D_K1^k(x_k) = c * S^(k)(k) * x_0, read off the
    iterated derivation."""
    iterated = power_apply(kravchuk1(max(k, 1)), Polynomial.var(xvar(k)), k)
    return iterated.coeff(((xvar(0), 1),)) / arith.s_upper(k, k)


def _k_double_sum(n: int, coeff) -> Polynomial:
    """sum_i K_i sum_k coeff(k, n-i) K_1^k, skipping zero coefficients."""
    k1 = kravchuk(1)
    total = Polynomial.zero()
    for i in range(n + 1):
        inner = Polynomial.zero()
        for k in range(n - i + 1):
            c = coeff(k, n - i)
            if c:
                inner = inner + k1**k * c
        if not inner.is_zero:
            total = total + kravchuk(i) * inner
    return total


def conjecture1_double_sum(n: int) -> Polynomial:
    """phi_K(sigma(x_n)) for D_K1 from the closed power form:
    sum_i K_i sum_k (-1)^k/k! K_1^k S^(k)(n-i)/2^k.

    The printed S^(k) is off by the 2^-k normalization; with it the odd-n
    cases vanish exactly."""
    return _k_double_sum(
        n, lambda k, m: Fraction((-1) ** k, factorial(k)) * dk1_power_coeff(k, m)
    )


def conjecture2_double_sum(n: int) -> Polynomial:
    """phi_K(sigma(x_n)) for D_K2 from the closed power form:
    sum_i K_i sum_k (-1)^k/(n-i)! K_1^k s(n-i,k)."""
    return _k_double_sum(
        n, lambda k, m: Fraction((-1) ** k * arith.stirling_first(m, k), factorial(m))
    )


def t_genfun_oracle(i: int, N: int) -> list:
    """n! * [z^n] ((e^(2z)-1)/(e^(2z)+1))^i for n = i..N.

    Independent generating-function route to T(n,i)."""
    if not 1 <= i <= N:
        raise ValueError("need 1 <= i <= N")
    e2z = series.exp_series(2, N)
    f = (e2z - 1) / (e2z + 1)
    fi = f**i
    return [fi[n] * factorial(n) for n in range(i, N + 1)]


def b_genfun_oracle(k: int, N: int) -> list:
    """n! * [z^n] (e^z - 1)^k for n = k..N; matches B(n,k)."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    f = series.exp_series(1, N) - 1
    fk = f**k
    return [fk[n] * factorial(n) for n in range(k, N + 1)]
