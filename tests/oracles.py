"""Independent routes to objects the package computes one way.

Each function here is a slower or differently derived construction that the
tests compare against the package's single route.
"""

from fractions import Fraction

from kravchuk_identities import arith
from kravchuk_identities.derivations import kravchuk1, power_apply
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
