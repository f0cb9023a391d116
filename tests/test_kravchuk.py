import sys
from fractions import Fraction
from math import factorial

from kravchuk_identities.kravchuk import dKda_expansion, dKdx_expansion, kravchuk
from kravchuk_identities.poly import A, Polynomial, X, binom_poly, xvar

from oracles import kravchuk_binomial_sum

x = Polynomial.var(X)
a = Polynomial.var(A)


def test_k0_k1_k2():
    assert kravchuk(0) == Polynomial.one()
    assert kravchuk(1) == a - 2 * x
    assert kravchuk(2) == 2 * x**2 - 2 * a * x + (a**2 - a) / 2


def test_dkdx_low_orders():
    assert dKdx_expansion(1) == -2 * kravchuk(0)
    assert dKdx_expansion(2) == -2 * kravchuk(1)
    assert dKdx_expansion(3) == -2 * (kravchuk(2) + kravchuk(0) * Fraction(1, 3))


def test_dkda_low_orders():
    assert dKda_expansion(1) == kravchuk(0)
    assert dKda_expansion(2) == kravchuk(1) - kravchuk(0) / 2
    assert dKda_expansion(3) == (
        kravchuk(0) / 3 - kravchuk(1) / 2 + kravchuk(2)
    )


def test_expansions_match_formal_derivatives():
    for n in range(1, 16):
        kn = kravchuk(n)
        assert kn.diff(X) == dKdx_expansion(n)
        assert kn.diff(A) == dKda_expansion(n)


def test_boundary_evaluations():
    for n in range(9):
        kn = kravchuk(n)
        at_zero = kn.substitute({X: Polynomial.zero(), A: a})
        assert at_zero == binom_poly(A, n)
        at_a = kn.substitute({X: a, A: a})
        assert at_a == binom_poly(A, n) * (-1) ** n


def test_leading_coefficient_in_x():
    for n in range(13):
        assert kravchuk(n).coeff(((X, n),) if n else ()) == Fraction(
            (-2) ** n, factorial(n)
        )


def test_recurrence_matches_binomial_sum():
    for n in range(17):
        assert kravchuk(n) == kravchuk_binomial_sum(n)


def test_cold_build_recursion_depth_is_bounded():
    # A cold K_n must fill its cache from the bottom instead of recursing
    # n calls deep: allow only ~20 frames above the caller's depth.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    kravchuk.cache_clear()
    sys.setrecursionlimit(depth + 20)
    try:
        k = kravchuk(40)
    finally:
        sys.setrecursionlimit(limit)
    assert k.coeff(((X, 40),)) == Fraction(2**40, factorial(40))
