import sys
import tracemalloc
from fractions import Fraction
from math import factorial, gcd

import pytest

from kravchuk_identities import kravchuk as kravchuk_module
from kravchuk_identities.kravchuk import dKda_expansion, dKdx_expansion, kravchuk, on_slice
from kravchuk_identities.poly import (
    A,
    EXPONENT_LIMIT,
    ExponentOverflow,
    Polynomial,
    X,
    binom_poly,
    xvar,
)

from oracles import coeff, kravchuk_binomial_sum, kravchuk_three_term

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
        assert at_zero == binom_poly(a, n)
        at_a = kn.substitute({X: a, A: a})
        assert at_a == binom_poly(a, n) * (-1) ** n


def test_leading_coefficient_in_x():
    for n in range(13):
        assert coeff(kravchuk(n), ((X, n),) if n else ()) == Fraction(
            (-2) ** n, factorial(n)
        )


def test_rows_match_three_term_recurrence():
    for n, kn in enumerate(kravchuk_three_term(60)):
        assert kravchuk(n) == kn, n


def test_recurrence_matches_binomial_sum():
    for n in range(17):
        assert kravchuk(n) == kravchuk_binomial_sum(n)


def test_canonical_form():
    # P_n = n! K_n has integer coefficients, so the reduced denominator
    # divides n!.
    for n in range(61):
        kn = kravchuk(n)
        assert gcd(kn._den, *kn._terms.values()) == 1, n
        assert factorial(n) % kn._den == 0, n


def test_exponent_limit(monkeypatch):
    # x^n is a term of K_n, so n = EXPONENT_LIMIT is refused before any row
    # is built.
    def no_rows(n):
        raise AssertionError(f"_rows({n}) called")

    monkeypatch.setattr(kravchuk_module, "_rows", no_rows)
    with pytest.raises(ExponentOverflow):
        kravchuk(EXPONENT_LIMIT)


def test_on_slice_exponent_limit(monkeypatch):
    # x^n (or a^n) is a term of K_n on the slice, so n = EXPONENT_LIMIT is
    # refused before any row is stepped.
    def no_rows(n):
        raise AssertionError(f"_rows({n}) called")

    monkeypatch.setattr(kravchuk_module, "_rows", no_rows)
    for var in (X, A):
        with pytest.raises(ExponentOverflow):
            on_slice(EXPONENT_LIMIT, var)


def test_on_slice_low_orders():
    # K_2 = 2x^2 - 2ax + (a^2 - a)/2: K_2(x, 2x) = -x and K_2(a/2, a) = -a/2.
    assert on_slice(0, X) == on_slice(0, A) == Polynomial.one()
    assert on_slice(1, X).is_zero and on_slice(1, A).is_zero
    assert on_slice(2, X) == -x
    assert on_slice(2, A) == -a / 2
    with pytest.raises(ValueError):
        on_slice(-1, X)
    with pytest.raises(ValueError):
        on_slice(2, xvar(1))


def test_substitute_into_kravchuk_makes_one_polynomial(monkeypatch):
    """A linear form's image under x_i -> K_i is summed into one dict: the
    result is the only Polynomial made."""
    images = {xvar(i): kravchuk(i) for i in range(6)}
    form = Polynomial.linear({i: i + 1 for i in range(6)}, 7)
    make = Polynomial.__dict__["_make"].__func__
    made = []

    def counting_make(cls, terms, den=1):
        made.append(den)
        return make(cls, terms, den)

    monkeypatch.setattr(Polynomial, "_make", classmethod(counting_make))
    image = form.substitute(images)
    monkeypatch.undo()
    assert len(made) == 1
    assert image == sum((i + 1) * kravchuk(i) for i in range(6)) / 7


def test_cache_clear_clears_the_rows():
    kravchuk(5)
    assert kravchuk_module._top[0] >= 5
    kravchuk.cache_clear()
    assert kravchuk.cache_info().currsize == 0
    assert kravchuk_module._top is None


def test_rows_in_any_order():
    # Requests below the kept pair of rows start again from P_0 and P_1; in
    # descending, ascending or mixed order every K_n is the same.
    expected = kravchuk_three_term(30)
    for order in (range(30, -1, -1), range(31), (17, 3, 30, 29, 28, 2, 16, 0, 1, 18)):
        kravchuk.cache_clear()
        for n in order:
            assert kravchuk(n) == expected[n], (list(order), n)
    kravchuk.cache_clear()


def test_cold_k200_holds_one_pair_of_rows():
    # Only the top pair of rows stays after a cold K_200: 6.4 MB held in all,
    # K_200 included, where keeping every row below it held 142 MB.
    kravchuk.cache_clear()
    tracemalloc.start()
    try:
        k = kravchuk(200)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        kravchuk.cache_clear()
    assert coeff(k, ((X, 200),)) == Fraction(2**200, factorial(200))
    assert held < 20 * 2**20, held


def test_cold_build_recursion_depth_is_bounded():
    # A cold K_n must fill its caches from the bottom instead of recursing
    # n calls deep: allow only ~20 frames above the caller's depth.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    for n in (40, 200):
        kravchuk.cache_clear()
        sys.setrecursionlimit(depth + 20)
        try:
            k = kravchuk(n)
        finally:
            sys.setrecursionlimit(limit)
            kravchuk.cache_clear()
        assert coeff(k, ((X, n),)) == Fraction(2**n, factorial(n))
