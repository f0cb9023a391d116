import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import factorial, gcd

import pytest

from kravchuk_identities import identities
from kravchuk_identities import kravchuk as kravchuk_module
from kravchuk_identities.kravchuk import (
    dKda_expansion,
    dKdx_expansion,
    kravchuk,
    rows,
    slice_numerators,
    slice_polynomial,
)
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
    def no_rows():
        raise AssertionError("rows() called")

    monkeypatch.setattr(kravchuk_module, "rows", no_rows)
    with pytest.raises(ExponentOverflow):
        kravchuk(EXPONENT_LIMIT)


def test_on_slice_exponent_limit(monkeypatch):
    # x^n (or a^n) is a term of K_n on the slice, so a slice sweep (see
    # conjectures 1-2) to n = EXPONENT_LIMIT is refused before any row is
    # stepped.
    def no_rows():
        raise AssertionError("rows() called")

    monkeypatch.setattr(identities, "rows", no_rows)
    for sweep in (identities.conjecture1, identities.conjecture2):
        with pytest.raises(ExponentOverflow):
            sweep(EXPONENT_LIMIT)


def on_slice(n: int, var: int) -> Polynomial:
    """K_n on the slice a = 2x in var, from row n of rows()."""
    row = next(islice(rows(), n, None))
    return slice_polynomial(slice_numerators(row), factorial(n) << n, var)


def test_on_slice_low_orders():
    # K_2 = 2x^2 - 2ax + (a^2 - a)/2: K_2(x, 2x) = -x and K_2(a/2, a) = -a/2.
    assert on_slice(0, X) == on_slice(0, A) == Polynomial.one()
    assert on_slice(1, X).is_zero and on_slice(1, A).is_zero
    assert on_slice(2, X) == -x
    assert on_slice(2, A) == -a / 2
    # a slice sweep starts at n = 2
    for sweep in (identities.conjecture1, identities.conjecture2):
        with pytest.raises(ValueError):
            sweep(1)


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


def test_rows_in_any_order():
    # Each cold K_n steps rows() up from P_0; in descending, ascending or
    # mixed order every K_n is the same.
    expected = kravchuk_three_term(30)
    for order in (range(30, -1, -1), range(31), (17, 3, 30, 29, 28, 2, 16, 0, 1, 18)):
        kravchuk.cache_clear()
        for n in order:
            assert kravchuk(n) == expected[n], (list(order), n)
    kravchuk.cache_clear()


def test_cold_k200_holds_one_pair_of_rows():
    # A rows() generator stepped to P_200 holds only its last pair of rows:
    # with K_200 packed from row 200, 6.4 MB held in all, where keeping
    # every row below it held 142 MB.
    tracemalloc.start()
    try:
        steps = rows()
        k = Polynomial.from_xa_rows(next(islice(steps, 200, None)), factorial(200))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert coeff(k, ((X, 200),)) == Fraction(2**200, factorial(200))
    assert held < 20 * 2**20, held


def test_cold_build_recursion_depth_is_bounded():
    # rows() must step up from the bottom instead of recursing n calls
    # deep: allow only ~20 frames above the caller's depth.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    for n in (40, 200):
        sys.setrecursionlimit(depth + 20)
        try:
            k = Polynomial.from_xa_rows(next(islice(rows(), n, None)), factorial(n))
        finally:
            sys.setrecursionlimit(limit)
        assert coeff(k, ((X, n),)) == Fraction(2**n, factorial(n))
