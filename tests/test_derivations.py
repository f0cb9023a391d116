import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kravchuk_identities import derivations
from kravchuk_identities.derivations import (
    CayleyK2,
    Sigma,
    apply,
    cayley_k1,
    cayley_k2,
    dixmier_sigma,
    is_in_kernel,
    kravchuk1,
    kravchuk2,
    weitzenbock,
)
from kravchuk_identities import poly
from kravchuk_identities.poly import EXPONENT_LIMIT, A, X, ExponentOverflow, Polynomial, xvar

from conftest import polynomials
from oracles import (
    apply_by_products,
    apply_leibniz,
    closed_power,
    coeff,
    dk1_power_coeff,
    dk1_scale_by_iteration,
    dk2_power_coeff,
    from_terms,
    power_apply,
    sigma_from_kravchuk_slice,
    terms,
)

x0, x1, x2, x3, x4, x5 = (Polynomial.var(xvar(i)) for i in range(6))


def test_generator_image_tables():
    assert weitzenbock(0) == Polynomial.zero()
    assert kravchuk1(0) == Polynomial.zero()
    assert kravchuk2(0) == Polynomial.zero()
    assert kravchuk1(3) == x0 / 3 + x2
    assert kravchuk1(5) == x0 / 5 + x2 / 3 + x4
    assert kravchuk2(2) == -x0 / 2 + x1
    assert kravchuk2(4) == -x0 / 4 + x1 / 3 - x2 / 2 + x3


def test_apply_worked_kernel_element():
    assert apply(kravchuk1, x1**2 - 2 * x2 * x0) == Polynomial.zero()


def test_apply_constant_and_weitzenbock():
    assert apply(kravchuk2, Polynomial.constant(5)) == Polynomial.zero()
    assert apply(weitzenbock, x0 * x2 - x1**2) == Polynomial.zero()


def test_apply_out_of_range():
    for D in (weitzenbock, kravchuk1, kravchuk2):
        for p in (Polynomial.var(X), x0 + Polynomial.var(A), x1 * Polynomial.var(X) ** 2):
            with pytest.raises(ValueError):
                apply(D, p)


def _random_polynomial(rng, indices):
    """A sum of up to 12 terms c * product of x_i^e over the given indices,
    with c = p/q for |p| <= 9, q <= 6; it may be a constant or zero."""
    terms = {}
    for _ in range(rng.randint(0, 12)):
        mono = {xvar(rng.choice(indices)): rng.randint(1, 4) for _ in range(rng.randint(0, 3))}
        terms[tuple(sorted(mono.items()))] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return from_terms(terms)


def _assert_apply_matches_oracle(D, p):
    image = apply(D, p)
    assert image == apply_by_products(D, p), (D.__name__, str(p))
    assert gcd(image._den, *image._terms.values()) == 1
    assert all(image._terms.values())


def test_apply_matches_product_oracle():
    index_sets = ([0, 1, 2, 3], [0, 2, 5, 11], [1, 7, 30], [4])  # with gaps
    rng = random.Random(18)
    cases = [Polynomial.zero(), Polynomial.constant(Fraction(-7, 3))]
    cases += [_random_polynomial(rng, rng.choice(index_sets)) for _ in range(150)]
    for p in cases:
        for D in (weitzenbock, kravchuk1, kravchuk2):
            _assert_apply_matches_oracle(D, p)
    # x999999999 takes one field like any other index.  D_K1 and D_K2 of
    # x_n have about n/2 and n terms, so it goes through W alone.
    huge = Polynomial.var(xvar(999999999))
    for p in cases[:40]:
        _assert_apply_matches_oracle(weitzenbock, p * huge**2 - huge / 5 + x2)


@given(polynomials(max_var=6, max_exp=3))
@settings(max_examples=40, deadline=None)
def test_apply_matches_leibniz_oracle(p):
    for D in (weitzenbock, kravchuk1, kravchuk2):
        assert apply(D, p) == apply_leibniz(D, p)


def test_apply_at_the_exponent_limit_matches_leibniz_oracle():
    top = x0 ** (EXPONENT_LIMIT - 1)
    # x0's field sums to EXPONENT_LIMIT over the OR of the input and that of
    # W(x1) = x0, so the guard check runs, but x0^32767 has no image under
    # W and no product reaches the limit.
    assert apply(weitzenbock, top + x1) == apply_leibniz(weitzenbock, top + x1) == x0
    # One product, x0^32767 * W(x1), does, also when the image of x2 comes
    # after that of x1.
    for p in (top * x1, top * x1 + x2):
        for route in (apply, apply_leibniz):
            with pytest.raises(ExponentOverflow):
                route(weitzenbock, p)
    # A code never registered has no field in any key: the derivative is 0,
    # and taking it registers nothing.
    code = xvar(987654321)
    assert code not in poly._SLOTS
    assert (top + x1).diff(code) == Polynomial.zero()
    assert code not in poly._SLOTS


def test_power_apply():
    p = x2 + x1
    assert power_apply(kravchuk1, p, 0) == p
    assert power_apply(kravchuk1, x2, 2) == x0
    for n in range(1, 11):
        assert power_apply(kravchuk1, Polynomial.var(xvar(n)), n + 1).is_zero


@given(polynomials(max_var=3, max_exp=2), polynomials(max_var=3, max_exp=2))
@settings(max_examples=25, deadline=None)
def test_leibniz_rule(p, q):
    for D in (weitzenbock, kravchuk1, kravchuk2):
        assert apply(D, p * q) == apply(D, p) * q + p * apply(D, q)


def test_closed_forms_match_power_apply():
    for n in range(1, 13):
        xn = Polynomial.var(xvar(n))
        for k in range(1, n + 1):
            assert closed_power(n, k, dk1_power_coeff) == power_apply(kravchuk1, xn, k)
            assert closed_power(n, k, dk2_power_coeff) == power_apply(kravchuk2, xn, k)
    for k in range(1, 13):
        assert dk1_scale_by_iteration(k) == Fraction(1, 2**k)


def test_closed_form_table_rows():
    # coefficients of x_0..x_{n-1} in D(x_n), from m = n - i down to 1
    assert [dk1_power_coeff(1, m) for m in (1,)] == [Fraction(1)]
    assert [dk1_power_coeff(1, m) for m in (3, 2, 1)] == [Fraction(1, 3), Fraction(0), Fraction(1)]
    assert [dk2_power_coeff(1, m) for m in (2, 1)] == [Fraction(-1, 2), Fraction(1)]
    assert [dk2_power_coeff(1, m) for m in (3, 2, 1)] == [
        Fraction(1, 3),
        Fraction(-1, 2),
        Fraction(1),
    ]


def test_dixmier_sigma_rejects_bad_derivation():
    zero = Polynomial.zero()
    bad_images = (
        (zero, zero, x1),  # D(x1) = 0
        (zero, x0 + 1, x1),  # D(x1) not a multiple of x0
        (x1, x0, x1),  # D(x0) != 0
    )
    for images in bad_images:
        with pytest.raises(ValueError):
            dixmier_sigma(images.__getitem__, 2)


def test_dixmier_sigma_basics():
    assert dixmier_sigma(kravchuk1, 0) == Sigma(x0, 0)
    assert dixmier_sigma(kravchuk1, 1) == Sigma(Polynomial.zero(), 0)
    assert repr(dixmier_sigma(kravchuk1, 0)) == "(x0)"


@pytest.mark.parametrize("D", [kravchuk1, kravchuk2], ids=["k1", "k2"])
def test_dixmier_sigma_matches_kravchuk_slice_oracle(D):
    # beyond the n <= 6 tables: x0^n sigma(x_n) = sum_i x_{n-i} x0^n K_i(slice)(-x1/x0)
    for n in range(13):
        sigma = dixmier_sigma(D, n)
        assert sigma.numerator * x0 ** (n - sigma.power) == sigma_from_kravchuk_slice(D, n)


def test_sigma_and_cayley_k2_are_tuples_with_named_fields():
    num, power = sigma = dixmier_sigma(kravchuk1, 2)
    assert (sigma.numerator, sigma.power) == (num, power) == (x2 * x0 - x1**2 / 2, 1)
    assert sigma == Sigma(num, power) == (num, power)
    assert isinstance(sigma, tuple) and len(sigma) == 2
    assert dixmier_sigma(kravchuk1, 0) == Sigma(x0, 0) == (x0, 0)
    assert hash(Sigma(x0, 0)) == hash((x0, 0))
    polynomial, scale, power = c = cayley_k2(2)
    assert (c.polynomial, c.scale, c.power) == (polynomial, scale, power)
    assert c == CayleyK2(polynomial, scale, power) == (polynomial, scale, power)
    assert c == (x1 * x0 - x1**2 + 2 * x2 * x0, Fraction(1, 2), 1)
    for record in (sigma, c):
        for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone == record
    with pytest.raises(TypeError):
        Sigma(x0)
    with pytest.raises(AttributeError):
        sigma.power = 2


def test_dixmier_sigma_k2_worked_image():
    sigma = dixmier_sigma(kravchuk2, 2)
    assert sigma == Sigma((x1 * x0 - x1**2 + 2 * x2 * x0) / 2, 1)
    assert repr(sigma) == "(-1/2*x1^2 + x0*x2 + 1/2*x0*x1) / x0^1"


@given(st.sampled_from([kravchuk1, kravchuk2]), st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_dixmier_sigma_is_reduced_and_in_kernel(D, n, data):
    i = data.draw(st.integers(0, n))
    sigma = dixmier_sigma(D, i)
    if sigma.power > 0:
        # x0 does not divide the numerator: some term has no x0
        assert any(dict(m).get(xvar(0), 0) == 0 for m, _ in terms(sigma.numerator))
    assert apply(D, sigma.numerator).is_zero


def test_dixmier_images_killed_by_derivation():
    for D in (kravchuk1, kravchuk2):
        for i in range(7):
            sigma = dixmier_sigma(D, i)
            assert apply(D, sigma.numerator).is_zero


def test_cayley_k1_table():
    assert cayley_k1(2) == 2 * x2 * x0 - x1**2
    assert cayley_k1(3) == 3 * x3 * x0**2 - x1 * x0**2 - 3 * x1 * x0 * x2 + x1**3
    assert cayley_k1(4) == (
        8 * x4 * x0**3 - 8 * x1 * x0**2 * x3 + 4 * x1**2 * x0 * x2 - x1**4
    )


def test_cayley_k2_table():
    c2 = cayley_k2(2)
    assert c2.polynomial == x1 * x0 - x1**2 + 2 * x2 * x0
    assert c2.scale == Fraction(1, 2)
    c3 = cayley_k2(3)
    assert c3.polynomial == (
        x1 * x0**2 - x1**3 + 3 * x2 * x1 * x0 - 3 * x3 * x0**2
    )
    assert c3.scale == Fraction(-1, 3)
    c4 = cayley_k2(4)
    assert c4.polynomial == (
        2 * x1 * x0**3
        + x1**2 * x0**2
        - 2 * x1**3 * x0
        - x1**4
        + 4 * x2 * x1 * x0**2
        + 4 * x2 * x1**2 * x0
        - 8 * x3 * x1 * x0**2
        + 8 * x4 * x0**3
    )
    assert c4.scale == Fraction(1, 8)


def test_cayley_elements_in_kernel():
    for n in range(2, 13):
        assert is_in_kernel(kravchuk1, cayley_k1(n))
        c = cayley_k2(n)
        assert is_in_kernel(kravchuk2, c.polynomial)
        # The sign convention's anchor x_1 x_0^power has a positive coefficient.
        anchor = (((xvar(0), c.power),) if c.power else ()) + ((xvar(1), 1),)
        assert coeff(c.polynomial, anchor) > 0


def test_kernel_membership_examples():
    assert is_in_kernel(kravchuk1, cayley_k1(2))
    assert not is_in_kernel(kravchuk1, x1)
    # maps to zero under phi_K but is NOT a kernel element
    p = (
        x3 * x1**2
        - 2 * x2 * x3 * x0
        - x1 * x4 * x0
        - 3 * x3 * x0**2
        + 5 * x5 * x0**2
    )
    assert not is_in_kernel(kravchuk1, p)
    assert not is_in_kernel(kravchuk2, p)


def test_image_term_limit(monkeypatch):
    # D_K1(x_n) has ceil(n/2) terms and D_K2(x_n) has n: an image at the
    # limit is built, and one past it is refused before any term is.
    monkeypatch.setattr(derivations, "IMAGE_TERM_LIMIT", 5)
    assert len(kravchuk1(10)._terms) == len(kravchuk2(5)._terms) == 5
    for D, n in ((kravchuk1, 11), (kravchuk2, 6), (kravchuk2, 999999999)):
        with pytest.raises(ValueError, match="terms, past the limit of 5"):
            D(n)
