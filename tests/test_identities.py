import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings

from kravchuk_identities import identities
from kravchuk_identities.derivations import apply, cayley_k1, kravchuk1, kravchuk2
from kravchuk_identities.identities import (
    CONSTANT,
    MIXED,
    ONLY_A,
    ONLY_X,
    REFUTED,
    VERIFIED,
    classify,
    conjecture1,
    conjecture2,
    conjecture3,
    discriminant_expected,
    discriminant_identity,
    discriminant_matrix,
    hankel,
    i_element,
    phi_k,
    proportional,
)
from kravchuk_identities.kravchuk import kravchuk
from kravchuk_identities.poly import A, X, Polynomial, determinant, xvar

from conftest import polynomials
from oracles import conjecture1_double_sum, conjecture2_double_sum

x0, x1, x2, x3, x4, x5 = (Polynomial.var(xvar(i)) for i in range(6))
a = Polynomial.var(A)
x = Polynomial.var(X)


def test_phi_k_generators():
    assert phi_k(x0) == Polynomial.one()
    assert phi_k(x1) == a - 2 * x
    assert phi_k(x1**2 - 2 * x2 * x0) == a
    assert phi_k(x1 * x0 - x1**2 + 2 * x2 * x0) == -2 * x


def test_phi_k_rejects_reserved_vars():
    with pytest.raises(ValueError):
        phi_k(a)
    with pytest.raises(ValueError):
        phi_k(x3, N=2)


def test_proportional():
    assert proportional(2 * a, a) == 2
    assert proportional(Polynomial.zero(), a) == 0
    assert proportional(a, a + 1) is None
    assert proportional(Polynomial.zero(), Polynomial.zero()) == 1


def test_classify_cayley_images():
    # phi_K(C_n) table
    expectations = {
        2: -a,
        3: Polynomial.zero(),
        4: a * (a - 2),
        5: Polynomial.zero(),
        6: -3 * a * (a - 2) * (a - 4),
    }
    for n, img in expectations.items():
        rep = classify(cayley_k1(n), expected=img, check_id="cayley", n=n)
        assert rep.verdict == VERIFIED
        assert rep.classification == (CONSTANT if n % 2 else ONLY_A)
        assert rep.image == rep.expected
        assert rep.ratio == 1


def test_classify_constant_image():
    # maps to 0 under phi_K although it is not a kernel element
    p = (
        x3 * x1**2
        - 2 * x2 * x3 * x0
        - x1 * x4 * x0
        - 3 * x3 * x0**2
        + 5 * x5 * x0**2
    )
    rep = classify(p)
    assert rep.classification == CONSTANT
    assert rep.image.is_zero
    assert rep.verdict is None


def test_classify_other_classes():
    assert classify(x1 * x0 - x1**2 + 2 * x2 * x0).classification == ONLY_X
    assert classify(x1).classification == MIXED
    assert classify(x0).classification == CONSTANT


def test_report_record_schema():
    rep = classify(cayley_k1(2), expected=-a)
    record = rep.to_record()
    assert set(record) == {
        "check_id",
        "n",
        "verdict",
        "classification",
        "lhs_canonical",
        "rhs_canonical",
        "ratio_if_proportional",
        "runtime_ms",
    }
    assert record["verdict"] == VERIFIED
    assert record["ratio_if_proportional"] == "1"


def test_conjecture1_odd_cases_vanish():
    for n in (3, 5, 7, 9):
        rep = conjecture1(n)
        assert rep.verdict == VERIFIED
        assert rep.image.is_zero


def test_conjecture1_even_cases():
    # even n: the computed sum is proportional to the stated product with
    # ratio exactly 1/n!, and equals phi_K(C_n)/(n (n-2)!) on the nose
    for n in (2, 4, 6, 8):
        rep = conjecture1(n)
        assert rep.verdict == REFUTED
        assert rep.ratio == Fraction(1, factorial(n))
        assert rep.image == phi_k(cayley_k1(n)) / (n * factorial(n - 2))


def test_conjectures_1_2_match_closed_power_double_sums():
    # phi_K(sigma(x_n)) against the sums over the closed forms of D^k(x_n)
    for n in range(2, 13):
        assert conjecture1(n).image == conjecture1_double_sum(n)
        assert conjecture2(n).image == conjecture2_double_sum(n)


def test_conjecture2_verifies():
    for n in range(2, 11):
        rep = conjecture2(n)
        assert rep.verdict == VERIFIED
        if n % 2 == 1:
            assert rep.image.is_zero
        else:
            assert rep.classification == ONLY_X


def test_i_element():
    assert i_element(1) == x0 * x2 - x1**2
    i2 = i_element(2)
    assert i2 == x0 * x4 - 4 * x1 * x3 + 3 * x2**2


def test_hankel_shape():
    h = hankel(2)
    assert len(h) == 3 and all(len(row) == 3 for row in h)
    assert h[1][2] == x3
    assert determinant(hankel(1)) == x0 * x2 - x1**2


def test_discriminant_chain():
    raw_det = determinant(discriminant_matrix())
    assert raw_det == -x0 * discriminant_expected()
    rep = discriminant_identity()
    assert rep.verdict == VERIFIED
    assert rep.notes == {"discriminant_matches": True, "in_kernel_k1": True}
    assert rep.image == 108 * a**3
    assert rep.classification == ONLY_A


def test_conjecture3_n1():
    rep_i, rep_ii = conjecture3(1)
    # literal products refute, but each side matches the product reading
    # shifted by one index
    assert rep_i.verdict == REFUTED
    assert rep_i.image == -a
    assert rep_i.notes["shifted_products_match"]
    assert rep_ii.verdict == REFUTED
    assert rep_ii.image == -2 * x
    assert rep_ii.notes["shifted_products_match"]


def test_conjecture3_small_sweep():
    for n in (2, 3):
        rep_i, rep_ii = conjecture3(n)
        assert rep_i.verdict == REFUTED
        assert rep_i.notes["shifted_products_match"]
        assert rep_i.classification == ONLY_A
        assert rep_ii.verdict == REFUTED
        assert rep_ii.notes["shifted_products_match"]
        assert rep_ii.classification == ONLY_X


def test_conjecture3_runtime_counts_the_shared_determinant(monkeypatch):
    def slow_determinant(matrix):
        time.sleep(0.05)
        return determinant(matrix)

    monkeypatch.setattr(identities, "determinant", slow_determinant)
    for rep in conjecture3(1):
        assert rep.runtime_ms >= 50


@given(polynomials(max_var=5, max_exp=1, max_terms=3))
@settings(max_examples=25, deadline=None)
def test_phi_intertwines_kravchuk_derivations(p):
    # phi o D_K2 = d/da o phi and phi o D_K1 = -1/2 d/dx o phi
    assert phi_k(apply(kravchuk2(5), p)) == phi_k(p).diff(A)
    assert phi_k(apply(kravchuk1(5), p)) == phi_k(p).diff(X) * Fraction(-1, 2)


def test_phi_k_matches_kravchuk_table():
    for n in range(7):
        assert phi_k(Polynomial.var(xvar(n))) == kravchuk(n)
