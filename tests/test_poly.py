import ast
import operator
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kravchuk_identities import poly
from kravchuk_identities.poly import (
    DIGIT_LIMIT,
    EXPONENT_LIMIT,
    A,
    DigitOverflow,
    ExponentOverflow,
    Polynomial,
    X,
    binom_poly,
    determinant,
    _pack,
    exact_div,
    render_latex,
    render_text,
    to_json_terms,
    xvar,
)

from conftest import polynomials, small_fractions
from oracles import (
    coeff,
    degree,
    determinant_bareiss,
    diff_fraction_terms,
    exact_div_fraction_terms,
    from_terms,
    hankel,
    mono_deg,
    mul_fraction_terms,
    substitute_by_products,
    substitute_fraction_terms,
    sum_fraction_terms,
    terms,
)

x0, x1, x2, x3 = (Polynomial.var(xvar(i)) for i in range(4))
x = Polynomial.var(X)
a = Polynomial.var(A)


def test_xvar_range():
    assert xvar(X - 1) == X - 1
    for bad in (-1, X, A):
        with pytest.raises(ValueError):
            xvar(bad)


def test_add_identity_and_cancellation():
    p = x1**2 - 2 * x2 * x0
    assert p + Polynomial.zero() == p
    assert x1 + (-x1) == Polynomial.zero()
    assert x1**2 + 2 * x1**2 == 3 * x1**2


def test_sum():
    assert Polynomial.sum([]) == Polynomial.zero()
    cancelled = Polynomial.sum([x1**2 - x0, x0 + 2, -(x1**2), -2])
    assert cancelled.is_zero and cancelled == Polynomial.zero()
    assert list(terms(Polynomial.sum([x1, x2, -x1]))) == list(terms(x2))
    assert Polynomial.sum([x0, 3, Fraction(-1, 2)]) == x0 + Fraction(5, 2)
    assert Polynomial.sum([1, Fraction(1, 2)]) == Polynomial.constant(Fraction(3, 2))
    parts = (x0 * i for i in range(4))
    assert Polynomial.sum(parts) == 6 * x0
    assert next(parts, None) is None


def _triple_as_polynomial(part):
    """The Polynomial of a part of Polynomial.sum; a (packed key, numerator,
    denominator) triple becomes one term."""
    if isinstance(part, tuple):
        key, num, den = part
        return Polynomial._make({key: num} if num else {}, den)
    return part


def test_sum_with_triple_parts():
    k1, k12 = _pack(((xvar(1), 1),)), _pack(((xvar(1), 1), (xvar(2), 3)))
    parts = [
        (k12, 3, 4),
        x1 / 6,
        2,
        (k1, 0, 7),  # a zero numerator adds nothing, whatever its denominator
        (k12, -1, 4),  # a repeated key
        (0, 5, 1),  # the unit monomial
        Fraction(1, 3),
        (k1, 2, 10),  # a denominator new after other parts, not in lowest terms
        x1 * x2**3 / -2,
        (k1, -1, 5),
    ]
    total = Polynomial.sum(parts)
    expected = Polynomial.sum(map(_triple_as_polynomial, parts))
    assert total == expected and total._den == expected._den
    assert_canonical(total)
    assert total == x1 / 6 + Fraction(22, 3)
    assert Polynomial.sum([(k1, 0, 3)]) == Polynomial.zero()
    assert Polynomial.sum([(k1, 6, 4), (k1, -3, 2)]) == Polynomial.zero()


@given(st.lists(st.one_of(
    polynomials(max_terms=3),
    st.integers(-3, 3),
    st.tuples(
        st.lists(st.integers(0, 2), min_size=4, max_size=4).map(
            lambda exps: _pack(tuple((xvar(v), e) for v, e in enumerate(exps) if e))
        ),
        st.integers(-6, 6),
        st.integers(1, 12),
    ),
), max_size=8))
@settings(max_examples=100, deadline=None)
def test_sum_of_triples_matches_polynomials(parts):
    total = Polynomial.sum(parts)
    expected = Polynomial.sum(map(_triple_as_polynomial, parts))
    assert total == expected and total._den == expected._den
    assert_canonical(total)


@given(st.lists(polynomials(max_terms=3), max_size=6))
@settings(max_examples=50, deadline=None)
def test_sum_is_a_left_fold_of_add(parts):
    folded = Polynomial.zero()
    for p in parts:
        folded = folded + p
    assert Polynomial.sum(parts) == folded
    assert Polynomial.sum(iter(parts)) == folded


def test_mul():
    p = x1**2 - 2 * x2 * x0
    assert p * Polynomial.one() == p
    assert (x0 + x1) * (x0 - x1) == x0**2 - x1**2
    assert (x1**2) * (2 * x2 * x0) == 2 * x0 * x1**2 * x2


@pytest.mark.parametrize("other", [1.5, "s", None], ids=["float", "str", "None"])
def test_non_rational_operand_is_a_type_error_naming_it(other):
    # Each operator returns NotImplemented for a scalar that is not
    # rational, so Python's own TypeError names the two operand types.
    for sym, op in (("-", operator.sub), ("+", operator.add), ("*", operator.mul)):
        for left, right in ((other, x1), (x1, other)):
            with pytest.raises(TypeError) as exc:
                op(left, right)
            assert "NotImplementedType" not in str(exc.value)
            assert "Polynomial" in str(exc.value)
    with pytest.raises(TypeError, match=f"for -: '{type(other).__name__}' and 'Polynomial'"):
        other - x1
    with pytest.raises(TypeError, match="not a rational scalar"):
        Polynomial.constant(other)


# Every entry point that takes rational scalars among its parts rejects
# any other value as Polynomial.constant does, naming it.
_NON_RATIONAL_PART = {
    "sum": lambda: Polynomial.sum([x1, 1.5]),
    "substitute": lambda: x1.substitute({xvar(1): 1.5}),
    "determinant": lambda: determinant([[1.5]]),
}


@pytest.mark.parametrize("entry", list(_NON_RATIONAL_PART))
def test_non_rational_part_is_a_type_error_naming_it(entry):
    with pytest.raises(TypeError, match=r"^not a rational scalar: 1\.5$"):
        _NON_RATIONAL_PART[entry]()


def test_calling_the_class_is_a_type_error_naming_the_constructors():
    for args in ((), ({((xvar(1), 1),): 1},)):
        with pytest.raises(TypeError, match="zero, one, constant, var or linear"):
            Polynomial(*args)


def test_constant_hashes_as_the_rational_it_equals():
    modulus = sys.hash_info.modulus  # a denominator it divides hashes as inf
    for c in (0, 1, -1, Fraction(1, 3), Fraction(-2, 7), Fraction(1, modulus), Fraction(-1, modulus)):
        p = Polynomial.constant(c)
        assert p == c and c == p
        assert hash(p) == hash(c)
        assert len({p, c}) == 1
        assert {c: "c"}[p] == "c"
    assert len({Polynomial.one(), 1}) == 1
    assert len({Polynomial.zero(), 0, Fraction(0)}) == 1
    p = x1**2 - x0 / 3
    assert hash(p) == hash(x1 * x1 - Fraction(1, 3) * x0)
    assert len({p, x1 * x1 - Fraction(1, 3) * x0, p + 1}) == 2


def test_pow():
    p = x1**2 - 2 * x2 * x0 + Fraction(1, 3)
    assert p**0 == 1 and Polynomial.zero() ** 0 == 1
    assert p**1 == p
    product = Polynomial.one()
    for n in range(13):
        assert (x0 + x1) ** n == product, n
        assert p**n == reduce(operator.mul, [p] * n, Polynomial.one()), n
        product = product * (x0 + x1)
    with pytest.raises(ValueError, match="negative polynomial power"):
        p**-1


def test_substitute():
    assert (x1**2).substitute({xvar(1): a - 2 * x}) == (a - 2 * x) ** 2
    assert Polynomial.constant(7).substitute({}) == 7
    # mirrors the first worked identity at the generator images K_0, K_1, K_2
    p = x1**2 - 2 * x2 * x0
    image = p.substitute(
        {xvar(0): 1, xvar(1): a, xvar(2): (a**2 - a) / 2}
    )
    assert image == a


def test_substitute_missing_binding():
    with pytest.raises(KeyError):
        (x0 * x1).substitute({xvar(0): x2})


def test_partial_derivative():
    assert (a - 2 * x).diff(X) == Polynomial.constant(-2)
    assert Polynomial.constant(5).diff(X) == Polynomial.zero()
    assert (x**2 * a).diff(A) == x**2


def test_binom_poly():
    assert binom_poly(x, 0) == Polynomial.one()
    assert binom_poly(x, 1) == x
    assert binom_poly(x, 2) == (x**2 - x) / 2


def test_determinant_small():
    assert determinant([[x0]]) == x0
    assert determinant([[x0, x1], [x1, x2]]) == x0 * x2 - x1**2


def test_determinant_resultant_matrix():
    # The cubic-discriminant 5x5 determinant; it carries the classical
    # -x0 normalization relative to the discriminant itself.
    from kravchuk_identities.identities import (
        discriminant_expected,
        discriminant_matrix,
    )

    det = determinant(discriminant_matrix())
    assert det == -x0 * discriminant_expected()


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[x0, x1]])


def test_exact_div():
    p = (x0 + x1) ** 3 * (x2 - 2)
    assert exact_div(p, (x0 + x1) ** 2) == (x0 + x1) * (x2 - 2)
    with pytest.raises(ValueError):
        exact_div(x0 * x1 + 1, x0)
    # the leading monomial divides, but 1/2 is not an integer quotient
    assert exact_div(x1 * (x0 + 1) * (2 * x0 + 3) / 5, 2 * x0 + 3) == x1 * (x0 + 1) / 5
    with pytest.raises(ValueError):
        exact_div(x0, 2 * x0 + 3)


def test_exact_div_by_constants():
    # A constant divisor takes the same division loop as any other; the
    # quotient is canonical and equal to scalar division.
    p = (3 * x0 ** 2 * x1 - 6 * x2 + 9) / 4
    for dividend in (p, Polynomial.zero(), Polynomial.constant(Fraction(-5, 6))):
        for c in (-3, Fraction(-7, 9), Fraction(2, 3), 1):
            quotient = exact_div(dividend, Polynomial.constant(c))
            assert quotient == dividend / c, (dividend, c)
            assert quotient._den > 0
            assert gcd(quotient._den, *quotient._terms.values()) == 1, (dividend, c)
            assert 0 not in quotient._terms.values()


def test_zero_divisor_negative_index_and_zero_exponent_raise():
    with pytest.raises(ZeroDivisionError):
        exact_div(x0 + 1, Polynomial.zero())
    with pytest.raises(ValueError):
        binom_poly(x, -1)
    with pytest.raises(ValueError, match="exponents must be >= 1"):
        from_terms({((0, 0),): 1})


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials(max_var=2), polynomials(max_var=2))
@settings(max_examples=30, deadline=None)
def test_substitute_is_homomorphism(p, q):
    bindings = {xvar(0): x1 + 1, xvar(1): x0 * x1, xvar(2): x0 - 2 * x1}
    assert (p * q).substitute(bindings) == p.substitute(bindings) * q.substitute(
        bindings
    )
    assert (p + q).substitute(bindings) == p.substitute(bindings) + q.substitute(
        bindings
    )


@given(polynomials(), polynomials())
@settings(max_examples=50, deadline=None)
def test_diff_leibniz(p, q):
    v = xvar(1)
    assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


@given(polynomials(max_var=3, max_exp=2, max_terms=2))
@settings(max_examples=20, deadline=None)
def test_determinant_matches_bareiss_3x3(p):
    entries = [
        [p + i + j if (i + j) % 2 == 0 else p * (i + 1) - j for j in range(3)]
        for i in range(3)
    ]
    assert determinant(entries) == determinant_bareiss(entries)


@given(
    st.lists(
        polynomials(max_var=2, max_exp=2, max_terms=2), min_size=16, max_size=16
    )
)
@settings(max_examples=20, deadline=None)
def test_determinant_matches_bareiss_4x4(entries):
    matrix = [entries[4 * i : 4 * i + 4] for i in range(4)]
    assert determinant(matrix) == determinant_bareiss(matrix)


@given(
    st.lists(
        polynomials(max_var=2, max_exp=1, max_terms=2), min_size=25, max_size=25
    )
)
@settings(max_examples=15, deadline=None)
def test_determinant_matches_bareiss_5x5(entries):
    matrix = [entries[5 * i : 5 * i + 5] for i in range(5)]
    assert determinant(matrix) == determinant_bareiss(matrix)


@given(
    st.lists(
        polynomials(max_var=2, max_exp=1, max_terms=2), min_size=36, max_size=36
    )
)
@settings(max_examples=10, deadline=None)
def test_determinant_matches_bareiss_6x6(entries):
    matrix = [entries[6 * i : 6 * i + 6] for i in range(6)]
    assert determinant(matrix) == determinant_bareiss(matrix)


def test_determinant_matches_bareiss_hankel_and_discriminant():
    from kravchuk_identities.identities import discriminant_matrix
    from kravchuk_identities.intertwine import psi_ak1, psi_ak2
    from kravchuk_identities.kravchuk import phi_k

    for n in range(1, 5):
        h = hankel([Polynomial.var(xvar(k)) for k in range(2 * n + 1)])
        assert determinant(h) == determinant_bareiss(h)
        # the conjecture-3 matrices: Hankel on the bivariate phi_K(psi(x_k))
        for psi in (psi_ak1, psi_ak2):
            h = hankel([phi_k(psi(k)) for k in range(2 * n + 1)])
            assert determinant(h) == determinant_bareiss(h)
    m = discriminant_matrix()
    assert determinant(m) == determinant_bareiss(m)


def test_render_canonical_text():
    assert render_text(Polynomial.zero()) == "0"
    assert render_text(x1**2 - 2 * x2 * x0) == "x1^2 - 2*x0*x2"
    assert render_text(a - 2 * x) == "a - 2*x"
    assert render_text(Polynomial.constant(Fraction(-3, 4))) == "-3/4"


def test_render_digit_limit():
    # DIGIT_LIMIT digits print; one more is DigitOverflow in every format,
    # for a numerator or the denominator, before Python's own str limit
    nines = 10**DIGIT_LIMIT - 1
    assert render_text(x0 * nines - x1) == "-x1 + " + "9" * DIGIT_LIMIT + "*x0"
    assert render_text(x0 / nines) == f"1/{nines}*x0"
    assert render_latex(-x0 * nines) == "-" + "9" * DIGIT_LIMIT + "\\,x_{0}"
    assert to_json_terms(x0 / nines)[0]["coeff"] == f"1/{nines}"
    for p in (x0 * (nines + 1) - x1, -x0 * (nines + 1), x0 / (nines + 1)):
        for render in (render_text, render_latex, to_json_terms):
            with pytest.raises(DigitOverflow, match=f"at most {DIGIT_LIMIT} digits"):
                render(p)
    # The limit is on each printed coefficient in lowest terms, not on the
    # common denominator: 2^8192 * 3^5096 has 4898 digits, 1/2^8192 and
    # 1/3^5096 fewer than 2500 each.
    p = x0 / 2**8192 + x1 / 3**5096
    assert p._den >= 10**DIGIT_LIMIT
    assert render_text(p) == f"1/{3**5096}*x1 + 1/{2**8192}*x0"
    assert render_latex(p) == (
        f"\\frac{{1}}{{{3**5096}}}\\,x_{{1}} + \\frac{{1}}{{{2**8192}}}\\,x_{{0}}"
    )
    assert [t["coeff"] for t in to_json_terms(p)] == [f"1/{3**5096}", f"1/{2**8192}"]
    with pytest.raises(DigitOverflow):
        render_text(p + x2 / 10**DIGIT_LIMIT)


def test_render_latex_golden():
    from kravchuk_identities.poly import render_latex

    assert render_latex(x1**2 - 2 * x2 * x0) == "x_{1}^{2} - 2\\,x_{0}x_{2}"


# -- integer numerators over one denominator, against Fraction terms ---

CODES = (xvar(0), xvar(1), xvar(2), xvar(3), X, A)


@st.composite
def fraction_terms(draw, max_terms=4):
    """{monomial: Fraction} over x0..x3, x and a with denominators up to 12;
    a coefficient may be 0."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.lists(st.integers(0, 2), min_size=6, max_size=6))
        mono = tuple((v, e) for v, e in zip(CODES, exps) if e)
        terms[mono] = draw(st.fractions(-30, 30, max_denominator=12))
    return terms


def rational_polynomials(max_terms=4):
    return fraction_terms(max_terms).map(from_terms)


def assert_canonical(p):
    nums = list(p._terms.values())
    assert all(type(c) is int and c for c in nums)
    assert type(p._den) is int and p._den >= 1
    assert gcd(p._den, *nums) == 1
    assert all(type(c) is Fraction for _, c in terms(p))


@given(fraction_terms())
@settings(max_examples=100, deadline=None)
def test_constructor_keeps_nonzero_fraction_terms(fractions):
    p = from_terms(fractions)
    assert_canonical(p)
    assert list(terms(p)) == [(m, c) for m, c in fractions.items() if c]


@given(rational_polynomials(), rational_polynomials())
@settings(max_examples=100, deadline=None)
def test_product_matches_fraction_terms(p, q):
    product = p * q
    assert_canonical(product)
    expected = mul_fraction_terms(dict(terms(p)), dict(terms(q)))
    # the same terms in the same insertion order
    assert list(terms(product)) == list(expected.items())


@given(st.lists(rational_polynomials(), max_size=5))
@settings(max_examples=100, deadline=None)
def test_sum_matches_fraction_terms(parts):
    total = Polynomial.sum(parts)
    assert_canonical(total)
    expected = sum_fraction_terms(dict(terms(p)) for p in parts)
    assert list(terms(total)) == list(expected.items())


@given(
    rational_polynomials(),
    rational_polynomials(),
    st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12)),
)
@settings(max_examples=100, deadline=None)
def test_add_and_sub_match_fraction_terms(p, q, c):
    """Each binary + and - gives Polynomial.sum's terms, in its order."""
    pt, qt, pq = dict(terms(p)), dict(terms(q)), dict(terms(p + q))
    ct = {(): Fraction(c)} if c else {}

    def neg(t):
        return {m: -v for m, v in t.items()}

    for result, parts in (
        (p + q, (pt, qt)),
        (p - q, (pt, neg(qt))),
        (q - p, (qt, neg(pt))),
        ((p + q) - p, (pq, neg(pt))),
        (p + c, (pt, ct)),
        (c + p, (pt, ct)),
        (c - p, (ct, neg(pt))),
        (p - c, (pt, neg(ct))),
    ):
        assert_canonical(result)
        assert list(terms(result)) == list(sum_fraction_terms(parts).items())


@given(rational_polynomials(), small_fractions, st.integers(-6, 6))
@settings(max_examples=100, deadline=None)
def test_scalar_ops_diff_match_fraction_terms(p, f, n):
    p_terms = dict(terms(p))
    for s in (f, n):
        assert_canonical(p * s)
        assert dict(terms(p * s)) == {m: c * s for m, c in p_terms.items() if c * s}
    assert_canonical(p / f)
    assert dict(terms(p / f)) == {m: c / f for m, c in p_terms.items()}
    assert_canonical(-p)
    assert dict(terms(-p)) == {m: -c for m, c in p_terms.items()}
    for v in CODES:
        assert_canonical(p.diff(v))
        assert dict(terms(p.diff(v))) == diff_fraction_terms(p_terms, v)


@given(
    rational_polynomials(max_terms=3),
    st.lists(rational_polynomials(max_terms=2), min_size=6, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_substitute_matches_fraction_terms(p, images):
    bindings = dict(zip(CODES, images))
    image = p.substitute(bindings)
    assert_canonical(image)
    expected = substitute_fraction_terms(
        dict(terms(p)), {v: dict(terms(q)) for v, q in bindings.items()}
    )
    assert dict(terms(image)) == expected


@given(
    rational_polynomials(),
    st.lists(rational_polynomials(max_terms=3), min_size=6, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_substitute_matches_products(p, images):
    bindings = dict(zip(CODES, images))
    image = p.substitute(bindings)
    assert_canonical(image)
    assert image == substitute_by_products(p, bindings)


@given(rational_polynomials(), rational_polynomials(), rational_polynomials())
@settings(max_examples=50, deadline=None)
def test_equal_routes_hash_equal(p, q, r):
    assert hash((p + q) * r) == hash(p * r + q * r)
    assert hash(from_terms(dict(terms(p)))) == hash(p)
    assert hash(p * Fraction(2, 3) / Fraction(2, 3)) == hash(p)
    assert hash(p - p) == hash(Polynomial.zero())
    assert (p - p)._den == 1
    # equal numerators over another denominator are another polynomial
    assert p.is_zero or p / 2 != p


@given(rational_polynomials(max_terms=3), rational_polynomials(max_terms=3))
@settings(max_examples=50, deadline=None)
def test_exact_div_inverts_product(p, q):
    if q.is_zero:
        return
    quotient = exact_div(p * q, q)
    assert_canonical(quotient)
    assert quotient == p
    if q.variables():
        with pytest.raises(ValueError):
            exact_div(p * q + 1, q)


# -- packed monomials, against the tuple-monomial oracles -----------------

# Wide and sparse codes: slots follow first use, never the index value.
WIDE_CODES = (xvar(0), xvar(5), xvar(40), xvar(999999999), X, A)


@st.composite
def wide_terms(draw, max_terms=4):
    """{monomial: Fraction} over WIDE_CODES with exponents up to 3."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
        mono = tuple((v, e) for v, e in zip(WIDE_CODES, exps) if e)
        terms[mono] = draw(st.fractions(-30, 30, max_denominator=12))
    return {m: c for m, c in terms.items() if c}


@given(wide_terms(), wide_terms(), wide_terms(max_terms=2))
@settings(max_examples=100, deadline=None)
def test_packed_monomials_match_tuple_oracles(p_terms, q_terms, r_terms):
    p, q = from_terms(p_terms), from_terms(q_terms)
    assert dict(terms(p)) == p_terms
    assert p.variables() == {v for m in p_terms for v, _ in m}
    assert degree(p) == max(map(mono_deg, p_terms), default=-1)
    product = mul_fraction_terms(p_terms, q_terms)
    assert dict(terms(p * q)) == product
    for v in WIDE_CODES:
        assert dict(terms(p.diff(v))) == diff_fraction_terms(p_terms, v)
    bindings = {v: from_terms(r_terms) + i for i, v in enumerate(WIDE_CODES)}
    expected = substitute_fraction_terms(
        p_terms, {v: dict(terms(image)) for v, image in bindings.items()}
    )
    assert dict(terms(p.substitute(bindings))) == expected
    if q_terms:
        assert dict(terms(exact_div(p * q, q))) == exact_div_fraction_terms(
            product, q_terms
        )
        dividend = dict(terms(p * q + from_terms(r_terms)))
        try:
            quotient = exact_div_fraction_terms(dividend, q_terms)
        except ValueError:
            with pytest.raises(ValueError):
                exact_div(from_terms(dividend), q)
        else:
            assert dict(terms(exact_div(from_terms(dividend), q))) == quotient


def test_exponent_limit():
    top = EXPONENT_LIMIT - 1
    assert EXPONENT_LIMIT == 2**15
    # packing a tuple monomial
    assert from_terms({((xvar(1), top),): 1}) == x1**top
    with pytest.raises(ExponentOverflow):
        from_terms({((xvar(1), EXPONENT_LIMIT),): 1})
    # products, in one field among several
    half = x0 * x1 ** (EXPONENT_LIMIT // 2) * a
    assert coeff(
        half * (x1 ** (EXPONENT_LIMIT // 2 - 1)), ((xvar(0), 1), (xvar(1), top), (A, 1))
    ) == 1
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        x**top * (x + 1)
    # powers
    assert degree(a**top) == top
    with pytest.raises(ExponentOverflow):
        a**EXPONENT_LIMIT
    with pytest.raises(ExponentOverflow):
        (x0 * a) ** 2**40
    # substitution
    assert (x1**top).substitute({xvar(1): x2}) == x2**top
    with pytest.raises(ExponentOverflow):
        (x1 ** (EXPONENT_LIMIT // 2)).substitute({xvar(1): x2**2})
    # x4's field sums to exactly 2^16 over the three factors and carries
    # into the next field, leaving its guard bit clear: each product of the
    # chain is checked, not only the last.
    x4, x5 = Polynomial.var(xvar(4)), Polynomial.var(xvar(5))
    with pytest.raises(ExponentOverflow):
        (x1 * x2 * x3).substitute({xvar(1): x4**top, xvar(2): x4**top, xvar(3): x4**2})
    # Both products overflow and cancel in the sum; the first one raises.
    with pytest.raises(ExponentOverflow):
        (x1 * x2 - x3 * x4).substitute(
            {xvar(1): x5**top, xvar(3): x5**top, xvar(2): x5, xvar(4): x5}
        )
    assert issubclass(ExponentOverflow, ValueError)


# Runs in a fresh interpreter, so that x2, x5 and x7 take their slots in the
# order given on the command line; each input is then parsed and rendered.
_RENDER_AFTER = """
import json, sys
from kravchuk_identities.cli import parse_expr
from kravchuk_identities.poly import *
for i in sys.argv[1].split(","):
    Polynomial.var(xvar(int(i)))
for text in sys.argv[2:]:
    p = parse_expr(text)
    print(render_text(p), render_latex(p), json.dumps(to_json_terms(p)), sep="\\n")
"""

# Slots of x2, x5 and x7 that descend as their codes ascend (the order a
# parse gives them), that ascend, and two that interleave; x and a hold the
# slots below them.  Rendering sorts the first by the packed keys themselves
# and the others by re-packed keys, unless a degree bound reaches 0xFFFF.
_SLOT_ORDERS = ("7,5,2", "2,5,7", "5,2,7", "2,7,5")

# input -> its text, LaTeX and JSON lines.
_RENDERED = {
    "3*x5^2*x2 - x2^3 + 1/2*x5*x2*x - x5 + 7": [
        "1/2*x2*x5*x + 3*x2*x5^2 - x2^3 - x5 + 7",
        "\\frac{1}{2}\\,x_{2}x_{5}x + 3\\,x_{2}x_{5}^{2} - x_{2}^{3} - x_{5} + 7",
        '[{"coeff": "1/2", "monomial": {"x2": 1, "x5": 1, "x": 1}}, '
        '{"coeff": "3", "monomial": {"x2": 1, "x5": 2}}, '
        '{"coeff": "-1", "monomial": {"x2": 3}}, '
        '{"coeff": "-1", "monomial": {"x5": 1}}, {"coeff": "7", "monomial": {}}]',
    ],
    # exponents above 255, in a and the generators
    "x2^300*x7 - 2*x5^256*x2 + 1/3*x7^1000 - x2^256*x5^300*a^257": [
        "1/3*x7^1000 - x2^256*x5^300*a^257 + x2^300*x7 - 2*x2*x5^256",
        "\\frac{1}{3}\\,x_{7}^{1000} - x_{2}^{256}x_{5}^{300}a^{257} + x_{2}^{300}x_{7}"
        " - 2\\,x_{2}x_{5}^{256}",
        '[{"coeff": "1/3", "monomial": {"x7": 1000}}, '
        '{"coeff": "-1", "monomial": {"x2": 256, "x5": 300, "a": 257}}, '
        '{"coeff": "1", "monomial": {"x2": 300, "x7": 1}}, '
        '{"coeff": "-2", "monomial": {"x2": 1, "x5": 256}}]',
    ],
    # degree 90000 is 24465 modulo 0xFFFF, below the degree 30000 after it
    "(x2^3000*x5^3000*x7^3000)^10 - (x2^3000)^10 + x5*x7": [
        "x2^30000*x5^30000*x7^30000 - x2^30000 + x5*x7",
        "x_{2}^{30000}x_{5}^{30000}x_{7}^{30000} - x_{2}^{30000} + x_{5}x_{7}",
        '[{"coeff": "1", "monomial": {"x2": 30000, "x5": 30000, "x7": 30000}}, '
        '{"coeff": "-1", "monomial": {"x2": 30000}}, '
        '{"coeff": "1", "monomial": {"x5": 1, "x7": 1}}]',
    ],
    # a degree bound of exactly 0xFFFF: the first term's degree is 0 modulo it
    "(x2^3000*x5^3000)^10*x7^4096*x7^1439 + (x2^3000*x5^3000)^10": [
        "x2^30000*x5^30000*x7^5535 + x2^30000*x5^30000",
        "x_{2}^{30000}x_{5}^{30000}x_{7}^{5535} + x_{2}^{30000}x_{5}^{30000}",
        '[{"coeff": "1", "monomial": {"x2": 30000, "x5": 30000, "x7": 5535}}, '
        '{"coeff": "1", "monomial": {"x2": 30000, "x5": 30000}}]',
    ],
    "x2*x5 - x5*x2 + x7 - x7": ["0", "0", "[]"],
    "-7/3 + x5 - x5": ["-7/3", "-\\frac{7}{3}", '[{"coeff": "-7/3", "monomial": {}}]'],
}


def test_render_does_not_depend_on_slot_order():
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _RENDER_AFTER, order, *_RENDERED],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        ).stdout.decode().splitlines()
        for order in _SLOT_ORDERS
    ]
    for k, (text, expected) in enumerate(_RENDERED.items()):
        for order, lines in zip(_SLOT_ORDERS, outputs):
            assert lines[3 * k : 3 * k + 3] == expected, (text, order)


# Runs in a fresh interpreter: a parse registers the new generators of its
# input highest index first, and so does Polynomial.linear; an index that is
# out of range or too long is still refused at its own column.
_REGISTER = """
from kravchuk_identities import poly
from kravchuk_identities.cli import ParseError, parse_expr
from kravchuk_identities.poly import Polynomial
parse_expr("x2*x7 + x5^2 - x7")
Polynomial.linear({1: 1, 9: 2, 4: 3, 6: 0})
for text in ("x3 + 2*x1000000000*x8", "x3 + x" + "0" * 4301):
    try:
        parse_expr(text)
    except ParseError as exc:
        print(exc)
print(poly._CODES)
"""


def test_new_generators_register_highest_index_first():
    proc = subprocess.run(
        [sys.executable, "-c", _REGISTER],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
        text=True,
    )
    assert proc.stdout.splitlines() == [
        "parse error at line 1, column 8: generator index must be in 0..999999999,"
        " got 1000000000",
        f"parse error at line 1, column 6: number longer than {DIGIT_LIMIT} digits",
        str([A, X, 7, 5, 2, 9, 4, 1, 8, 3]),
    ]


# The packed-key layout is poly's own; other modules use var_key, keys that
# add, GUARD and Polynomial.sum's (key, numerator, denominator) triples.
_POLY_INTERNALS = {
    "_slot", "_SLOTS", "_CODES", "_NAMES", "_LATEX_NAMES", "_FIELD_MASK", "FIELD_BITS",
    "_make", "_terms", "_den",
}


def test_only_poly_knows_the_packed_layout():
    uses = []
    for path in sorted(Path(poly.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in _POLY_INTERNALS:
                uses.append(f"{path.name}:{node.lineno} {name}")
    assert not uses


# Coefficients are ints on every command path; fractions stays with the
# series oracle and arith.s_upper, which no command calls.
_FRACTIONS_ALLOWED = {"arith.py", "series.py"}


def test_only_arith_and_series_import_fractions():
    imports = []
    for path in sorted(Path(poly.__file__).parent.glob("*.py")):
        if path.name in _FRACTIONS_ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                imports.append(f"{path.name}:{node.lineno}")
    assert not imports
