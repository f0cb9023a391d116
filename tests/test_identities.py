import time
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kravchuk_identities import identities
from kravchuk_identities.derivations import (
    apply,
    cayley_k1,
    dixmier_sigma,
    kravchuk1,
    kravchuk2,
)
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
    phi_k,
)
from kravchuk_identities.intertwine import psi_ak1, psi_ak2, psi_rows
from kravchuk_identities.kravchuk import kravchuk, rows, slice_numerators
from kravchuk_identities.poly import (
    A,
    X,
    Polynomial,
    binom_poly,
    constant_ratio,
    determinant,
    exact_div,
    generators,
    xvar,
)

from conftest import polynomials
from oracles import (
    binomial_shift,
    bivariate_moment,
    conjecture1_double_sum,
    conjecture2_double_sum,
    conjecture3_expanded,
    hankel,
    i_element,
    kravchuk_on_slice,
    phi_sigma,
)

x0, x1, x2, x3, x4, x5 = (Polynomial.var(xvar(i)) for i in range(6))
a = Polynomial.var(A)
x = Polynomial.var(X)


def test_phi_k_generators():
    assert phi_k(x0) == Polynomial.one()
    assert phi_k(x1) == a - 2 * x
    assert phi_k(x1**2 - 2 * x2 * x0) == a
    assert phi_k(x1 * x0 - x1**2 + 2 * x2 * x0) == -2 * x


def test_phi_k_rejects_reserved_vars():
    for p in (a, x0 * x, x1 + a):
        with pytest.raises(ValueError):
            phi_k(p)


def test_proportional():
    assert constant_ratio(2 * a, a) == 2
    assert constant_ratio(Polynomial.zero(), a) == 0
    assert constant_ratio(a, a + 1) is None
    assert constant_ratio(Polynomial.zero(), Polynomial.zero()) == 1
    # the same monomials with numerators that are not proportional
    assert constant_ratio(a + 2, a + 1) is None
    ratio = constant_ratio(-a / 3 + x, 2 * a - 6 * x)
    assert ratio == Fraction(-1, 6) and str(ratio) == "-1/6"


def test_verdict_is_verified_exactly_when_ratio_is_one():
    reports = conjecture1(20) + conjecture2(20)
    reports += conjecture3(8)
    reports.append(discriminant_identity())
    p = x1**2 - 2 * x2 * x0  # phi_K(p) = a
    # equal, proportional, zero and both-zero expected sides
    cases = [
        classify(p, a),
        classify(p, 3 * a),
        classify(p, Polynomial.zero()),
        classify(cayley_k1(3), Polynomial.zero()),
    ]
    assert [(r.verdict, r.ratio) for r in cases] == [
        (VERIFIED, 1),
        (REFUTED, Fraction(1, 3)),
        (REFUTED, None),
        (VERIFIED, 1),
    ]
    for rep in reports + cases:
        assert (rep.verdict == VERIFIED) == (rep.ratio == 1), (rep.check_id, rep.n)


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
        rep = classify(cayley_k1(n), expected=img)
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


def _sweeps_1_2(max_n):
    """(n, conjecture-1 report, conjecture-2 report) for n = 2..max_n, from
    one sweep each."""
    reports = list(zip(conjecture1(max_n), conjecture2(max_n)))
    assert [rep1.n for rep1, _ in reports] == [rep2.n for _, rep2 in reports] == list(range(2, max_n + 1))
    return [(rep1.n, rep1, rep2) for rep1, rep2 in reports]


def test_conjecture1_odd_cases_vanish():
    reports = conjecture1(9)
    for n in (3, 5, 7, 9):
        rep = reports[n - 2]
        assert rep.n == n
        assert rep.verdict == VERIFIED
        assert rep.image.is_zero


def test_conjecture1_even_cases():
    # even n: the computed sum is proportional to the stated product with
    # ratio exactly 1/n!, and equals phi_K(C_n)/(n (n-2)!) on the nose
    reports = conjecture1(8)
    for n in (2, 4, 6, 8):
        rep = reports[n - 2]
        assert rep.n == n
        assert rep.verdict == REFUTED
        assert rep.ratio == Fraction(1, factorial(n))
        assert rep.image == phi_k(cayley_k1(n)) / (n * factorial(n - 2))


def test_conjectures_1_2_match_closed_power_double_sums():
    # phi_K(sigma(x_n)) against the sums over the closed forms of D^k(x_n)
    for n, rep1, rep2 in _sweeps_1_2(12):
        assert rep1.image == conjecture1_double_sum(n)
        assert rep2.image == conjecture2_double_sum(n)


def test_conjectures_1_2_match_phi_of_dixmier_sigma():
    # the slice K_n(a/2, a) / K_n(x, 2x) against phi_K(sigma(x_n)) itself
    for n, rep1, rep2 in _sweeps_1_2(20):
        assert rep1.image == phi_sigma(kravchuk1, n)
        assert rep2.image == phi_sigma(kravchuk2, n)


def test_conjectures_1_2_proved_values():
    # (1-z^2)^(a/2) and (1-z^2)^x: 0 for odd n, (-1)^m C(., m) for n = 2m
    for n, rep1, rep2 in _sweeps_1_2(20):
        m, odd = divmod(n, 2)
        c1, c2 = rep1.image, rep2.image
        if odd:
            assert c1.is_zero and c2.is_zero
        else:
            assert c1 == binom_poly(a / 2, m) * (-1) ** m
            assert c2 == binom_poly(x, m) * (-1) ** m


def test_conjectures_1_2_match_the_substituted_k_n():
    # The slice read off the rows of n! K_n equals K_n(a/2, a) and K_n(x, 2x)
    # by substitution, and is canonical: a positive denominator sharing no
    # factor with the numerators, none of which is zero.
    for n, rep1, rep2 in _sweeps_1_2(60):
        for image, slice_ in (
            (rep1.image, (a / 2, a)),
            (rep2.image, (x, 2 * x)),
        ):
            assert image == kravchuk_on_slice(n, *slice_), n
            assert image._den > 0, n
            assert gcd(image._den, *image._terms.values()) == 1, n
            assert all(image._terms.values()), n


@given(polynomials(max_var=2, max_exp=2))
@settings(max_examples=25, deadline=None)
def test_phi_of_dixmier_sigma_is_phi_on_the_slice(f):
    # sigma is the ring map x_v -> sigma(x_v); phi_K(x0) = 1 drops each
    # image's x0 denominator, so the numerators stand in for sigma(x_v).
    # Odd generators map to 0 on both sides, so f is also read on the even
    # ones x_v -> x_2v, where no term vanishes.
    even = f.substitute({v: Polynomial.var(xvar(2 * v)) for v in generators(f)})
    for D, on_slice in ((kravchuk1, {X: a / 2, A: a}), (kravchuk2, {X: x, A: 2 * x})):
        for g in (f, even):
            sigma = {v: dixmier_sigma(D, v).numerator for v in generators(g)}
            assert phi_k(g.substitute(sigma)) == phi_k(g).substitute(on_slice)


def test_conjecture2_verifies():
    for n, rep in enumerate(conjecture2(10), 2):
        assert rep.n == n
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
    h = hankel([x0, x1, x2, x3, x4])
    assert len(h) == 3 and all(len(row) == 3 for row in h)
    assert h[1][2] == x3
    assert determinant(hankel([x0, x1, x2])) == x0 * x2 - x1**2
    with pytest.raises(ValueError):
        hankel([x0, x1])


def test_discriminant_chain():
    raw_det = determinant(discriminant_matrix())
    assert raw_det == -x0 * discriminant_expected()
    rep = discriminant_identity()
    assert rep.verdict == VERIFIED
    assert rep.notes == {"discriminant_matches": True, "in_kernel_k1": True}
    assert rep.image == 108 * a**3
    assert rep.classification == ONLY_A


def _lambda_i(k):
    return -k * (a + k - 1)


def _lambda_ii(k):
    return -2 * k * (x - k + 1)


def _heilermann(lam, n):
    """det H_n = mu_0^(n+1) lambda_1^n ... lambda_n^1 with mu_0 = 1: the
    conjectured products, each shifted by one index."""
    expected = Polynomial.one()
    for k in range(1, n + 1):
        expected = expected * lam(k) ** (n + 1 - k)
    return expected


def test_conjecture3_n1():
    rep_i, rep_ii = conjecture3(1)
    # literal products refute, but each side matches the product reading
    # shifted by one index
    assert rep_i.verdict == REFUTED
    assert rep_i.image == -a == _heilermann(_lambda_i, 1)
    assert rep_ii.verdict == REFUTED
    assert rep_ii.image == -2 * x == _heilermann(_lambda_ii, 1)


def _by_n(reports):
    """(n, part (i), part (ii)) for each n of a conjecture3 sweep."""
    pairs = list(zip(reports[::2], reports[1::2]))
    assert [(i.n, ii.n) for i, ii in pairs] == [(n, n) for n in range(1, len(pairs) + 1)]
    return [(n, i, ii) for n, (i, ii) in enumerate(pairs, 1)]


def test_conjecture3_small_sweep():
    for n, rep_i, rep_ii in _by_n(conjecture3(6))[1:]:
        assert rep_i.verdict == REFUTED
        assert rep_i.image == _heilermann(_lambda_i, n)
        assert rep_i.classification == ONLY_A
        assert rep_ii.verdict == REFUTED
        assert rep_ii.image == _heilermann(_lambda_ii, n)
        assert rep_ii.classification == ONLY_X


def test_conjecture3_matches_expanded_route():
    # phi_K(psi(det H_n)) with det H_n expanded over x_0..x_2n first
    for n, rep_i, rep_ii in _by_n(conjecture3(3)):
        assert (rep_i.image, rep_ii.image) == conjecture3_expanded(n)


def test_conjecture3_runtime_counts_the_shared_determinant(monkeypatch):
    # each report's runtime covers the table entries its call computes
    sigma_entry = identities._sigma_entry

    def slow_sigma_entry(*args):
        time.sleep(0.05)
        return sigma_entry(*args)

    monkeypatch.setattr(identities, "_sigma_entry", slow_sigma_entry)
    for rep in conjecture3(1):
        assert rep.runtime_ms >= 50


def test_conjecture3_sweep_computes_each_sigma_once(monkeypatch):
    sigma_entry = identities._sigma_entry
    calls = Counter()

    def counting_sigma_entry(sigma, alpha, beta, k, l):
        calls[id(sigma), k, l] += 1
        return sigma_entry(sigma, alpha, beta, k, l)

    monkeypatch.setattr(identities, "_sigma_entry", counting_sigma_entry)
    conjecture3(6)
    # sigma_{6,6} needs rows 1..6 up to l = 12 - k, and nothing past them
    expected = {(k, l) for k in range(1, 7) for l in range(k, 13 - k)}
    by_table = {}
    for (t, k, l), c in calls.items():
        by_table.setdefault(t, {})[k, l] = c
    # one table per part
    assert list(by_table.values()) == [dict.fromkeys(expected, 1)] * 2
    assert sum(calls.values()) == 2 * len(expected)


def test_conjecture3_runs_whole_after_an_interrupted_sweep(monkeypatch):
    # an exception after a step has appended alpha and beta, but before its
    # running product, leaves nothing behind that the next sweep reads
    sigma_entry = identities._sigma_entry
    armed = [True]

    def interrupted_sigma_entry(sigma, alpha, beta, k, l):
        if armed[0] and k == l == 3:
            armed[0] = False
            raise RuntimeError("interrupted")
        return sigma_entry(sigma, alpha, beta, k, l)

    monkeypatch.setattr(identities, "_sigma_entry", interrupted_sigma_entry)
    with pytest.raises(RuntimeError, match="interrupted"):
        conjecture3(5)
    for n, *reps in _by_n(conjecture3(5)):
        for rep, lam in zip(reps, (_lambda_i, _lambda_ii)):
            assert rep.image == _heilermann(lam, n)


def test_conjecture3_is_the_laplace_hankel_determinant():
    # the memoized Laplace expansion of det[phi_K(psi(x_(i+j)))] in Q[x, a]
    for n, *reps in _by_n(conjecture3(6)):
        for psi, rep in zip((psi_ak1, psi_ak2), reps):
            h = hankel([bivariate_moment(psi, k) for k in range(2 * n + 1)])
            assert rep.image == determinant(h)


def _slices(n):
    """slice_numerators of K_0..K_(n-1), as the conjecture-3 sweep holds them."""
    return [slice_numerators(row) for row in islice(rows(), n)]


def test_slice_moments_are_the_bivariate_moments_at_a_2x():
    # nu_l = mu_l(a = 2x), read in a for psi_AK1 and in x for psi_AK2
    slices = _slices(17)
    for kind, psi, on_slice in (
        ("ak1", psi_ak1, {X: a / 2, A: a}),
        ("ak2", psi_ak2, {X: x, A: 2 * x}),
    ):
        for l, row in zip(range(17), psi_rows(kind)):
            mu = bivariate_moment(psi, l)
            assert identities.moment(kind, row, slices) == mu.substitute(on_slice), (kind, l)


def test_bivariate_moments_are_the_slice_moments_shifted_by_k1():
    # mu_l = sum_k C(l,k) (a - 2x)^(l-k) nu_k, from e^((a-2x) z) F(z)
    for kind, psi in (("ak1", psi_ak1), ("ak2", psi_ak2)):
        slices = _slices(17)
        nu = [identities.moment(kind, row, slices) for row in islice(psi_rows(kind), 17)]
        assert binomial_shift(nu, a - 2 * x) == [bivariate_moment(psi, l) for l in range(17)]


@given(st.integers(1, 3), st.data())
@settings(max_examples=20, deadline=None)
def test_hankel_determinant_is_invariant_under_a_binomial_shift(n, data):
    # [mu_(i+j)] = L [nu_(i+j)] L^T with L unitriangular, for any shift s
    s = data.draw(polynomials(max_var=1, max_exp=1, max_terms=3))
    nu = [data.draw(polynomials(max_var=1, max_exp=1, max_terms=2)) for _ in range(2 * n + 1)]
    assert determinant(hankel(binomial_shift(nu, s))) == determinant(hankel(nu))


def test_conjecture3_sweep_reads_each_slice_once(monkeypatch):
    # both parts share the slice numerators of K_0..K_2n, asked for in
    # ascending order, so the rows of n! K_n step up once per sweep
    calls = []
    slice_numerators = identities.slice_numerators

    def counting_slice_numerators(row):
        calls.append(len(row) - 1)
        return slice_numerators(row)

    monkeypatch.setattr(identities, "slice_numerators", counting_slice_numerators)
    conjecture3(4)
    assert calls == list(range(9))


def test_chebyshev_table_on_moments_with_a_factor():
    # mu_l = (a - 2x + 1) phi_K(psi_AK2(x_l)): mu_0 != 1, so beta_0 and every
    # division by sigma_{k,k} carry the factor
    def scaled_psi(k):
        return (x0 + x1) * psi_ak2(k)

    table = identities._Chebyshev(map(partial(bivariate_moment, scaled_psi), count()))
    for n in range(1, 5):
        h = hankel([bivariate_moment(scaled_psi, k) for k in range(2 * n + 1)])
        assert table.det(n) == determinant(h)


def test_conjecture3_recurrence_closed_forms(monkeypatch):
    # the J-fraction of the moments: b_k = alpha_k, lambda_k = beta_k, on
    # the bivariate moments and on the slice a = 2x, where only alpha_k
    # changes (by the shift a - 2x)
    tables = []

    class RecordedChebyshev(identities._Chebyshev):
        def __init__(self, moments):
            super().__init__(moments)
            tables.append(self)

    monkeypatch.setattr(identities, "_Chebyshev", RecordedChebyshev)
    conjecture3(20)
    s_i, s_ii = tables
    t_i, t_ii = (
        identities._Chebyshev(map(partial(bivariate_moment, psi), count()))
        for psi in (psi_ak1, psi_ak2)
    )
    for t in (t_i, t_ii):
        t.det(20)
    assert t_i.beta[0] == t_ii.beta[0] == s_i.beta[0] == s_ii.beta[0] == 1
    for k in range(20):
        assert t_i.alpha[k] == a - 2 * x
        assert t_ii.alpha[k] == a - 2 * x + 3 * k
        assert s_i.alpha[k] == 0
        assert s_ii.alpha[k] == 3 * k
    for k in range(1, 20):
        assert t_i.beta[k] == s_i.beta[k] == _lambda_i(k)
        assert t_ii.beta[k] == s_ii.beta[k] == _lambda_ii(k)


def test_conjecture3_shifted_products_through_20():
    for n, *reps in _by_n(conjecture3(20)):
        for rep, lam in zip(reps, (_lambda_i, _lambda_ii)):
            assert rep.verdict == REFUTED
            assert rep.image == _heilermann(lam, n)


def test_conjecture3_stated_side_through_20():
    # the paper's products as printed, and the factor the image has beyond them
    for n, rep_i, rep_ii in _by_n(conjecture3(20)):
        sign = (-1) ** (n * (n + 1) // 2)
        stated_i = Polynomial.constant(sign * prod(factorial(i) for i in range(n)))
        stated_ii = Polynomial.constant(sign * prod(2**i * factorial(i) for i in range(n + 1)))
        for i in range(n - 1):
            stated_i = stated_i * (a + i) ** (n - 1 - i)
            stated_ii = stated_ii * (x - i) ** (n - 1 - i)
        rising, falling = Polynomial.constant(factorial(n)), Polynomial.one()
        for i in range(n):
            rising, falling = rising * (a + i), falling * (x - i)
        for rep, stated, factor in ((rep_i, stated_i, rising), (rep_ii, stated_ii, falling)):
            assert rep.expected == stated
            assert rep.notes == {}
            assert rep.ratio is None
            assert exact_div(rep.image, rep.expected) == factor


def test_conjecture3_inexact_division_raises(monkeypatch):
    # A fake map with the rows of x0 + x2 at 0 and x0 above: on the slice,
    # mu_0 = phi_K(x0 + x2)(a = 2x) = 1 - a/2 does not divide
    # mu_1 = phi_K(x0) = 1, and no determinant stands in for the failed
    # division
    def fake_psi_rows(kind):
        yield (1, 0, 1)
        while True:
            yield (1,)

    def no_determinant(matrix):
        raise AssertionError("fell back to a determinant")

    monkeypatch.setattr(identities, "psi_rows", fake_psi_rows)
    monkeypatch.setattr(identities, "determinant", no_determinant)
    assert identities.moment("ak1", (1, 0, 1), _slices(3)) == 1 - a / 2
    with pytest.raises(ValueError, match="not exact"):
        conjecture3(1)


def test_conjecture3_sweep_expands_each_moment_once(monkeypatch):
    calls = []
    moment = identities.moment

    def counting_moment(kind, row, slices):
        calls.append((kind, len(row) - 1))
        return moment(kind, row, slices)

    monkeypatch.setattr(identities, "moment", counting_moment)
    conjecture3(4)
    # entries 0..8 of each part's Hankel matrices, once each
    assert len(calls) == 2 * 9


@given(polynomials(max_var=5, max_exp=1, max_terms=3))
@settings(max_examples=25, deadline=None)
def test_phi_intertwines_kravchuk_derivations(p):
    # phi o D_K2 = d/da o phi and phi o D_K1 = -1/2 d/dx o phi
    assert phi_k(apply(kravchuk2, p)) == phi_k(p).diff(A)
    assert phi_k(apply(kravchuk1, p)) == phi_k(p).diff(X) * Fraction(-1, 2)


def test_phi_k_matches_kravchuk_table():
    for n in range(7):
        assert phi_k(Polynomial.var(xvar(n))) == kravchuk(n)
