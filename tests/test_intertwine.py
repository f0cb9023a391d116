import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings

from kravchuk_identities import intertwine
from kravchuk_identities.derivations import apply, is_in_kernel, kravchuk1, kravchuk2, weitzenbock
from kravchuk_identities.intertwine import apply_psi, psi_ak1, psi_ak2
from kravchuk_identities.poly import A, X, Polynomial, xvar

from conftest import polynomials
from oracles import (
    b_coeff_stirling,
    b_genfun_oracle,
    psi_coeff,
    t_coeff_stirling,
    t_genfun_oracle,
)

x0, x1, x2, x3, x4, x5, x6 = (Polynomial.var(xvar(i)) for i in range(7))


def test_t_coeff_examples():
    assert psi_coeff(psi_ak1, 1, 1) == 1
    assert psi_coeff(psi_ak1, 3, 1) == -2
    assert psi_coeff(psi_ak1, 3, 3) == 6
    assert psi_coeff(psi_ak1, 6, 2) == 272
    for n in range(1, 13):
        assert psi_coeff(psi_ak1, n, n) == math.factorial(n)


def test_t_coeff_parity_vanishing():
    for n in range(1, 13):
        for i in range(1, n + 1):
            if (n - i) % 2 == 1:
                assert psi_coeff(psi_ak1, n, i) == 0


def test_b_coeff_examples():
    assert psi_coeff(psi_ak2, 4, 2) == 14
    assert psi_coeff(psi_ak2, 4, 3) == 36
    assert psi_coeff(psi_ak2, 6, 5) == 1800


def test_coeffs_match_stirling_sums():
    for n in range(1, 31):
        for i in range(1, n + 1):
            assert psi_coeff(psi_ak1, n, i) == t_coeff_stirling(n, i)
            assert psi_coeff(psi_ak2, n, i) == b_coeff_stirling(n, i)


def test_cold_coeff_rows_recursion_depth_is_bounded():
    # A cold row must fill the cache from the bottom instead of recursing
    # n calls deep: allow only ~20 frames above the caller's depth.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    intertwine._ROWS.clear()
    sys.setrecursionlimit(depth + 20)
    try:
        t, b = psi_coeff(psi_ak1, 60, 60), psi_coeff(psi_ak2, 60, 60)
    finally:
        sys.setrecursionlimit(limit)
    assert t == b == math.factorial(60)


def test_cold_rows_cache_only_the_requested_rows():
    # A cold row steps up from the highest cached row below it and keeps
    # only the rows asked for; any request order gives the same rows.
    intertwine._ROWS.clear()
    kinds = ("ak1", "ak2")
    ascending = {kind: [intertwine.psi_row(kind, n) for n in range(121)] for kind in kinds}
    intertwine._ROWS.clear()
    for kind in kinds:
        for n in (120, 40, 80, 100, 7):
            assert intertwine.psi_row(kind, n) == ascending[kind][n]
        assert sorted(intertwine._ROWS[kind]) == [0, 7, 40, 80, 100, 120]


def test_cold_row_memory_is_one_row_deep():
    # Row 500 of ak2 is about 0.25 MB (0.53 MB peak to build); caching rows
    # 1..500 on the way peaked at 42 MB.
    intertwine._ROWS.clear()
    tracemalloc.start()
    try:
        intertwine.psi_row("ak2", 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        intertwine._ROWS.clear()
    assert peak < 4_000_000


def test_genfun_oracles():
    N = 12
    for i in range(1, 7):
        values = t_genfun_oracle(i, N)
        assert values == [psi_coeff(psi_ak1, n, i) for n in range(i, N + 1)]
    for k in range(1, 7):
        values = b_genfun_oracle(k, N)
        assert values == [psi_coeff(psi_ak2, n, k) for n in range(k, N + 1)]


def test_psi_ak1_table():
    assert psi_ak1(0) == x0
    assert psi_ak1(1) == x1
    assert psi_ak1(2) == 2 * x2
    assert psi_ak1(3) == -2 * x1 + 6 * x3
    assert psi_ak1(4) == -16 * x2 + 24 * x4
    assert psi_ak1(5) == 16 * x1 - 120 * x3 + 120 * x5
    assert psi_ak1(6) == 272 * x2 - 960 * x4 + 720 * x6


def test_psi_ak2_table():
    assert psi_ak2(0) == x0
    assert psi_ak2(1) == x1
    assert psi_ak2(2) == x1 + 2 * x2
    assert psi_ak2(3) == x1 + 6 * x2 + 6 * x3
    assert psi_ak2(4) == x1 + 14 * x2 + 36 * x3 + 24 * x4
    assert psi_ak2(5) == x1 + 30 * x2 + 150 * x3 + 240 * x4 + 120 * x5
    assert psi_ak2(6) == (
        x1 + 62 * x2 + 540 * x3 + 1560 * x4 + 1800 * x5 + 720 * x6
    )


def test_intertwining_property():
    for psi, D in ((psi_ak1, kravchuk1), (psi_ak2, kravchuk2)):
        for n in range(21):
            xn = Polynomial.var(xvar(n))
            lhs = apply(D, apply_psi(psi, xn))
            rhs = apply_psi(psi, apply(weitzenbock, xn))
            assert lhs == rhs


@given(polynomials(max_var=5, max_exp=2))
@settings(max_examples=40, deadline=None)
def test_intertwining_property_on_random_polynomials(p):
    # D_Kj o psi_AKj = psi_AKj o W on all of Q[x0, x1, ...], not just on
    # the generators: both sides are derivations along the ring map psi.
    for psi, D in ((psi_ak1, kravchuk1), (psi_ak2, kravchuk2)):
        assert apply(D, apply_psi(psi, p)) == apply_psi(psi, apply(weitzenbock, p))


def test_apply_psi_range_check():
    for p in (Polynomial.var(X), x0 + Polynomial.var(A)):
        with pytest.raises(ValueError):
            apply_psi(psi_ak1, p)


def test_kernel_transport():
    # psi maps Weitzenbock kernel elements to Kravchuk-derivation kernel elements
    kernel_elems = [
        x0 * x2 - x1**2,
        x0**2 * x3 - 3 * x0 * x1 * x2 + 2 * x1**3,
        x0 * x4 - 4 * x1 * x3 + 3 * x2**2,
    ]
    for p in kernel_elems:
        assert is_in_kernel(weitzenbock, p)
        assert is_in_kernel(kravchuk1, apply_psi(psi_ak1, p))
        assert is_in_kernel(kravchuk2, apply_psi(psi_ak2, p))
