import math

import pytest

from kravchuk_identities.arith import stirling_second
from kravchuk_identities.derivations import apply, is_in_kernel, kravchuk1, kravchuk2, weitzenbock
from kravchuk_identities.intertwine import (
    apply_psi,
    b_coeff,
    psi_ak1,
    psi_ak2,
    t_coeff,
)
from kravchuk_identities.poly import Polynomial, xvar

from oracles import b_genfun_oracle, t_genfun_oracle

x0, x1, x2, x3, x4, x5, x6 = (Polynomial.var(xvar(i)) for i in range(7))


def test_t_coeff_examples():
    assert t_coeff(1, 1) == 1
    assert t_coeff(3, 1) == -2
    assert t_coeff(3, 3) == 6
    assert t_coeff(6, 2) == 272
    for n in range(1, 13):
        assert t_coeff(n, n) == math.factorial(n)
    with pytest.raises(ValueError):
        t_coeff(3, 0)


def test_t_coeff_parity_vanishing():
    for n in range(1, 13):
        for i in range(1, n + 1):
            if (n - i) % 2 == 1:
                assert t_coeff(n, i) == 0


def test_b_coeff_examples():
    assert b_coeff(4, 2) == 14
    assert b_coeff(4, 3) == 36
    assert b_coeff(6, 5) == 1800
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert b_coeff(n, k) == math.factorial(k) * stirling_second(n, k)


def test_genfun_oracles():
    N = 12
    for i in range(1, 7):
        values = t_genfun_oracle(i, N)
        assert values == [t_coeff(n, i) for n in range(i, N + 1)]
    for k in range(1, 7):
        values = b_genfun_oracle(k, N)
        assert values == [b_coeff(n, k) for n in range(k, N + 1)]


def test_psi_ak1_table():
    psi = psi_ak1(6)
    assert psi.images[1] == x1
    assert psi.images[2] == 2 * x2
    assert psi.images[3] == -2 * x1 + 6 * x3
    assert psi.images[4] == -16 * x2 + 24 * x4
    assert psi.images[5] == 16 * x1 - 120 * x3 + 120 * x5
    assert psi.images[6] == 272 * x2 - 960 * x4 + 720 * x6


def test_psi_ak2_table():
    psi = psi_ak2(6)
    assert psi.images[1] == x1
    assert psi.images[2] == x1 + 2 * x2
    assert psi.images[3] == x1 + 6 * x2 + 6 * x3
    assert psi.images[4] == x1 + 14 * x2 + 36 * x3 + 24 * x4
    assert psi.images[5] == x1 + 30 * x2 + 150 * x3 + 240 * x4 + 120 * x5
    assert psi.images[6] == (
        x1 + 62 * x2 + 540 * x3 + 1560 * x4 + 1800 * x5 + 720 * x6
    )


def test_intertwining_property():
    N = 20
    dw = weitzenbock(N)
    for build_psi_fn, build_d in ((psi_ak1, kravchuk1), (psi_ak2, kravchuk2)):
        psi = build_psi_fn(N)
        D = build_d(N)
        for n in range(N + 1):
            xn = Polynomial.var(xvar(n))
            lhs = apply(D, apply_psi(psi, xn))
            rhs = apply_psi(psi, apply(dw, xn))
            assert lhs == rhs


def test_apply_psi_range_check():
    with pytest.raises(ValueError):
        apply_psi(psi_ak1(2), x3)


def test_kernel_transport():
    # psi maps Weitzenbock kernel elements to Kravchuk-derivation kernel elements
    N = 8
    dw = weitzenbock(N)
    kernel_elems = [
        x0 * x2 - x1**2,
        x0**2 * x3 - 3 * x0 * x1 * x2 + 2 * x1**3,
        x0 * x4 - 4 * x1 * x3 + 3 * x2**2,
    ]
    for p in kernel_elems:
        assert is_in_kernel(dw, p)
        assert is_in_kernel(kravchuk1(N), apply_psi(psi_ak1(N), p))
        assert is_in_kernel(kravchuk2(N), apply_psi(psi_ak2(N), p))
