"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single `criterion NN: PASS/FAIL` line (run with -s to
see them) and enforces its runtime cap.
"""

import json
import random
import time
from fractions import Fraction
from math import factorial

from kravchuk_identities import arith, series
from kravchuk_identities.cli import parse_expr, run
from kravchuk_identities.derivations import (
    apply,
    cayley_k1,
    cayley_k2,
    dixmier_sigma,
    is_in_kernel,
    kravchuk1,
    kravchuk2,
    weitzenbock,
)
from kravchuk_identities.identities import (
    CONSTANT,
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
from kravchuk_identities.intertwine import apply_psi, psi_ak1, psi_ak2
from kravchuk_identities.kravchuk import dKda_expansion, dKdx_expansion, kravchuk
from kravchuk_identities.poly import A, X, Polynomial, determinant, render_text, xvar

from oracles import (
    closed_power,
    dk1_power_coeff,
    dk1_scale_by_iteration,
    dk2_power_coeff,
    hankel,
    i_element,
    power_apply,
    psi_coeff,
    t_genfun_oracle,
)

x0, x1, x2, x3, x4, x5 = (Polynomial.var(xvar(i)) for i in range(6))
a = Polynomial.var(A)
x = Polynomial.var(X)


def _gate(num, description, cap_s, fn):
    start = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - start
        ok = elapsed < cap_s
        status = "PASS" if ok else "FAIL (over time cap)"
    except AssertionError:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d}: FAIL ({elapsed:.2f}s) — {description}")
        raise
    print(f"criterion {num:02d}: {status} ({elapsed:.2f}s) — {description}")
    assert ok, f"criterion {num} exceeded {cap_s}s cap: {elapsed:.2f}s"


def test_criterion_01_worked_identities():
    def check():
        assert phi_k(x1**2 - 2 * x2 * x0) == a
        assert phi_k(x0 * x1 - x1**2 + 2 * x2 * x0) == -2 * x

    _gate(1, "worked identities phi_K images", 1.0, check)


def test_criterion_02_discriminant_chain():
    def check():
        # the displayed 5x5 determinant carries the extra factor -x0
        # relative to the cubic discriminant (degree 5 vs 4)
        assert determinant(discriminant_matrix()) == -x0 * discriminant_expected()
        rep = discriminant_identity()
        assert rep.notes["in_kernel_k1"]
        assert rep.image == 108 * a**3
        assert rep.verdict == VERIFIED

    _gate(2, "discriminant chain to 108*a^3", 5.0, check)


def test_criterion_03_derivative_expansions():
    def check():
        for n in range(1, 16):
            kn = kravchuk(n)
            assert kn.diff(X) == dKdx_expansion(n)
            assert kn.diff(A) == dKda_expansion(n)

    _gate(3, "dK/dx and dK/da expansions, n <= 15", 30.0, check)


def test_criterion_04_genfun_oracle():
    def check():
        gf = series.kravchuk_genfun(12)
        for n in range(13):
            assert gf[n] == kravchuk(n)

    _gate(4, "generating-function oracle, n <= 12", 30.0, check)


def test_criterion_05_cayley_and_sigma_tables():
    def check():
        table = {
            2: 2 * x2 * x0 - x1**2,
            3: 3 * x3 * x0**2 - x1 * x0**2 - 3 * x1 * x0 * x2 + x1**3,
            4: 8 * x4 * x0**3 - 8 * x1 * x0**2 * x3 + 4 * x1**2 * x0 * x2 - x1**4,
        }
        for n, expected in table.items():
            assert cayley_k1(n) == expected
        phi_images = [
            -a,
            Polynomial.zero(),
            a * (a - 2),
            Polynomial.zero(),
            -3 * a * (a - 2) * (a - 4),
        ]
        for n, expected in zip(range(2, 7), phi_images):
            assert phi_k(cayley_k1(n)) == expected
        sigma_images = [
            -x,
            Polynomial.zero(),
            x * (x - 1) / 2,
            Polynomial.zero(),
            -x * (x - 1) * (x - 2) / 6,
        ]
        for n, expected in zip(range(2, 7), sigma_images):
            sigma = dixmier_sigma(kravchuk2, n)
            image = phi_k(sigma.numerator)  # phi_K(x0) = 1 kills the pivot
            assert image == expected

    _gate(5, "Cayley table, phi_K(C_n), and sigma_K2 images", 60.0, check)


def test_criterion_06_kernel_properties():
    def check():
        for n in range(2, 13):
            assert is_in_kernel(kravchuk1, cayley_k1(n))
            assert is_in_kernel(kravchuk2, cayley_k2(n).polynomial)
        p = (
            x3 * x1**2
            - 2 * x2 * x3 * x0
            - x1 * x4 * x0
            - 3 * x3 * x0**2
            + 5 * x5 * x0**2
        )
        assert not is_in_kernel(kravchuk1, p)
        assert not is_in_kernel(kravchuk2, p)
        assert phi_k(p).is_zero

    _gate(6, "kernel membership, n <= 12, plus the non-kernel witness", 60.0, check)


def test_criterion_07_closed_form_powers():
    def check():
        for n in range(1, 13):
            xn = Polynomial.var(xvar(n))
            for k in range(1, n + 1):
                assert closed_power(n, k, dk1_power_coeff) == power_apply(kravchuk1, xn, k)
                assert closed_power(n, k, dk2_power_coeff) == power_apply(kravchuk2, xn, k)
        # one calibration constant per k, read off D_K1^k(x_k); the closed
        # forms above carry the same 2^-k for every n
        assert [dk1_scale_by_iteration(k) for k in range(1, 13)] == [
            Fraction(1, 2**k) for k in range(1, 13)
        ]
        print("  dk1 calibration constant: 2^-k per power k")

    _gate(7, "closed-form powers match iterated application, k <= n <= 12", 60.0, check)


def test_criterion_08_intertwining_maps():
    def check():
        assert psi_ak1(5) == 16 * x1 - 120 * x3 + 120 * x5
        assert psi_ak2(4) == x1 + 14 * x2 + 36 * x3 + 24 * x4
        for psi, D in ((psi_ak1, kravchuk1), (psi_ak2, kravchuk2)):
            for n in range(21):
                xn = Polynomial.var(xvar(n))
                assert apply(D, apply_psi(psi, xn)) == apply_psi(psi, apply(weitzenbock, xn))
        # T(n+1,i) = i (T(n,i-1) - T(n,i+1)) with T(n,0) = [n = 0],
        # B(n,k) = k (B(n-1,k) + B(n-1,k-1)) with B(n,n) = n!
        # (psi_coeff is 0 past the row's end)
        def t_ext(n, i):
            return psi_coeff(psi_ak1, n, i) if i else int(n == 0)

        def b_ext(n, k):
            return psi_coeff(psi_ak2, n, k) if k else int(n == 0)

        for n in range(1, 12):
            for i in range(1, n + 2):
                assert t_ext(n + 1, i) == i * (t_ext(n, i - 1) - t_ext(n, i + 1))
            for k in range(1, n + 2):
                assert b_ext(n + 1, k) == k * (b_ext(n, k) + b_ext(n, k - 1))
        for i in range(1, 13):
            assert t_genfun_oracle(i, 12) == [psi_coeff(psi_ak1, n, i) for n in range(i, 13)]

    _gate(8, "psi tables, intertwining on generators, coefficient oracles", 60.0, check)


def test_criterion_09_conjecture_sweeps():
    def check():
        for n in range(2, 11):
            rep = conjecture1(n)
            assert rep.to_record()["lhs_canonical"] is not None
            if n % 2 == 1:
                assert rep.verdict == VERIFIED and rep.image.is_zero
            else:
                assert rep.ratio == Fraction(1, factorial(n))
            rep = conjecture2(n)
            assert rep.verdict == VERIFIED
            if n % 2 == 1:
                assert rep.image.is_zero
        reports = conjecture3(4)
        assert [(rep.check_id, rep.n) for rep in reports] == [
            (check_id, n) for n in range(1, 5) for check_id in ("conjecture3i", "conjecture3ii")
        ]
        for rep in reports:
            rec = rep.to_record()
            assert rec["verdict"] in (VERIFIED, REFUTED)
            assert rec["lhs_canonical"] and rec["rhs_canonical"]

    _gate(9, "conjecture sweeps 1-2 (n <= 10) and 3 (n <= 4)", 300.0, check)


def test_criterion_10_theorem_classification():
    def check():
        # every kernel element used in the suite
        k1_elems = [cayley_k1(n) for n in range(2, 9)]
        k1_elems.append(apply_psi(psi_ak1, i_element(3)))
        det_h2 = determinant(hankel([x0, x1, x2, x3, x4]))
        k1_elems.append(apply_psi(psi_ak1, det_h2))
        for p in k1_elems:
            assert classify(p).classification in (CONSTANT, ONLY_A)
        k2_elems = [cayley_k2(n).polynomial for n in range(2, 9)]
        k2_elems.append(apply_psi(psi_ak2, i_element(3)))
        k2_elems.append(apply_psi(psi_ak2, det_h2))
        for p in k2_elems:
            assert classify(p).classification in (CONSTANT, ONLY_X)
        # phi o D_K2 = d/da o phi on monomials; phi o D_K1 = c d/dx o phi
        monomials = [x3, x0 * x2, x1**2 * x4, x2 * x3 * x5, x1 * x2**2]
        c = Fraction(-1, 2)
        for m in monomials:
            assert phi_k(apply(kravchuk2, m)) == phi_k(m).diff(A)
            assert phi_k(apply(kravchuk1, m)) == phi_k(m).diff(X) * c
        print(f"  phi o D_K1 = c * d/dx o phi with c = {c}")

    _gate(10, "kernel classification and the intertwined-derivative identities", 60.0, check)


def test_criterion_11_cli_contract(tmp_path):
    def check():
        rng = random.Random(11)
        codes = [xvar(i) for i in range(5)] + [X, A]
        for _ in range(1000):
            p = Polynomial.zero()
            for _ in range(rng.randint(1, 5)):
                term = Polynomial.constant(
                    Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                )
                for _ in range(rng.randint(0, 3)):
                    term = term * Polynomial.var(rng.choice(codes)) ** rng.randint(1, 3)
                p = p + term
            assert parse_expr(render_text(p)) == p
        assert run(["kernel", "check", "--derivation", "k1", "x1^2 - 2*x2*x0"]) == 0
        assert run(["kernel", "check", "--derivation", "k1", "x1"]) == 1
        assert run(["kernel", "check", "--derivation", "k1", "x1^-2"]) == 2
        out = tmp_path / "c2.json"
        assert (
            run(["conjecture", "2", "--max-n", "6", "--format", "json", "--out", str(out)])
            == 0
        )
        records = json.loads(out.read_text())
        # schema stability
        assert records and all(
            set(rec)
            == {
                "check_id",
                "n",
                "verdict",
                "classification",
                "lhs_canonical",
                "rhs_canonical",
                "ratio_if_proportional",
                "runtime_ms",
            }
            for rec in records
        )

    _gate(11, "CLI round-trip, exit codes, JSON schema", 120.0, check)
