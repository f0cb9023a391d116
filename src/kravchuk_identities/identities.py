"""The substitution homomorphism phi_K (x_i -> K_i(x,a)), identity
classification, and symbolic verification of the conjectured identities.

Every verifier is a bidirectional contract: it computes both sides
exactly and returns Verified or Refuted with the canonical polynomials,
plus a constant ratio whenever the two sides are proportional.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import arith
from .derivations import dixmier_sigma, is_in_kernel, kravchuk1, kravchuk2, weitzenbock
from .intertwine import apply_psi, psi_ak1, psi_ak2
from .kravchuk import kravchuk
from .poly import (
    A,
    X,
    Polynomial,
    binom_poly,
    determinant,
    exact_div,
    render_text,
    var_name,
    xvar,
)

CONSTANT = "Constant"
ONLY_A = "OnlyA"
ONLY_X = "OnlyX"
MIXED = "Mixed"

VERIFIED = "Verified"
REFUTED = "Refuted"


@dataclass
class IdentityReport:
    check_id: str
    n: int | None
    image: Polynomial
    classification: str
    verdict: str | None
    expected: Polynomial | None
    ratio: Fraction | None
    runtime_ms: float
    notes: dict

    def to_record(self) -> dict:
        return {
            "check_id": self.check_id,
            "n": self.n,
            "verdict": self.verdict,
            "classification": self.classification,
            "lhs_canonical": render_text(self.image),
            "rhs_canonical": render_text(self.expected)
            if self.expected is not None
            else None,
            "ratio_if_proportional": str(self.ratio) if self.ratio is not None else None,
            "runtime_ms": round(self.runtime_ms, 3),
        }


def phi_k(p: Polynomial, N: int = None) -> Polynomial:
    """Substitute x_i -> K_i(x,a) and expand."""
    vs = p.variables()
    for v in vs:
        if v in (X, A):
            raise ValueError("phi_k input must use only the generators x0..xN")
        if N is not None and v > N:
            raise ValueError(f"variable {var_name(v)} out of range (N={N})")
    return p.substitute({v: kravchuk(v) for v in vs})


def _classification(image: Polynomial) -> str:
    dx = image.diff(X)
    da = image.diff(A)
    if dx.is_zero and da.is_zero:
        return CONSTANT
    if dx.is_zero:
        return ONLY_A
    if da.is_zero:
        return ONLY_X
    return MIXED


def proportional(lhs: Polynomial, rhs: Polynomial) -> Fraction | None:
    """Constant c with lhs = c * rhs, or None."""
    if rhs.is_zero:
        return Fraction(1) if lhs.is_zero else None
    if lhs.is_zero:
        return Fraction(0)
    mono, c_rhs = next(iter(rhs.terms()))
    c = lhs.coeff(mono) / c_rhs
    return c if lhs == rhs * c else None


def _report(
    check_id: str,
    n: int | None,
    image: Polynomial,
    expected: Polynomial | None,
    start: float,
    notes: dict = None,
) -> IdentityReport:
    """The report comparing image with expected, timed from start (a
    time.perf_counter() value); with no expected side there is no verdict."""
    if expected is None:
        verdict, ratio = None, None
    else:
        verdict = VERIFIED if image == expected else REFUTED
        ratio = proportional(image, expected)
    return IdentityReport(
        check_id=check_id,
        n=n,
        image=image,
        classification=_classification(image),
        verdict=verdict,
        expected=expected,
        ratio=ratio,
        runtime_ms=(time.perf_counter() - start) * 1000,
        notes=notes or {},
    )


def classify(
    p: Polynomial,
    N: int = None,
    expected: Polynomial = None,
    check_id: str = "classify",
    n: int = None,
) -> IdentityReport:
    start = time.perf_counter()
    return _report(check_id, n, phi_k(p, N), expected, start)


# -- conjectures 1 and 2 ------------------------------------------------


def _phi_sigma(D, n: int) -> Polynomial:
    """phi_K(sigma(x_n)) for D; phi_K(x0) = K_0 = 1, so sigma's x0
    denominator drops out."""
    return phi_k(dixmier_sigma(D, n).numerator)


def conjecture1(n: int) -> IdentityReport:
    """phi_K(sigma(x_n)) for D_K1 versus the conjectured closed product."""
    if n < 2:
        raise ValueError(f"conjecture1: n must be >= 2, got {n}")
    start = time.perf_counter()
    lhs = _phi_sigma(kravchuk1(n), n)
    if n % 2 == 1:
        rhs = Polynomial.zero()
    else:
        m = n // 2
        a = Polynomial.var(A)
        rhs = Polynomial.constant((-1) ** m * arith.double_factorial(2 * m - 1))
        for j in range(m):
            rhs = rhs * (a - 2 * j)
    return _report("conjecture1", n, lhs, rhs, start)


def conjecture2(n: int) -> IdentityReport:
    """phi_K(sigma(x_n)) for D_K2 versus 0 (odd n) or (-1)^m C(x,m), n = 2m."""
    if n < 2:
        raise ValueError(f"conjecture2: n must be >= 2, got {n}")
    start = time.perf_counter()
    lhs = _phi_sigma(kravchuk2(n), n)
    if n % 2 == 1:
        rhs = Polynomial.zero()
    else:
        m = n // 2
        rhs = binom_poly(Polynomial.var(X), m) * (-1) ** m
    return _report("conjecture2", n, lhs, rhs, start)


# -- Weitzenbock kernel elements and conjecture 3 -----------------------


def i_element(n: int) -> Polynomial:
    """I_n = (1/2) sum_{i=0}^{2n} (-1)^i C(2n,i) x_i x_{2n-i}.

    The second index is read as 2n-i (the printed n-i goes negative);
    membership in ker(weitzenbock) is asserted as the arbiter.
    """
    if n < 1:
        raise ValueError(f"i_element: n must be >= 1, got {n}")
    total = Polynomial.zero()
    for i in range(2 * n + 1):
        term = Polynomial.var(xvar(i)) * Polynomial.var(xvar(2 * n - i))
        total = total + term * ((-1) ** i * arith.binomial(2 * n, i))
    total = total / 2
    if not is_in_kernel(weitzenbock(2 * n), total):
        raise RuntimeError(f"I_{n} failed the Weitzenbock kernel post-check")
    return total


def hankel(n: int):
    """(n+1) x (n+1) Hankel matrix with entries x_(i+j), spanning x0..x_2n."""
    if n < 1:
        raise ValueError(f"hankel: n must be >= 1, got {n}")
    return [
        [Polynomial.var(xvar(i + j)) for j in range(n + 1)] for i in range(n + 1)
    ]


def discriminant_matrix():
    """The 5x5 discriminant matrix of x0 X^3 + 3 x1 X^2 Y + 3 x2 X Y^2 + x3 Y^3."""
    x0, x1, x2, x3 = (Polynomial.var(xvar(i)) for i in range(4))
    zero = Polynomial.zero()
    return [
        [x0, 3 * x1, 3 * x2, x3, zero],
        [zero, x0, 3 * x1, 3 * x2, x3],
        [3 * x0, 6 * x1, 3 * x2, zero, zero],
        [zero, 3 * x0, 6 * x1, 3 * x2, zero],
        [zero, zero, 3 * x0, 6 * x1, 3 * x2],
    ]


def discriminant_expected() -> Polynomial:
    """27 (6 x0 x3 x2 x1 + 3 x1^2 x2^2 - 4 x1^3 x3 - 4 x2^3 x0 - x0^2 x3^2)."""
    x0, x1, x2, x3 = (Polynomial.var(xvar(i)) for i in range(4))
    return 27 * (
        6 * x0 * x3 * x2 * x1
        + 3 * x1**2 * x2**2
        - 4 * x1**3 * x3
        - 4 * x2**3 * x0
        - x0**2 * x3**2
    )


def discriminant_identity() -> IdentityReport:
    """The introduction's chain: 5x5 resultant-style determinant, the cubic
    discriminant det / (-x0), psi_AK1 transport into ker(D_K1), and the
    phi_K image 108 a^3."""
    start = time.perf_counter()
    raw_det = determinant(discriminant_matrix())
    # det = -x0 * disc: the classical normalization between the displayed
    # 5x5 determinant and the discriminant of the cubic.
    disc = exact_div(raw_det, -Polynomial.var(xvar(0)))
    disc_ok = disc == discriminant_expected()
    transported = apply_psi(psi_ak1(3), disc)
    kernel_ok = is_in_kernel(kravchuk1(3), transported)
    image = phi_k(transported)
    expected = Polynomial.var(A) ** 3 * 108
    report = _report(
        "discriminant",
        None,
        image,
        expected,
        start,
        notes={"discriminant_matches": disc_ok, "in_kernel_k1": kernel_ok},
    )
    if not (disc_ok and kernel_ok):
        report.verdict = REFUTED
    return report


def _c3_rhs_part1(n: int, shifted: bool = False) -> Polynomial:
    """Part (i) right side; shifted=True extends every product by one
    index (the reading under which the computed sides actually agree)."""
    a = Polynomial.var(A)
    coeff = (-1) ** (n * (n + 1) // 2)
    for i in range(n + 1 if shifted else n):
        coeff *= factorial(i)
    rhs = Polynomial.constant(coeff)
    top = n if shifted else n - 1
    for i in range(top):
        rhs = rhs * (a + i) ** (top - i)
    return rhs


def _c3_rhs_part2(n: int, shifted: bool = False) -> Polynomial:
    """Part (ii) right side, reading the 2^i i! product up to i = n;
    shifted=True extends the geometric product by one index."""
    x = Polynomial.var(X)
    coeff = (-1) ** (n * (n + 1) // 2)
    for i in range(n + 1):
        coeff *= 2**i * factorial(i)
    rhs = Polynomial.constant(coeff)
    top = n if shifted else n - 1
    for i in range(top):
        rhs = rhs * (x - i) ** (top - i)
    return rhs


def conjecture3(n: int) -> tuple:
    """Both parts of the Hankel-determinant conjecture at index n.

    Part (ii)'s 2^i i! product is read with the upper bound n, the only
    reading under which the shifted products match (checked for n <= 4).
    """
    if n < 1:
        raise ValueError(f"conjecture3: n must be >= 1, got {n}")
    # The determinant is shared by both parts; each part's runtime counts it.
    start = time.perf_counter()
    det_h = determinant(hankel(n))
    det_s = time.perf_counter() - start
    reports = []
    for check_id, psi, rhs in (
        ("conjecture3i", psi_ak1, _c3_rhs_part1),
        ("conjecture3ii", psi_ak2, _c3_rhs_part2),
    ):
        start = time.perf_counter() - det_s
        image = phi_k(apply_psi(psi(2 * n), det_h))
        notes = {"shifted_products_match": image == rhs(n, shifted=True)}
        reports.append(_report(check_id, n, image, rhs(n), start, notes))
    return tuple(reports)
