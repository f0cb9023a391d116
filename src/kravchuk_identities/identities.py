"""Identity classification under phi_K (x_i -> K_i(x,a)) and symbolic
verification of the conjectured identities.

Every verifier is a bidirectional contract: it computes both sides
exactly and returns Verified or Refuted with the canonical polynomials,
plus a constant ratio whenever the two sides are proportional.
"""

import time
from functools import reduce
from math import factorial, prod
from operator import mul
from types import SimpleNamespace

from . import arith
from .derivations import is_in_kernel, kravchuk1
from .intertwine import apply_psi, psi_ak1, psi_row
from .kravchuk import on_slice, phi_k, slice_numerators, slice_polynomial
from .poly import (
    A,
    X,
    Polynomial,
    binom_poly,
    constant_ratio,
    determinant,
    exact_div,
    render_text,
    xvar,
)

CONSTANT = "Constant"
ONLY_A = "OnlyA"
ONLY_X = "OnlyX"
MIXED = "Mixed"

VERIFIED = "Verified"
REFUTED = "Refuted"


class IdentityReport(SimpleNamespace):
    """One verifier result, built by keyword: check_id (str), n (int or
    None), image (Polynomial), classification (str), verdict (str or None),
    expected (Polynomial or None), ratio (constant Polynomial or None), runtime_ms
    (float) and notes (dict)."""

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


def _classification(image: Polynomial) -> str:
    variables = image.variables()
    if X in variables:
        return MIXED if A in variables else ONLY_X
    return ONLY_A if A in variables else CONSTANT


def _report(
    check_id: str,
    n: int | None,
    image: Polynomial,
    expected: Polynomial | None,
    start: float,
    notes: dict = None,
) -> IdentityReport:
    """The report comparing image with expected, timed from start (a
    time.perf_counter() value); with no expected side there is no verdict,
    and otherwise it is Verified exactly when the ratio is 1."""
    ratio = None if expected is None else constant_ratio(image, expected)
    verdict = None if expected is None else VERIFIED if ratio == 1 else REFUTED
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


def classify(p: Polynomial, expected: Polynomial = None) -> IdentityReport:
    start = time.perf_counter()
    return _report("classify", None, phi_k(p), expected, start)


# -- conjectures 1 and 2 ------------------------------------------------
# phi_K o D_K2 = d/da o phi_K, phi_K o D_K1 = -1/2 d/dx o phi_K, D(x_1) = x_0
# and phi_K(x_0) = 1: phi_K(sigma(x_n)) is the Taylor series of K_n on a slice.


def _slice(check_id: str, n: int, var: int, even_rhs) -> IdentityReport:
    """K_n on the slice a = 2x, in var (see kravchuk.on_slice), versus
    even_rhs(m) for n = 2m and 0 for odd n."""
    if n < 2:
        raise ValueError(f"{check_id}: n must be >= 2, got {n}")
    start = time.perf_counter()
    lhs = on_slice(n, var)
    rhs = Polynomial.zero() if n % 2 else even_rhs(n // 2)
    return _report(check_id, n, lhs, rhs, start)


def conjecture1(n: int) -> IdentityReport:
    """phi_K(sigma(x_n)) = K_n(a/2, a) for D_K1 versus the conjectured product;
    by (1-z^2)^(a/2) it is (-1)^m C(a/2, m) for n = 2m: ratio exactly 1/n!."""
    a = Polynomial.var(A)

    def rhs(m):
        c = Polynomial.constant((-1) ** m * arith.double_factorial(2 * m - 1))
        return reduce(mul, (a - 2 * j for j in range(m)), c)

    return _slice("conjecture1", n, A, rhs)


def conjecture2(n: int) -> IdentityReport:
    """phi_K(sigma(x_n)) = K_n(x, 2x) for D_K2 versus 0 (odd n) or
    (-1)^m C(x,m), n = 2m; the generating function (1-z^2)^x proves it."""
    x = Polynomial.var(X)
    return _slice("conjecture2", n, X, lambda m: binom_poly(x, m) * (-1) ** m)


# -- the discriminant chain and conjecture 3 ----------------------------


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
    transported = apply_psi(psi_ak1, disc)
    kernel_ok = is_in_kernel(kravchuk1, transported)
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


class _Chebyshev:
    """The Chebyshev algorithm (Gautschi, Orthogonal Polynomials, 2004,
    sec. 2.1.7) on the moments mu_l = moment(l), grown one n at a time.

    sigma[k, l] = sigma_{k,l}, with sigma_{0,l} = mu_l, each moment asked
    for once.  alpha[k] = ratios[k] - ratios[k-1] with ratios[k] =
    sigma_{k,k+1} / sigma_{k,k}, beta[0] = mu_0 and beta[k] = sigma_{k,k} /
    sigma_{k-1,k-1} are the coefficients of the three-term recurrence of the
    moments' orthogonal polynomials.  By
    Heilermann's formula the Hankel determinant det[mu_(i+j)]_{i,j<=n} is
    dets[n] = sigma_{0,0} sigma_{1,1} ... sigma_{n,n}.  Every division is
    exact_div, which raises when it is not exact.
    """

    def __init__(self, moment):
        self.moment = moment
        self.sigma: dict = {}
        self.alpha: list = []
        self.beta: list = []
        self.dets: list = []
        self.ratios: list = []

    def det(self, n: int) -> Polynomial:
        while len(self.dets) <= n:
            self._step()
        return self.dets[n]

    def _step(self) -> None:
        """dets[m] from dets[m-1]: row 0 gains mu_l and rows k < m gain
        sigma_{k,l} for l = 2m-k-1, 2m-k, then alpha[m-1] and beta[m-1] give
        sigma_{m,m}."""
        m = len(self.dets)
        sigma, alpha, beta, ratios = self.sigma, self.alpha, self.beta, self.ratios
        for l in range(max(2 * m - 1, 0), 2 * m + 1):
            sigma[0, l] = self.moment(l)
        if not m:
            self.dets.append(sigma[0, 0])
            return
        for k in range(1, m):
            for l in (2 * m - k - 1, 2 * m - k):
                sigma[k, l] = _sigma_entry(sigma, alpha, beta, k, l)
        j = m - 1
        ratios.append(exact_div(sigma[j, j + 1], sigma[j, j]))
        alpha.append(ratios[j] - ratios[j - 1] if j else ratios[0])
        beta.append(exact_div(sigma[j, j], sigma[j - 1, j - 1]) if j else sigma[0, 0])
        sigma[m, m] = _sigma_entry(sigma, alpha, beta, m, m)
        self.dets.append(self.dets[-1] * sigma[m, m])


def _sigma_entry(sigma: dict, alpha: list, beta: list, k: int, l: int) -> Polynomial:
    """sigma_{k,l} = sigma_{k-1,l+1} - alpha_(k-1) sigma_{k-1,l}
    - beta_(k-1) sigma_{k-2,l}, where sigma_{-1,l} = 0."""
    entry = sigma[k - 1, l + 1] - alpha[k - 1] * sigma[k - 1, l]
    if k >= 2:
        entry = entry - beta[k - 1] * sigma[k - 2, l]
    return entry


# psi_AK1 (kind "ak1") and psi_AK2 ("ak2") -> the variable their moments are
# read in on the slice a = 2x, the one variable their Hankel determinants
# hold (see conjecture3).
_SLICE_VAR = {"ak1": A, "ak2": X}


def moment(kind: str, l: int, slices: list) -> Polynomial:
    """nu_l = phi_K(psi(x_l)) on the slice a = 2x, in the variable
    _SLICE_VAR[kind], for the psi whose rows are psi_row(kind, .): the sum
    over i of row[i] K_i at a = 2x.  With d + 1 entries in the row, each
    K_i's slice numerators (see kravchuk.slice_numerators, over 2^i i!) are
    scaled by row[i] d!/i! 2^(d-i) into one int vector over 2^d d!, which
    is packed once; no K_i and no psi(x_l) is built.  slices holds
    slice_numerators(i) for i = 0, 1, ... and is extended in place as far
    as the row needs, so the caller's sweep steps the rows of i! K_i up
    once."""
    row = psi_row(kind, l)
    d = len(row) - 1
    while len(slices) <= d:
        slices.append(slice_numerators(len(slices)))
    total = [0] * (d + 1)
    scale = 1  # d!/i! 2^(d-i)
    for i in range(d, -1, -1):
        if row[i]:
            c = row[i] * scale
            total[: i + 1] = [t + c * u for t, u in zip(total, slices[i])]
        scale = scale * i << 1
    return slice_polynomial(total, factorial(d) << d, _SLICE_VAR[kind])


def conjecture3(max_n: int) -> list:
    """Both parts of the Hankel-determinant conjecture at each index
    n = 1..max_n, part (i) then part (ii) for each n, on the (n+1) x (n+1)
    Hankel matrix H_n = [x_(i+j)].

    phi_K o psi is a ring homomorphism, so the image of det H_n is the
    Hankel determinant det[mu_(i+j)] on the moments mu_l = phi_K(psi(x_l))
    in Q[x,a]; det H_n itself is never expanded.  It equals the Hankel
    determinant det[nu_(i+j)] on the moments on the slice a = 2x (see
    moment), read off one Chebyshev table per part, so the sweep computes
    each table entry once, in one variable:

    - mu_l = sum_i row_l[i] K_i, and sum_l row_l[i] z^l / l! = g(z)^i with
      g = tanh z for psi_AK1 and g = e^z - 1 for psi_AK2.  So
      sum_l mu_l z^l / l! = sum_i K_i g^i = (1 - g)^x (1 + g)^(a-x)
      = e^(s z) F(z), with s = K_1 = a - 2x and F = cosh(z)^(-a) for
      psi_AK1, F = (2 e^z - e^(2z))^x for psi_AK2: F holds a alone or x
      alone.
    - Evaluation at a = 2x is a ring homomorphism and s vanishes there, so
      nu_l = mu_l(a = 2x) = l! [z^l] F, read in a for psi_AK1 and in x for
      psi_AK2, is the coefficient of F itself, and the lemma
      mu_l = sum_k C(l,k) s^(l-k) nu_k follows from e^(s z) F(z).
    - So [mu_(i+j)] = L [nu_(i+j)] L^T with L_(ik) = C(i,k) s^(i-k), which
      is unitriangular (Krattenthaler, Advanced determinant calculus, 1999),
      and det[mu_(i+j)] = det[nu_(i+j)]: the slice loses nothing.

    Part (ii)'s 2^i i! product is read with the upper bound n, the only
    reading under which the image equals the products extended by one
    index (Heilermann's formula; the tests check it for n <= 20).

    The stated right side at n is (-1)^(n(n+1)/2) c(n) R_n, with c(n) the
    part's factorial product, v = a and s = 1 for part (i), v = x and
    s = -1 for part (ii), and R_n = prod_{i<n-1} (v + s i)^(n-1-i).  R_n is
    F_1 F_2 ... F_(n-1) with F_m = prod_{i<m} (v + s i), so each n steps
    F_(n-1) = F_(n-2) (v + s(n-2)) and R_n = R_(n-1) F_(n-1) up from
    R_1 = F_0 = 1.
    """
    if max_n < 1:
        raise ValueError(f"conjecture3: max_n must be >= 1, got {max_n}")
    slices: list = []  # shared by both parts' moments
    parts = []
    for check_id, kind, s, c in (
        ("conjecture3i", "ak1", 1, lambda n: prod(map(factorial, range(n)))),
        ("conjecture3ii", "ak2", -1, lambda n: prod(2**i * factorial(i) for i in range(n + 1))),
    ):
        table = _Chebyshev(lambda l: moment(kind, l, slices))
        v = Polynomial.var(_SLICE_VAR[kind])
        r = f = Polynomial.one()  # R_n and F_(n-1)
        reports = []
        for n in range(1, max_n + 1):
            start = time.perf_counter()
            image = table.det(n)
            if n > 1:
                f = f * (v + s * (n - 2))
                r = r * f
            expected = r * ((-1) ** (n * (n + 1) // 2) * c(n))
            reports.append(_report(check_id, n, image, expected, start))
        parts.append(reports)
    return [rep for pair in zip(*parts) for rep in pair]
