"""Independent routes to objects the package computes one way.

Each function here is a slower or differently derived construction that the
tests compare against the package's single route, or a view of a Polynomial
as {tuple monomial: Fraction} that the tests read its results through.
"""

import argparse
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import mul

from kravchuk_identities import arith, series
from kravchuk_identities.derivations import (
    apply,
    dixmier_sigma,
    is_in_kernel,
    kravchuk1,
    kravchuk2,
    weitzenbock,
)
from kravchuk_identities.intertwine import apply_psi
from kravchuk_identities.kravchuk import kravchuk, phi_k
from kravchuk_identities.poly import (
    A,
    X,
    Polynomial,
    _pack,
    _unpack,
    binom_poly,
    exact_div,
    generators,
    xvar,
)

# -- tuple monomials: sorted (code, exponent) pairs, exponents >= 1 ------


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_deg(m: tuple) -> int:
    return sum(e for _, e in m)


def mono_divides(m1: tuple, m2: tuple) -> bool:
    """Does m1 divide m2?"""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def mono_div(m2: tuple, m1: tuple) -> tuple:
    """m2 / m1, assuming divisibility."""
    exps = dict(m2)
    for v, e in m1:
        exps[v] -= e
    return tuple((v, e) for v, e in sorted(exps.items()) if e)


# -- Polynomials as {tuple monomial: Fraction} -------------------------


def from_terms(terms: dict) -> Polynomial:
    """The Polynomial of {tuple monomial: rational scalar}, over the lcm of
    the denominators."""
    return Polynomial.sum(
        (_pack(m), c.numerator, c.denominator) for m, c in terms.items() if c
    )


def terms(p: Polynomial):
    """(tuple monomial, Fraction coefficient) pairs of p in insertion order."""
    return ((_unpack(m), Fraction(c, p._den)) for m, c in p._terms.items())


def coeff(p: Polynomial, mono: tuple) -> Fraction:
    """The Fraction coefficient of the tuple monomial mono in p."""
    return Fraction(p._terms.get(_pack(mono), 0), p._den)


def degree(p: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((mono_deg(_unpack(m)) for m in p._terms), default=-1)


def diff_fraction_terms(terms: dict, v: int) -> dict:
    """d/dv of a {monomial: Fraction} dict."""
    result = {}
    for m, c in terms.items():
        e = dict(m).get(v, 0)
        if e:
            result[mono_div(m, ((v, 1),))] = c * e
    return result


def exact_div_fraction_terms(p: dict, q: dict) -> dict:
    """The quotient p / q of {monomial: Fraction} dicts by classical
    division under the graded order on dense exponent vectors over the codes
    in order; raises ValueError when q does not divide p."""
    codes = sorted({v for m in (*p, *q) for v, _ in m})

    def key(m):
        d = dict(m)
        return (mono_deg(m), [d.get(v, 0) for v in codes])

    lead = max(q, key=key)
    remainder, quotient = dict(p), {}
    while remainder:
        m = max(remainder, key=key)
        if not mono_divides(lead, m):
            raise ValueError("not exact")
        t = remainder[m] / q[lead]
        tm = mono_div(m, lead)
        quotient[tm] = t
        step = {mono_mul(tm, m2): -t * c for m2, c in q.items()}
        remainder = sum_fraction_terms([remainder, step])
    return quotient


def mul_fraction_terms(a: dict, b: dict) -> dict:
    """The product of two {monomial: Fraction} dicts, one Fraction per term,
    with no common denominator; terms come out in Polynomial's order."""
    if len(a) > len(b):
        a, b = b, a
    result: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = result.get(m, 0) + c1 * c2
            if s:
                result[m] = s
            else:
                del result[m]
    return result


def sum_fraction_terms(parts) -> dict:
    """The sum of {monomial: Fraction} dicts accumulated into one dict, one
    Fraction per term; terms come out in Polynomial.sum's order."""
    result: dict = {}
    for terms in parts:
        if not result:
            result.update(terms)
            continue
        for m, c in terms.items():
            result[m] = result.get(m, 0) + c
    return {m: c for m, c in result.items() if c}


def substitute_fraction_terms(terms: dict, images: dict) -> dict:
    """The image of a {monomial: Fraction} dict under var code -> image
    dict, one product of images per term and power."""
    parts = []
    for m, c in terms.items():
        product = {(): Fraction(c)}
        for v, e in m:
            for _ in range(e):
                product = mul_fraction_terms(product, images[v])
        parts.append(product)
    return sum_fraction_terms(parts)


def substitute_by_products(p: Polynomial, bindings: dict) -> Polynomial:
    """p's image under var code -> Polynomial bindings as the sum of one
    Polynomial product c * image^e * ... per term c x^m of p, each power
    computed once."""
    powers = {key: bindings[key[0]] ** key[1] for m, _ in terms(p) for key in m}
    return Polynomial.sum(reduce(mul, (powers[key] for key in m), c) for m, c in terms(p))


def render_terms(p: Polynomial, fmt: str):
    """p as render_text ("text"), render_latex ("latex") or to_json_terms
    ("json") writes it, from the Fractions of terms(p) sorted into the
    canonical order: degree descending, then the exponent vectors over p's
    variables, in the order x0 < x1 < ... < x < a, ascending."""
    rows = list(terms(p))
    codes = sorted({v for mono, _ in rows for v, _ in mono})

    def order(row):
        exps = dict(row[0])
        return -mono_deg(row[0]), [exps.get(v, 0) for v in codes]

    rows.sort(key=order)
    name = {X: "x", A: "a"}.get
    if fmt == "json":
        return [{"coeff": str(c), "monomial": {name(v, f"x{v}"): e for v, e in mono}}
                for mono, c in rows]
    if not rows:
        return "0"
    latex = fmt == "latex"
    out = []
    for mono, c in rows:
        fragments = []
        for v, e in mono:
            var = name(v, f"x_{{{v}}}" if latex else f"x{v}")
            fragments.append(var if e == 1 else f"{var}^{{{e}}}" if latex else f"{var}^{e}")
        monomial = ("" if latex else "*").join(fragments)
        n, d = abs(c.numerator), c.denominator
        coefficient = str(n) if d == 1 else f"\\frac{{{n}}}{{{d}}}" if latex else f"{n}/{d}"
        if not monomial:
            text = coefficient
        elif n == d == 1:
            text = monomial
        else:
            text = coefficient + ("\\," if latex else "*") + monomial
        out.append(("-" if c < 0 else "") + text if not out else (" - " if c < 0 else " + ") + text)
    return "".join(out)


def kravchuk_three_term(n: int) -> list:
    """[K_0, ..., K_n] from the three-term recurrence on Polynomials,
    (m+1) K_{m+1} = (a - 2x) K_m - (a - m + 1) K_{m-1},  K_0 = 1, K_1 = a - 2x."""
    a = Polynomial.var(A)
    k1 = a - 2 * Polynomial.var(X)
    ks = [Polynomial.one(), k1]
    for m in range(1, n):
        ks.append((k1 * ks[m] - (a - m + 1) * ks[m - 1]) / (m + 1))
    return ks[: n + 1]


def kravchuk_binomial_sum(n: int) -> Polynomial:
    """K_n(x,a) = sum_{i=0}^n (-1)^i C(x,i) C(a-x, n-i), expanded."""
    x = Polynomial.var(X)
    a_minus_x = Polynomial.var(A) - x
    total = Polynomial.zero()
    for i in range(n + 1):
        term = binom_poly(x, i) * binom_poly(a_minus_x, n - i)
        total = total + term if i % 2 == 0 else total - term
    return total


def kravchuk_on_slice(n: int, x, a) -> Polynomial:
    """K_n(x, a) at the polynomials (or constants) x and a, expanded by one
    Polynomial product per term of K_n: the package reads the slice a = 2x
    off the integer rows of n! K_n instead (kravchuk.slice_numerators)."""
    return kravchuk(n).substitute({X: x, A: a})


def hankel(entries) -> list:
    """The Hankel matrix [[e_(i+j)]] on 2n+1 entries e_0..e_2n, of size
    (n+1) x (n+1); the paper's H_n is hankel([x_0, ..., x_2n])."""
    if len(entries) % 2 == 0:
        raise ValueError(f"hankel: needs an odd number of entries, got {len(entries)}")
    n = len(entries) // 2
    return [[entries[i + j] for j in range(n + 1)] for i in range(n + 1)]


def i_element(n: int) -> Polynomial:
    """I_n = (1/2) sum_{i=0}^{2n} (-1)^i C(2n,i) x_i x_{2n-i}.

    The second index is read as 2n-i (the printed n-i goes negative);
    membership in ker(weitzenbock) is asserted as the arbiter.
    """
    if n < 1:
        raise ValueError(f"i_element: n must be >= 1, got {n}")
    total = Polynomial.sum(
        Polynomial.var(xvar(i)) * Polynomial.var(xvar(2 * n - i))
        * ((-1) ** i * arith.binomial(2 * n, i))
        for i in range(2 * n + 1)
    ) / 2
    if not is_in_kernel(weitzenbock, total):
        raise RuntimeError(f"I_{n} failed the Weitzenbock kernel post-check")
    return total


def bivariate_moment(psi, l: int) -> Polynomial:
    """mu_l = phi_K(psi(x_l)) in Q[x, a], by substituting K_0..K_l into the
    linear form psi(x_l): the package reads the moments on the slice a = 2x
    instead (identities.moment)."""
    return phi_k(psi(l))


def binomial_shift(moments: list, s: Polynomial) -> list:
    """mu_l = sum_k C(l,k) s^(l-k) nu_k for l < len(moments), the moments of
    e^(s z) F(z) when nu_0, nu_1, ... are those of F(z)."""
    return [
        Polynomial.sum(s ** (l - k) * arith.binomial(l, k) * moments[k] for k in range(l + 1))
        for l in range(len(moments))
    ]


def determinant_bareiss(matrix) -> Polynomial:
    """Fraction-free Bareiss elimination: after step k every entry of the
    trailing block is a (k+2) x (k+2) minor, so the division by the previous
    pivot is exact and entries never grow into fractions of polynomials."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    sign = 1
    denom = Polynomial.one()
    for k in range(n - 1):
        if rows[k][k].is_zero:
            for i in range(k + 1, n):
                if not rows[i][k].is_zero:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero()
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * pivot - rows[i][k] * rows[k][j]
                rows[i][j] = exact_div(num, denom)
        denom = pivot
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


def conjecture3_expanded(n: int) -> tuple:
    """The images phi_K(psi_AK1(det H_n)) and phi_K(psi_AK2(det H_n)), with
    det H_n expanded over the generators x_0..x_2n first."""
    generators = [Polynomial.var(xvar(k)) for k in range(2 * n + 1)]
    det_h = determinant_bareiss(hankel(generators))
    return tuple(phi_k(apply_psi(kind, det_h)) for kind in ("ak1", "ak2"))


def power_apply(D, p: Polynomial, k: int) -> Polynomial:
    """D^k(p) by k applications of D; D^0 is the identity."""
    for _ in range(k):
        p = apply(D, p)
    return p


def dk1_power_coeff(k: int, m: int) -> Fraction:
    """S^(k)(m)/2^k, the coefficient of z^m in the k-th power of D_K1's
    coefficient series (1/2)ln((1+z)/(1-z)); the 0-th power is 1 at m = 0,
    and every coefficient with m < k is 0."""
    if k == 0:
        return Fraction(m == 0)
    return arith.s_upper(k, m) / 2**k if m >= k else Fraction(0)


def dk2_power_coeff(k: int, m: int) -> Fraction:
    """k!/m! s(m, k), the coefficient of z^m in the k-th power of D_K2's
    coefficient series ln(1+z)."""
    return Fraction(factorial(k) * arith.stirling_first(m, k), factorial(m))


def closed_power(n: int, k: int, coeff) -> Polynomial:
    """D^k(x_n) from its closed form sum_i coeff(k, n-i) x_i, with
    coeff = dk1_power_coeff for D_K1 and dk2_power_coeff for D_K2."""
    return Polynomial.sum(Polynomial.var(xvar(i)) * coeff(k, n - i) for i in range(n + 1))


def dk1_scale_by_iteration(k: int) -> Fraction:
    """The constant c with D_K1^k(x_k) = c * S^(k)(k) * x_0, read off the
    iterated derivation."""
    iterated = power_apply(kravchuk1, Polynomial.var(xvar(k)), k)
    return coeff(iterated, ((xvar(0), 1),)) / arith.s_upper(k, k)


def psi_coeff(psi, n: int, i: int) -> Fraction:
    """The coefficient of x_i in psi(x_n): T(n,i) for psi_ak1 and B(n,i)
    for psi_ak2, 0 for i > n."""
    return coeff(psi(n), ((xvar(i), 1),))


def phi_sigma(D, n: int) -> Polynomial:
    """phi_K(sigma(x_n)) for D from the Dixmier map itself; phi_K(x0) = K_0 =
    1, so sigma's x0 denominator drops out."""
    return phi_k(dixmier_sigma(D, n).numerator)


def sigma_from_kravchuk_slice(D, n: int) -> Polynomial:
    """x0^n sigma(x_n) for D = kravchuk1 or kravchuk2 from the Kravchuk
    generating function sum_i K_i(x, a) z^i = (1-z)^x (1+z)^(a-x).

    D(x_n) = sum_j [z^j] f(z) x_{n-j} with f = (1/2) ln((1+z)/(1-z)) for
    D_K1 and f = ln(1+z) for D_K2, so with lambda = -x1/x0
    sigma(x_n) = sum_i x_{n-i} [z^i] exp(lambda f(z)) = sum_i x_{n-i}
    K_i(slice)(lambda): exp(lambda f) is ((1+z)/(1-z))^(lambda/2), the slice
    (x, a) = (-lambda/2, 0), for D_K1 and (1+z)^lambda, the slice (0, lambda),
    for D_K2.  x0^i K_i(slice)(-x1/x0) is a form of degree i in x0, x1."""
    lam = Polynomial.var(A)  # lambda, before -x1/x0 is put in
    slice_ = {kravchuk1: {X: -lam / 2, A: 0}, kravchuk2: {X: 0, A: lam}}[D]
    x0, x1 = Polynomial.var(xvar(0)), Polynomial.var(xvar(1))
    total = Polynomial.zero()
    for i in range(n + 1):
        k_i = kravchuk(i).substitute(slice_)
        form = Polynomial.sum(
            c * (-x1) ** k * x0 ** (i - k)
            for k, c in ((dict(m).get(A, 0), c) for m, c in terms(k_i))
        )
        total = total + Polynomial.var(xvar(n - i)) * x0 ** (n - i) * form
    return total


def _k_double_sum(n: int, coeff) -> Polynomial:
    """sum_i K_i sum_k (-1)^k/k! coeff(k, n-i) K_1^k, the image under phi_K
    of sigma(x_n) = sum_k D^k(x_n) (-x1/x0)^k / k! with D^k(x_n) in closed
    form; zero coefficients are skipped."""
    k1 = kravchuk(1)
    total = Polynomial.zero()
    for i in range(n + 1):
        inner = Polynomial.zero()
        for k in range(n - i + 1):
            c = Fraction((-1) ** k, factorial(k)) * coeff(k, n - i)
            if c:
                inner = inner + k1**k * c
        if not inner.is_zero:
            total = total + kravchuk(i) * inner
    return total


def conjecture1_double_sum(n: int) -> Polynomial:
    """phi_K(sigma(x_n)) for D_K1 from the closed power form:
    sum_i K_i sum_k (-1)^k/k! K_1^k S^(k)(n-i)/2^k.

    The printed S^(k) is off by the 2^-k normalization; with it the odd-n
    cases vanish exactly."""
    return _k_double_sum(n, dk1_power_coeff)


def conjecture2_double_sum(n: int) -> Polynomial:
    """phi_K(sigma(x_n)) for D_K2 from the closed power form:
    sum_i K_i sum_k (-1)^k/(n-i)! K_1^k s(n-i,k)."""
    return _k_double_sum(n, dk2_power_coeff)


def apply_by_products(D, p: Polynomial) -> Polynomial:
    """D(p) as the sum of the Polynomial products dp/dx_v * D(x_v), one
    derivative and one product per generator v of p."""
    return Polynomial.sum(p.diff(v) * D(v) for v in generators(p))


def apply_leibniz(D, p: Polynomial) -> Polynomial:
    """D(p) by the Leibniz rule, one monomial and one variable at a time:
    c x^m goes to sum_v c e_v x^(m - e_v) D(x_v)."""
    total = Polynomial.zero()
    for mono, c in terms(p):
        for v, e in mono:
            image = D(v)
            if image.is_zero:
                continue
            # c * e * v^(e-1) * (other factors) * D(v)
            rest = dict(mono)
            if e == 1:
                del rest[v]
            else:
                rest[v] = e - 1
            cof = from_terms({tuple(sorted(rest.items())): c * e})
            total = total + cof * image
    return total


def t_coeff_stirling(n: int, i: int) -> int:
    """T(n,i) = sum_{j=i}^n (-1)^(j-i) 2^(n-j) j! S(n,j) C(j-1, i-1)."""
    return sum(
        (-1) ** (j - i)
        * 2 ** (n - j)
        * factorial(j)
        * arith.stirling_second(n, j)
        * arith.binomial(j - 1, i - 1)
        for j in range(i, n + 1)
    )


def b_coeff_stirling(n: int, k: int) -> int:
    """B(n,k) = k! S(n,k)."""
    return factorial(k) * arith.stirling_second(n, k)


def t_genfun_oracle(i: int, N: int) -> list:
    """n! * [z^n] ((e^(2z)-1)/(e^(2z)+1))^i for n = i..N.

    Independent generating-function route to T(n,i)."""
    if not 1 <= i <= N:
        raise ValueError("need 1 <= i <= N")
    e2z = series.exp_series(2, N)
    f = (e2z - 1) / (e2z + 1)
    fi = f**i
    return [fi[n] * factorial(n) for n in range(i, N + 1)]


def b_genfun_oracle(k: int, N: int) -> list:
    """n! * [z^n] (e^z - 1)^k for n = k..N; matches B(n,k)."""
    if not 1 <= k <= N:
        raise ValueError("need 1 <= k <= N")
    f = series.exp_series(1, N) - 1
    fk = f**k
    return [fk[n] * factorial(n) for n in range(k, N + 1)]


# The argparse command line that cli.parse_args replaced: every argv must
# parse to the same fields through both, or fail through both.
def _make_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kravchuk",
        description="Exact identities and derivations for Kravchuk polynomials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print K_n(x,a)")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")

    p = sub.add_parser("derive", help="derivative expansion of K_n")
    p.add_argument("--op", choices=["dx", "da"], required=True)
    p.add_argument("n", type=int)

    p = sub.add_parser("derivation", help="apply a derivation to an expression")
    p.add_argument("action", choices=["apply"])
    p.add_argument("--kind", choices=["w", "k1", "k2"], required=True)
    p.add_argument("expr")

    p = sub.add_parser("kernel", help="kernel membership check")
    p.add_argument("action", choices=["check"])
    p.add_argument("--derivation", choices=["w", "k1", "k2"], required=True)
    p.add_argument("expr")

    p = sub.add_parser("cayley", help="Cayley kernel element C_n")
    p.add_argument("--derivation", choices=["k1", "k2"], required=True)
    p.add_argument("n", type=int)

    p = sub.add_parser("sigma", help="Dixmier image sigma(x_n)")
    p.add_argument("--derivation", choices=["k1", "k2"], required=True)
    p.add_argument("n", type=int)

    p = sub.add_parser("intertwine", help="apply psi_AK1 / psi_AK2")
    p.add_argument("action", choices=["apply"])
    p.add_argument("--map", dest="psi_map", choices=["ak1", "ak2"], required=True)
    p.add_argument("expr")

    p = sub.add_parser("identity", help="phi_K image and classification")
    p.add_argument("action", choices=["verify"])
    p.add_argument("expr")
    p.add_argument("--expect", default=None, help="expected image in x, a")

    p = sub.add_parser("conjecture", help="sweep a conjecture verifier")
    p.add_argument("which", type=int, choices=[1, 2, 3])
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p.add_argument("--out", default=None)

    sub.add_parser("discriminant-demo", help="the 108 a^3 discriminant chain")
    return ap
