"""Sparse multivariate polynomials over Q in the generators x0, x1, ... and
the Kravchuk arguments x, a.

Variables are integer codes: the generator x_i is the code i, and the two
Kravchuk arguments come after every generator in the variable order
x0 < x1 < ... < x < a.  Monomials are sorted tuples of (code, exponent)
pairs with all exponents >= 1; the empty tuple is the unit monomial.
A polynomial is stored as {monomial: nonzero int numerator} over one
positive int denominator, with gcd(denominator, *numerators) == 1 and
denominator 1 for zero.  The form is canonical, so equality and hashing are
structural, and products and sums run on ints.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm
from operator import mul

# Codes for the Kravchuk arguments; every generator index lies below X.
X = 10**9
A = 10**9 + 1

Monomial = tuple  # tuple[(var_code, exponent), ...]


def xvar(i: int) -> int:
    """Variable code for the generator x_i, 0 <= i < X."""
    if not 0 <= i < X:
        raise ValueError(f"generator index must be in 0..{X - 1}, got {i}")
    return i


def generators(p: Polynomial) -> set:
    """The codes of the generators in p.  The derivations, psi and phi_K
    are each fixed by their images of x0, x1, ...; x and a have none, so
    either one in p is an error."""
    vs = p.variables()
    if X in vs or A in vs:
        raise ValueError(
            "expected a polynomial in the generators x0, x1, ... alone, not in x or a"
        )
    return vs


def var_name(code: int) -> str:
    if code == X:
        return "x"
    if code == A:
        return "a"
    return f"x{code}"


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_deg(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """Does m1 divide m2?"""
    d2 = dict(m2)
    return all(d2.get(v, 0) >= e for v, e in m1)


def mono_div(m2: Monomial, m1: Monomial) -> Monomial:
    """m2 / m1, assuming divisibility."""
    exps = dict(m2)
    for v, e in m1:
        exps[v] -= e
    return tuple((v, e) for v, e in sorted(exps.items()) if e)


class Polynomial:
    __slots__ = ("_terms", "_den", "_hash")

    def __init__(self, terms: dict):
        """From {monomial: int | Fraction}, over the lcm of the denominators."""
        den = lcm(*(c.denominator for c in terms.values()))
        self._terms = {
            m: c.numerator * (den // c.denominator) for m, c in terms.items() if c
        }
        self._den = den if self._terms else 1
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, terms: dict, den: int = 1) -> "Polynomial":
        """From nonzero int numerators over den > 0, divided by their gcd."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        p = cls.__new__(cls)
        p._terms, p._den, p._hash = terms, den, None
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._make({(): 1})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, code: int) -> "Polynomial":
        return cls._make({((code, 1),): 1})

    @staticmethod
    def sum(parts) -> "Polynomial":
        """The sum of polynomials and int/Fraction constants, accumulated
        into one dict of numerators over the lcm of the denominators seen so
        far; parts is consumed as a stream."""
        result: dict = {}
        den = 1
        for part in parts:
            part = _coerce(part)
            terms, d = part._terms, part._den
            if den % d:
                scale = lcm(den, d) // den
                for m in result:
                    result[m] *= scale
                den *= scale
            if den != d:
                terms = {m: c * (den // d) for m, c in terms.items()}
            if not result:
                result.update(terms)
                continue
            for m, c in terms.items():
                result[m] = result.get(m, 0) + c
        return Polynomial._make({m: c for m, c in result.items() if c}, den)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not a constant")
        return Fraction(self._terms.get((), 0), self._den)

    def terms(self):
        """(monomial, Fraction coefficient) pairs in insertion order."""
        return ((m, Fraction(c, self._den)) for m, c in self._terms.items())

    def coeff(self, mono: Monomial) -> Fraction:
        return Fraction(self._terms.get(mono, 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(mono_deg(m) for m in self._terms)

    def variables(self) -> set:
        vs = set()
        for m in self._terms:
            for v, _ in m:
                vs.add(v)
        return vs

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        return Polynomial.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero()
            num = other.numerator
            terms = {m: c * num for m, c in self._terms.items()}
            return Polynomial._make(terms, self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        result: dict = {}
        get = result.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                s = get(m, 0) + c1 * c2
                if s:
                    result[m] = s
                else:
                    del result[m]
        return Polynomial._make(result, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            inverse = 1 / Fraction(other)
            terms = {m: c * inverse.numerator for m, c in self._terms.items()}
            return Polynomial._make(terms, self._den * inverse.denominator)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self._terms.items()), self._den))
        return self._hash

    # -- calculus & substitution --------------------------------------

    def diff(self, code: int) -> "Polynomial":
        result: dict = {}
        for m, c in self._terms.items():
            d = dict(m)
            e = d.get(code, 0)
            if not e:
                continue
            if e == 1:
                del d[code]
            else:
                d[code] = e - 1
            result[tuple(sorted(d.items()))] = c * e
        return Polynomial._make(result, self._den)

    def substitute(self, bindings: dict) -> "Polynomial":
        """Ring-homomorphism image under var code -> Polynomial bindings.

        Every variable occurring in self must be bound; variables appearing
        only in the images pass through untouched.
        """
        images = {v: _coerce(p) for v, p in bindings.items()}
        missing = self.variables() - set(images)
        if missing:
            names = ", ".join(var_name(v) for v in sorted(missing))
            raise KeyError(f"no substitution binding for variable(s): {names}")
        keys = {key for m in self._terms for key in m}
        powers = {(v, e): images[v] ** e if e > 1 else images[v] for v, e in keys}
        total = Polynomial.sum(
            reduce(mul, (powers[key] for key in m), c) for m, c in self._terms.items()
        )
        return Polynomial._make(total._terms, total._den * self._den)

    def __repr__(self):
        return f"Polynomial({render_text(self)})"

    def __str__(self):
        return render_text(self)


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


# -- canonical ordering and rendering ---------------------------------


def _sorted_terms(p: Polynomial):
    """Terms in canonical order: degree descending, then ascending
    lexicographic comparison of the exponent vector over the polynomial's
    variables in the order x0 < x1 < ... < x < a."""
    varlist = sorted(p.variables())
    index = {v: i for i, v in enumerate(varlist)}

    def key(m):
        vec = [0] * len(varlist)
        for v, e in m:
            vec[index[v]] = e
        return (-mono_deg(m), tuple(vec))

    terms, den = p._terms, p._den
    return ((m, Fraction(terms[m], den)) for m in sorted(terms, key=key))


def _coeff_text(c: Fraction) -> str:
    return str(c)


def render_text(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i, (m, c) in enumerate(_sorted_terms(p)):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = [f"{var_name(v)}^{e}" if e > 1 else var_name(v) for v, e in m]
        if not factors or mag != 1:
            factors.insert(0, _coeff_text(mag))
        body = "*".join(factors)
        if i == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def _latex_var(code: int) -> str:
    if code == X:
        return "x"
    if code == A:
        return "a"
    return f"x_{{{code}}}"


def render_latex(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i, (m, c) in enumerate(_sorted_terms(p)):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        mono = "".join(
            f"{_latex_var(v)}^{{{e}}}" if e > 1 else _latex_var(v) for v, e in m
        )
        if mag == 1 and mono:
            body = mono
        else:
            if mag.denominator == 1:
                coeff = str(mag.numerator)
            else:
                coeff = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
            body = coeff + ("\\," + mono if mono else "")
        if i == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def to_json_terms(p: Polynomial) -> list:
    """Stable JSON term list: [{"coeff": "p/q", "monomial": {...}}]."""
    return [
        {"coeff": str(c), "monomial": {var_name(v): e for v, e in m}}
        for m, c in _sorted_terms(p)
    ]


# -- binomial polynomials ----------------------------------------------


def binom_poly(arg, i: int) -> Polynomial:
    """The polynomial binomial coefficient C(arg, i) = arg(arg-1)...(arg-i+1)/i!.

    arg may be a variable code or a Polynomial.
    """
    if i < 0:
        raise ValueError(f"binom_poly: i must be >= 0, got {i}")
    base = Polynomial.var(arg) if isinstance(arg, int) else arg
    result = Polynomial.one()
    for j in range(i):
        result = result * (base - j)
    return result / factorial(i)


# -- exact division and determinants -----------------------------------


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact polynomial quotient p / q; raises if q does not divide p.

    Sparse division as in Monagan and Pearce (J. Symbolic Comput. 46, 2011):
    the remainder is one dict updated in place, and its leading monomial
    comes off a priority queue of graded-lex keys (a list kept sorted with
    bisect); monomials that cancelled after they were queued are skipped.
    p's numerators are divided by the primitive part of q's, so by Gauss's
    lemma every quotient coefficient is an integer when the division is exact.
    """
    if q.is_zero:
        raise ZeroDivisionError("exact_div by zero polynomial")
    if q.is_constant:
        return p / q.constant_value()
    index = {v: i for i, v in enumerate(sorted(p.variables() | q.variables()))}

    def key(m):
        vec = [0] * len(index)
        for v, e in m:
            vec[index[v]] = e
        return (mono_deg(m), vec)

    content = gcd(*q._terms.values())
    divisor = {m: c // content for m, c in q._terms.items()}
    lead = max(divisor, key=key)
    lead_c = divisor.pop(lead)
    remainder = dict(p._terms)
    queue = sorted((key(m), m) for m in remainder)
    quotient = {}
    while queue:
        m = queue.pop()[1]
        c = remainder.pop(m, 0)
        if not c:
            continue
        t, r = divmod(c, lead_c)
        if r or not mono_divides(lead, m):
            raise ValueError("exact_div: division is not exact")
        tm = mono_div(m, lead)
        quotient[tm] = t
        for m2, c2 in divisor.items():
            m3 = mono_mul(tm, m2)
            s = remainder.get(m3, 0) - t * c2
            if not s:
                del remainder[m3]
                continue
            if m3 not in remainder:
                insort(queue, (key(m3), m3))
            remainder[m3] = s
    return Polynomial._make(
        {m: c * q._den for m, c in quotient.items()}, content * p._den
    )


def determinant(matrix) -> Polynomial:
    """Exact determinant of a square matrix of polynomials.

    Fraction-free Bareiss elimination: after step k every entry of the
    trailing block is a (k+2) x (k+2) minor, so the division by the
    previous pivot is exact and entries never grow into fractions of
    polynomials.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant: matrix must be square and non-empty")
    rows = [[_coerce(e) for e in row] for row in matrix]
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
