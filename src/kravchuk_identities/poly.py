"""Sparse multivariate polynomials over Q in the variables x0..xN, x, a.

Variables are integer codes: the generator x_i is the code i, and the two
Kravchuk arguments come after every generator in the variable order
x0 < x1 < ... < x < a.  Monomials are sorted tuples of (code, exponent)
pairs with all exponents >= 1; the empty tuple is the unit monomial.
Polynomials are immutable wrappers around {monomial: Fraction} with no
zero coefficients stored, so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

# Codes for the Kravchuk arguments; any generator index stays far below.
X = 10**9
A = 10**9 + 1

Monomial = tuple  # tuple[(var_code, exponent), ...]


def xvar(i: int) -> int:
    """Variable code for the generator x_i."""
    if i < 0:
        raise ValueError(f"generator index must be >= 0, got {i}")
    return i


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
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict):
        self._terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): Fraction(1)})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, code: int) -> "Polynomial":
        return cls({((code, 1),): Fraction(1)})

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
        return self._terms.get((), Fraction(0))

    def terms(self):
        return self._terms.items()

    def coeff(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        result = dict(self._terms)
        for m, c in other._terms.items():
            s = result.get(m, 0) + c
            if s:
                result[m] = s
            else:
                result.pop(m, None)
        return Polynomial(result)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self._terms.items()})

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
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._terms, other._terms
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
        return Polynomial(result)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            d = Fraction(other)
            return Polynomial({m: c / d for m, c in self._terms.items()})
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
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
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
        return Polynomial(result)

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
        powers: dict = {}
        total = Polynomial.zero()
        for m, c in self._terms.items():
            term = None
            for key in m:
                if key not in powers:
                    v, e = key
                    powers[key] = images[v] ** e if e > 1 else images[v]
                term = powers[key] if term is None else term * powers[key]
            total = total + (Polynomial.constant(c) if term is None else term * c)
        return total

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

    def key(item):
        m, _ = item
        vec = [0] * len(varlist)
        for v, e in m:
            vec[index[v]] = e
        return (-mono_deg(m), tuple(vec))

    return sorted(p.terms(), key=key)


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


def _leading(p: Polynomial, varlist, index):
    best = None
    best_key = None
    for m, c in p.terms():
        vec = [0] * len(varlist)
        for v, e in m:
            vec[index[v]] = e
        key = (mono_deg(m), tuple(vec))
        if best_key is None or key > best_key:
            best_key, best = key, (m, c)
    return best


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact polynomial quotient p / q; raises if q does not divide p."""
    if q.is_zero:
        raise ZeroDivisionError("exact_div by zero polynomial")
    if q.is_constant:
        return p / q.constant_value()
    varlist = sorted(p.variables() | q.variables())
    index = {v: i for i, v in enumerate(varlist)}
    lt_q_mono, lt_q_coeff = _leading(q, varlist, index)
    quotient = Polynomial.zero()
    remainder = p
    while not remainder.is_zero:
        lt_r_mono, lt_r_coeff = _leading(remainder, varlist, index)
        if not mono_divides(lt_q_mono, lt_r_mono):
            raise ValueError("exact_div: division is not exact")
        t = Polynomial({mono_div(lt_r_mono, lt_q_mono): lt_r_coeff / lt_q_coeff})
        quotient = quotient + t
        remainder = remainder - t * q
    return quotient


def determinant(matrix) -> Polynomial:
    """Exact determinant of a square matrix of polynomials.

    Laplace expansion down the columns.  The minor on a given set of
    remaining rows is computed once, so an n x n matrix takes at most
    n 2^(n-1) entry products instead of n!.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant: matrix must be square and non-empty")
    rows = [[_coerce(e) for e in row] for row in matrix]
    minors = {(): Polynomial.one()}

    def minor(remaining: tuple) -> Polynomial:
        """Determinant of the remaining rows on the last len(remaining) columns."""
        if remaining not in minors:
            col = n - len(remaining)
            total = Polynomial.zero()
            for pos, i in enumerate(remaining):
                entry = rows[i][col]
                if entry.is_zero:
                    continue
                cof = entry * minor(remaining[:pos] + remaining[pos + 1 :])
                total = total + cof if pos % 2 == 0 else total - cof
            minors[remaining] = total
        return minors[remaining]

    return minor(tuple(range(n)))
