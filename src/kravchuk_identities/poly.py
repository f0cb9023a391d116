"""Sparse multivariate polynomials over Q in the generators x0, x1, ... and
the Kravchuk arguments x, a.

Variables are integer codes: the generator x_i is the code i, and the two
Kravchuk arguments come after every generator in the variable order
x0 < x1 < ... < x < a.  content() takes its anchor as a tuple monomial:
sorted (code, exponent) pairs with all exponents >= 1, the empty tuple for
the unit monomial.

Inside, a monomial is one packed int: every variable owns a FIELD_BITS-bit
field, and the exponent of the variable in slot s sits at bit
s * FIELD_BITS.  Slots are handed out on first use, so the width of a key
follows how many distinct variables the process has used, not the value of
an index.  They are handed out against code order where the code can: a
takes slot 0 and x slot 1 at import, and the parser and Polynomial.linear
register the new generators of an input highest index first.  Rendering
relies on this only through a check made once per polynomial (see
_sorted_terms): when its variables' slots descend as their codes ascend,
its keys compare as its exponent vectors do, and a key walked top-down,
highest field first, gives its variables in code order.  The top bit of
each field is a guard bit that every stored exponent leaves clear, so the
product of two monomials is the sum of their keys, with no carry between
fields, and an exponent that reaches EXPONENT_LIMIT raises
ExponentOverflow.

A polynomial is stored as {packed monomial: nonzero int numerator} over one
positive int denominator, with gcd(denominator, *numerators) == 1 and
denominator 1 for zero.  The form is canonical, so equality and hashing are
structural, and products and sums run on ints.  A rational scalar is a value
with an int numerator and a positive int denominator, as an int and a
Fraction both have, so no operation needs the Fraction type itself.

Other modules rely on this layout through one contract alone: var_key(code)
is the key of a variable; keys add, so e * var_key(v) + e2 * var_key(v2) is
the key of v^e v2^e2; a key that has a bit of GUARD set holds an exponent
of EXPONENT_LIMIT or more; and Polynomial.sum takes a single term as a
(key, numerator, denominator) triple.
"""

import sys
from bisect import insort
from functools import reduce
from math import factorial, gcd, lcm, prod
from operator import itemgetter, or_

# Codes for the Kravchuk arguments; every generator index lies below X.
X = 10**9
A = 10**9 + 1

Monomial = tuple  # tuple[(var_code, exponent), ...]

FIELD_BITS = 16
# Every exponent stays below this; the field's top bit is its guard bit.
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD_MASK = (1 << FIELD_BITS) - 1


class ExponentOverflow(ValueError):
    """An exponent reached EXPONENT_LIMIT."""

    def __init__(self):
        super().__init__(
            f"exponent limit exceeded: every exponent must be below {EXPONENT_LIMIT}"
        )


# Every printed coefficient, in lowest terms, has a numerator and a
# denominator of at most this many decimal digits, the default limit of
# Python's int-to-str conversion.  An int of at most _DIGIT_BITS bits is
# below 2^14284 < 10^4300, so only a longer one is compared with
# 10^DIGIT_LIMIT.
DIGIT_LIMIT = 4300
_DIGIT_BITS = 14284


class DigitOverflow(ValueError):
    """A coefficient to print has more than DIGIT_LIMIT digits."""

    def __init__(self):
        super().__init__(
            f"coefficient too large to print: every numerator and denominator"
            f" must have at most {DIGIT_LIMIT} digits"
        )


# The slot registry, shared by the process and only ever appended to, so a
# packed key stays valid for the life of the process.
_CODES: list = []  # slot -> variable code
_SLOTS: dict = {}  # variable code -> slot
# slot -> name of the variable, in text and in LaTeX, filled up to the
# last slot when a render needs it
_NAMES: list = []
_LATEX_NAMES: list = []
# The guard bit of every registered field: the live mask, which gains a bit
# with each new slot, so read it as poly.GUARD after the keys it tests were
# made, not through a name bound at import.
GUARD = 0


def _slot(code: int) -> int:
    """The field slot of a variable code, registered on first use."""
    global GUARD
    slot = _SLOTS.get(code)
    if slot is None:
        slot = _SLOTS[code] = len(_CODES)
        _CODES.append(code)
        GUARD |= 1 << (slot * FIELD_BITS + FIELD_BITS - 1)
    return slot


def var_key(code: int) -> int:
    """The packed key of the variable code to the first power."""
    return 1 << (_slot(code) * FIELD_BITS)


def xvar(i: int) -> int:
    """Variable code for the generator x_i, 0 <= i < X."""
    if not 0 <= i < X:
        raise ValueError(f"generator index must be in 0..{X - 1}, got {i}")
    return i


def generators(p: "Polynomial") -> set:
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


def _pack(mono: Monomial) -> int:
    """The packed key of a tuple monomial."""
    m = 0
    for v, e in mono:
        if e < 1:
            raise ValueError(f"monomial exponents must be >= 1, got {e}")
        if e >= EXPONENT_LIMIT:
            raise ExponentOverflow()
        m += e << (_slot(v) * FIELD_BITS)
    if m & GUARD:  # a variable repeated in mono
        raise ExponentOverflow()
    return m


def _unpack(m: int) -> Monomial:
    """The tuple monomial of a packed key.  Each step jumps to the lowest
    nonzero field, so the cost follows the number of variables in m, not the
    number of slots."""
    pairs = []
    slot = 0
    while m:
        skip = ((m & -m).bit_length() - 1) // FIELD_BITS
        m >>= skip * FIELD_BITS
        slot += skip
        pairs.append((_CODES[slot], m & _FIELD_MASK))
        m >>= FIELD_BITS
        slot += 1
    pairs.sort()
    return tuple(pairs)


def _degree(m: int) -> int:
    return sum(e for _, e in _unpack(m))


def _rational(value):
    """(numerator, denominator) of a rational scalar, or None for any other
    value (a float, a str, a Polynomial)."""
    num = getattr(value, "numerator", None)
    den = getattr(value, "denominator", None)
    if num.__class__ is int and den.__class__ is int and den > 0:
        return num, den
    return None


# a and x take the first two slots, so a polynomial in x and a alone has
# keys below 2^32, and its slots descend as its codes ascend.
_slot(A)
_slot(X)


class Polynomial:
    __slots__ = ("_terms", "_den")

    # -- constructors -------------------------------------------------

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Polynomial with zero, one, constant, var or linear")

    @classmethod
    def _make(cls, terms: dict, den: int = 1) -> "Polynomial":
        """From nonzero int numerators over den > 0, divided by their gcd."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        p = cls.__new__(cls)
        p._terms, p._den = terms, den
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._make({0: 1})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        """The constant polynomial of a rational scalar c; TypeError for any
        other value."""
        r = _rational(c)
        if r is None:
            raise TypeError(f"not a rational scalar: {c!r}")
        num, den = r
        return cls._make({0: num} if num else {}, den)

    @classmethod
    def var(cls, code: int) -> "Polynomial":
        return cls._make({var_key(code): 1})

    @classmethod
    def linear(cls, coeffs: dict, den: int = 1) -> "Polynomial":
        """The linear form sum_i coeffs[i] x_i / den, from {generator index:
        int numerator} over den > 0; zero coefficients are skipped.  New
        generators are registered highest index first."""
        for i in sorted(coeffs, reverse=True):
            if coeffs[i]:
                _slot(xvar(i))
        # Built in the callers' ascending order, whose first coefficients
        # shrink the gcd in _make at once: built highest index first,
        # D_K2(x10000) took 0.6 s longer.
        return cls._make({var_key(i): c for i, c in coeffs.items() if c}, den)

    @classmethod
    def from_xa_rows(cls, rows, den: int) -> "Polynomial":
        """sum_{i,j} rows[i][j] x^i a^j / den, from rows of int numerators
        over den > 0; every row, and the number of rows, stays within
        EXPONENT_LIMIT."""
        sx, sa = _slot(X) * FIELD_BITS, _slot(A) * FIELD_BITS
        return cls._make({(i << sx) + (j << sa): c for i, row in enumerate(rows)
                          for j, c in enumerate(row) if c}, den)

    @staticmethod
    def sum(parts) -> "Polynomial":
        """The sum of polynomials, rational scalars and single terms
        given as (packed key, int numerator, positive int denominator)
        triples, accumulated into one dict of numerators over the lcm of the
        denominators seen so far; parts is consumed as a stream."""
        result: dict = {}
        den = 1
        for part in parts:
            if part.__class__ is tuple:
                key, c, d = part
                if not c:
                    continue
                terms = None
            else:
                part = _as_polynomial(part)
                terms, d = part._terms, part._den
            if den % d:
                scale = lcm(den, d) // den
                for m in result:
                    result[m] *= scale
                den *= scale
            if terms is None:
                result[key] = result.get(key, 0) + (c if den == d else c * (den // d))
                continue
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

    def variables(self) -> set:
        """The codes of the variables in self: the fields set in the OR of
        all keys."""
        return {v for v, _ in _unpack(reduce(or_, self._terms, 0))}

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def _plus(self, other, sign: int):
        """self + sign * other for sign +-1, in one dict over the lcm of the
        denominators, a cancelled key deleted in place, so the terms keep
        Polynomial.sum's order; NotImplemented unless other is rational."""
        if isinstance(other, Polynomial):
            terms, d = other._terms, other._den
        else:
            r = _rational(other)
            if r is None:
                return NotImplemented
            num, d = r
            terms = {0: num} if num else {}
        den = lcm(self._den, d)
        scale = den // self._den
        result = {m: c * scale for m, c in self._terms.items()} if scale > 1 else dict(self._terms)
        sign *= den // d
        get = result.get
        for m, c in terms.items():
            s = get(m, 0) + c * sign
            if s:
                result[m] = s
            else:
                del result[m]
        return Polynomial._make(result, den)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            r = _rational(other)
            if r is None:
                return NotImplemented
            return self._scale(*r)
        result = _mul_into({}, self._terms, other._terms)
        return Polynomial._make(result, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = _rational(other)
        if r is None:
            return NotImplemented
        num, den = r
        if not num:
            raise ZeroDivisionError("polynomial division by zero")
        return self._scale(-den, -num) if num < 0 else self._scale(den, num)

    def _scale(self, num: int, den: int) -> "Polynomial":
        """self * num / den, for den > 0."""
        if not num:
            return Polynomial.zero()
        terms = {m: c * num for m, c in self._terms.items()}
        return Polynomial._make(terms, self._den * den)

    def __pow__(self, n: int):
        """Square and multiply, starting from the lowest set bit of n: no
        product with one(), and p**1 is p."""
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n:
            return Polynomial.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                result = result * base
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        """A constant hashes as the rational it equals, so that a constant
        and that int or Fraction are one set member or dict key.  Python
        hashes num/den in lowest terms as |num| times the inverse of den
        modulo the hash modulus, signed, and as inf when the modulus
        divides den."""
        terms, den = self._terms, self._den
        if len(terms) > 1 or terms and 0 not in terms:
            return hash((frozenset(terms.items()), den))
        num = terms.get(0, 0)
        try:
            h = hash(hash(abs(num)) * pow(den, -1, sys.hash_info.modulus))
        except ValueError:
            h = sys.hash_info.inf
        h = h if num >= 0 else -h
        return -2 if h == -1 else h

    # -- calculus & substitution --------------------------------------

    def diff(self, code: int) -> "Polynomial":
        """d(self)/d(code): the derivation that maps code to 1."""
        return self.derive({code: Polynomial.one()})

    def substitute(self, bindings: dict) -> "Polynomial":
        """Ring-homomorphism image under var code -> Polynomial bindings.

        Every variable occurring in self must be bound; variables appearing
        only in the images pass through untouched.
        Over a denominator fixed first, each term's numerator is multiplied
        through its powers of the images as numerator dicts, the last product
        added straight into one dict: no Polynomial per term.
        """
        images = {v: _as_polynomial(p) for v, p in bindings.items()}
        terms = [(_unpack(m), c) for m, c in self._terms.items()]
        keys = {key for m, _ in terms for key in m}
        missing = {v for v, _ in keys} - images.keys()
        if missing:
            names = ", ".join(var_name(v) for v in sorted(missing))
            raise KeyError(f"no substitution binding for variable(s): {names}")
        powers = {(v, e): images[v] ** e if e > 1 else images[v] for v, e in keys}
        rows = [([powers[key] for key in m], c) for m, c in terms]
        dens = [prod(q._den for q in factors) for factors, _ in rows]
        den = lcm(*dens)
        total: dict = {}
        for (factors, c), d in zip(rows, dens):
            product = {0: c * (den // d)}
            last = factors.pop()._terms if factors else {0: 1}
            for q in factors:
                product = _mul_into({}, product, q._terms)
            _mul_into(total, product, last)
        return Polynomial._make(total, den * self._den)

    def derive(self, images: dict) -> "Polynomial":
        """The derivation image sum_v d(self)/dv * images[v], from var code ->
        Polynomial images; a variable with no image is a constant of the
        derivation, and the image of one that self does not use adds nothing.

        Every image is scaled once to the lcm of their denominators, on its
        own keys, and filed under the bit offset of v's field.  One pass then
        walks each term c x^m of self top-down, field by field, and for each
        exponent e of a v with an image adds c e c2 at (m - e_v) + m2, for
        each image term c2 x^m2, straight into one dict: one pass over self
        whatever the number of images, and no Polynomial per derivative or
        per product.  A field of an OR bounds that exponent in every key, so
        only a set guard bit in the sum of the OR of self's keys and the OR
        of the images' keys sends the product keys through the check; the
        first with a guard bit raises ExponentOverflow."""
        images = [(v, q) for v, q in images.items() if q._terms and v in _SLOTS]
        den = lcm(*(q._den for _, q in images))
        offsets = {}  # bit offset of v's field -> items of v's scaled image
        bound = 0  # the OR of every image key
        for v, q in images:
            scale = den // q._den
            image = q._terms if scale == 1 else {m2: c2 * scale for m2, c2 in q._terms.items()}
            offsets[_SLOTS[v] * FIELD_BITS] = image.items()
            bound = reduce(or_, q._terms, bound)
        guard = GUARD
        check = (reduce(or_, self._terms, 0) + bound) & guard
        total: dict = {}
        get = total.get
        for m, c in self._terms.items():
            rest = m
            while rest:
                low = rest.bit_length() - 1
                low -= low % FIELD_BITS
                e = rest >> low
                rest -= e << low
                image = offsets.get(low)
                if image is None:
                    continue
                base, ce = m - (1 << low), c * e
                for m2, c2 in image:
                    key = base + m2
                    if check and key & guard:
                        raise ExponentOverflow()
                    s = get(key, 0) + ce * c2
                    if s:
                        total[key] = s
                    else:
                        del total[key]
        return Polynomial._make(total, den * self._den)

    def __repr__(self):
        return f"Polynomial({render_text(self)})"

    def __str__(self):
        return render_text(self)


def _mul_into(total: dict, a: dict, b: dict) -> dict:
    """total, with the product of the numerator dicts a and b added into it
    in place.  A field of an OR bounds that exponent in every key, so only a
    set guard bit in the sum of a's and b's ORs sends the product keys
    through the check, made before total changes, so that no other term can
    cancel an overflow.  The exponents of a and b stay below EXPONENT_LIMIT,
    so no field carries into the next: a chain checks every product."""
    if len(a) > len(b):
        a, b = b, a
    guard = GUARD
    if (reduce(or_, a, 0) + reduce(or_, b, 0)) & guard and any(
        (m1 + m2) & guard for m1 in a for m2 in b
    ):
        raise ExponentOverflow()
    get = total.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                total[m] = s
            else:
                del total[m]
    return total


def _as_polynomial(value) -> Polynomial:
    """value as a Polynomial: itself, or the constant of a rational scalar;
    TypeError for any other value."""
    return value if isinstance(value, Polynomial) else Polynomial.constant(value)


def _coerce(value) -> Polynomial:
    """value as a Polynomial for a binary operator: itself, or the constant
    of a rational scalar; NotImplemented for any other value, so that Python
    tries the other operand."""
    if isinstance(value, Polynomial):
        return value
    if _rational(value) is None:
        return NotImplemented
    return Polynomial.constant(value)


# -- canonical ordering and rendering ---------------------------------


def _too_long(n: int) -> bool:
    return n.bit_length() > _DIGIT_BITS and abs(n) >= 10**DIGIT_LIMIT


def _latex_name(code: int) -> str:
    return f"x_{{{code}}}" if code < X else var_name(code)


def _sorted_terms(p: Polynomial, fmt: tuple) -> list:
    """(order, monomial, numerator, denominator) rows of p in canonical
    order: degree descending, then ascending lexicographic comparison of the
    exponent vector over p's variables in the order x0 < x1 < ... < x < a.
    The first item is what the rows were sorted by.  With fmt = (names,
    name, open_, close), a monomial is its list of fragments in code order:
    names[slot] for an exponent of 1 and names[slot] + open_ + str(e) +
    close for an exponent e > 1, where names caches name(code) by slot; with
    an empty open_, name(code) is a (name, 1) pair and the fragment of e > 1
    is (name, e).  Each coefficient is in lowest terms, the sign on its
    numerator, as it is printed; one with a numerator or denominator past
    DIGIT_LIMIT digits raises DigitOverflow before any text is built.

    One decode of the OR of p's keys checks whether p's slots descend as
    its codes ascend, so that its keys compare as its exponent vectors do.
    If they do, the terms are taken in key order, and each key is walked
    once, top-down, highest field first, which yields its fragments in code
    order and its degree; a stable sort by degree, descending, then gives
    the canonical order.  The fragment of an exponent above 1 is built once
    per call, kept in a table keyed by its isolated field e << low.  Any
    other p sorts by a second key built in a decode lowest field first: the
    exponents re-packed with p's variables in code order, the first most
    significant, below the negated degree."""
    names, name, open_, close = fmt
    if len(names) < len(_CODES):
        names.extend(map(name, _CODES[len(names):]))
    terms, den = p._terms, p._den
    # Only then can a coefficient in lowest terms be too long.
    check = terms and (_too_long(den) or _too_long(max(max(terms.values()), -min(terms.values()))))
    m = reduce(or_, terms, 0)
    fields = []  # (code, slot) of p's variables, lowest slot first
    ordered = True
    slot = 0
    code = A + 1  # above every code
    while m:
        skip = ((m & -m).bit_length() - 1) // FIELD_BITS
        m >>= skip * FIELD_BITS
        slot += skip
        ordered = ordered and _CODES[slot] < code
        code = _CODES[slot]
        fields.append((code, slot))
        m >>= FIELD_BITS
        slot += 1
    rows = []
    if ordered:
        powers = {}  # isolated field e << low, e > 1 -> its fragment
        # Sorted as items: looking a key up again would hash all of it.
        for m, c in sorted(terms.items(), key=itemgetter(0)):
            d = den
            if d != 1:
                g = gcd(c, d)
                c, d = c // g, d // g
            if check and (_too_long(c) or _too_long(d)):
                raise DigitOverflow()
            fragments = []
            degree = 0
            while m:
                low = m.bit_length() - 1
                low -= low % FIELD_BITS
                e = m >> low
                field = e << low
                m -= field
                degree += e
                if e == 1:
                    fragments.append(names[low // FIELD_BITS])
                    continue
                fragment = powers.get(field)
                if fragment is None:
                    name = names[low // FIELD_BITS]
                    fragment = powers[field] = f"{name}{open_}{e}{close}" if open_ else (name[0], e)
                fragments.append(fragment)
            rows.append((degree, fragments, c, d))
        rows.sort(key=itemgetter(0), reverse=True)  # stable: degree descending
        return rows
    fields.sort()
    width = FIELD_BITS * len(fields)
    shift = {slot: width - FIELD_BITS * (i + 1) for i, (_, slot) in enumerate(fields)}
    for m, c in terms.items():
        d = den
        if d != 1:
            g = gcd(c, d)
            c, d = c // g, d // g
        if check and (_too_long(c) or _too_long(d)):
            raise DigitOverflow()
        pairs = []
        key = degree = slot = 0
        while m:
            skip = ((m & -m).bit_length() - 1) // FIELD_BITS
            m >>= skip * FIELD_BITS
            slot += skip
            e = m & _FIELD_MASK
            pairs.append((shift[slot], names[slot] if e == 1 else f"{names[slot]}{open_}{e}{close}"
                          if open_ else (names[slot][0], e)))
            key += e << shift[slot]
            degree += e
            m >>= FIELD_BITS
            slot += 1
        pairs.sort(reverse=True)
        rows.append(((-degree << width) + key, [f for _, f in pairs], c, d))
    rows.sort()
    return rows


def _coeff_text(num: int, den: int, frac: str = "{}/{}") -> str:
    """num / den, already in lowest terms, as str(Fraction) writes it by default."""
    return str(num) if den == 1 else frac.format(num, den)


def _render(p: Polynomial, fmt: tuple, sep: str, frac: str, glue: str) -> str:
    """The terms of p in canonical order, joined by " + " and " - ": the
    fragments of a monomial, written by fmt (see _sorted_terms), are joined
    by sep, frac.format(num, den) writes a non-integer coefficient, and glue
    goes between the two; a coefficient of 1 before a monomial is left out."""
    if p.is_zero:
        return "0"
    parts = []
    for _, fragments, c, d in _sorted_terms(p, fmt):
        mono = sep.join(fragments)
        sign = " - " if c < 0 else " + "
        if mono and d == 1 and abs(c) == 1:
            parts.append(sign + mono)
        else:
            coeff = _coeff_text(abs(c), d, frac)
            parts.append(f"{sign}{coeff}{glue}{mono}" if mono else sign + coeff)
    parts[0] = parts[0][3:] if parts[0][1] == "+" else "-" + parts[0][3:]
    return "".join(parts)


_TEXT = (_NAMES, var_name, "^", "")
_LATEX = (_LATEX_NAMES, _latex_name, "^{", "}")


def render_text(p: Polynomial) -> str:
    return _render(p, _TEXT, "*", "{}/{}", "*")


def render_latex(p: Polynomial) -> str:
    return _render(p, _LATEX, "", "\\frac{{{}}}{{{}}}", "\\,")


def to_json_terms(p: Polynomial) -> list:
    """Stable JSON term list: [{"coeff": "p/q", "monomial": {...}}], each
    monomial built from the (name, exponent) pairs of its decode."""
    fmt = ([], lambda code: (var_name(code), 1), "", "")
    return [{"coeff": _coeff_text(c, d), "monomial": dict(pairs)}
            for _, pairs, c, d in _sorted_terms(p, fmt)]


# -- binomial polynomials ----------------------------------------------


def binom_poly(arg: Polynomial, i: int) -> Polynomial:
    """The polynomial binomial coefficient C(arg, i) = arg(arg-1)...(arg-i+1)/i!."""
    if i < 0:
        raise ValueError(f"binom_poly: i must be >= 0, got {i}")
    result = Polynomial.one()
    for j in range(i):
        result = result * (arg - j)
    return result / factorial(i)


# -- constants read off polynomials ------------------------------------


def constant_ratio(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """The constant c with p = c q, as a constant Polynomial, or None if
    there is none; 1 when p and q are both zero.  For a nonzero q it exists
    when p and q have the same monomials and proportional numerators,
    checked by cross-multiplying."""
    if q.is_zero:
        return Polynomial.one() if p.is_zero else None
    if p.is_zero:
        return Polynomial.zero()
    pt, qt = p._terms, q._terms
    if pt.keys() != qt.keys():
        return None
    m = next(iter(qt))
    a, b = pt[m], qt[m]
    if any(c * b != a * qt[k] for k, c in pt.items()):
        return None
    if b < 0:
        a, b = -a, -b
    return Polynomial._make({0: a * q._den}, b * p._den)


def content(p: Polynomial, anchor: Monomial) -> Polynomial:
    """The rational c, as a constant Polynomial, that makes p / c an integer
    polynomial whose coefficients have gcd 1 and whose coefficient at the
    tuple monomial anchor is not negative.  The numerators of p are prime to
    its denominator, so c is their gcd over it."""
    g = gcd(*p._terms.values())
    if p._terms.get(_pack(anchor), 0) < 0:
        g = -g
    return Polynomial._make({0: g} if g else {}, p._den)


def least_exponent(p: Polynomial, code: int, limit: int) -> int:
    """The largest e <= limit such that the variable code to the power e
    divides p: the least exponent of code over the terms of p, capped at
    limit, and limit itself for the zero polynomial."""
    shift = _slot(code) * FIELD_BITS
    return min([limit, *((m >> shift) & _FIELD_MASK for m in p._terms)])


# -- exact division and determinants -----------------------------------


def exact_div(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact polynomial quotient p / q; raises if q does not divide p.

    Sparse division as in Monagan and Pearce (J. Symbolic Comput. 46, 2011):
    the remainder is one dict updated in place, and its leading monomial
    comes off a priority queue of (degree, packed key) pairs (a list kept
    sorted with bisect), a graded order; any graded monomial order gives the
    same exact quotient.  Monomials that cancelled after they were queued are
    skipped.
    p's numerators are divided by the primitive part of q's, so by Gauss's
    lemma every quotient coefficient is an integer when the division is exact.
    """
    if q.is_zero:
        raise ZeroDivisionError("exact_div by zero polynomial")
    guard = GUARD
    content = gcd(*q._terms.values())
    divisor = [(_degree(m), m, c // content) for m, c in q._terms.items()]
    divisor.sort()
    lead_d, lead, lead_c = divisor.pop()
    remainder = dict(p._terms)
    queue = sorted((_degree(m), m) for m in remainder)
    quotient = {}
    while queue:
        d, m = queue.pop()
        c = remainder.pop(m, 0)
        if not c:
            continue
        t, r = divmod(c, lead_c)
        # lead divides m iff no field borrows through its guard bit.
        if r or ((m | guard) - lead) & guard != guard:
            raise ValueError("exact_div: division is not exact")
        tm, td = m - lead, d - lead_d
        quotient[tm] = t
        for d2, m2, c2 in divisor:
            m3 = tm + m2
            s = remainder.get(m3, 0) - t * c2
            if not s:
                del remainder[m3]
                continue
            if m3 not in remainder:
                insort(queue, (td + d2, m3))
            remainder[m3] = s
    return Polynomial._make(
        {m: c * q._den for m, c in quotient.items()}, content * p._den
    )


def determinant(matrix) -> Polynomial:
    """Exact determinant of a square matrix of polynomials.

    Laplace expansion down the columns, each minor memoized by its set of
    remaining rows: at most n 2^(n-1) entry products instead of n!, with no
    division, so sparse entries stay sparse.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("determinant: matrix must be square and non-empty")
    rows = [[_as_polynomial(e) for e in row] for row in matrix]
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
