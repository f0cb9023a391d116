"""Triangular derivations of Q[x0, x1, ...]: the basic Weitzenbock
derivation and the two Kravchuk derivations, with the Dixmier map and the
Cayley kernel elements.  The closed forms of their powers D^k(x_n) are
oracles in the tests.

A derivation is the function n -> D(x_n), built on each call.  Each image
uses only the x_j with j < n, so the images of the generators an input uses
fix D on it, and no ring size is chosen.
"""

from math import factorial, lcm
from operator import itemgetter

from .poly import (
    Polynomial,
    constant_ratio,
    content,
    exact_div,
    generators,
    least_exponent,
    xvar,
)

# The most terms a D_K1 or D_K2 image may have, checked before any is built:
# a packed key spends 16 bits on every slot up to its variable, so
# D_K2(x10000), with 10,000 terms over lcm(1..10000), already peaks near 260 MB.
IMAGE_TERM_LIMIT = 10_000


def _check_terms(name: str, n: int, terms: int) -> None:
    if terms > IMAGE_TERM_LIMIT:
        raise ValueError(
            f"{name}(x{n}) would have {terms} terms, past the limit of {IMAGE_TERM_LIMIT}")


def weitzenbock(n: int) -> Polynomial:
    """W(x_n) = n x_{n-1}, W(x_0) = 0."""
    return Polynomial.linear({n - 1: n} if n else {})


# D_K1 and D_K2 are integer multiples of the generators over one
# denominator, the lcm of the index differences.
def kravchuk1(n: int) -> Polynomial:
    """D_K1(x_n) = sum_{i=1}^n (1-(-1)^i)/(2i) x_{n-i}  (odd i only)."""
    odd = range(1, n + 1, 2)
    _check_terms("D_K1", n, len(odd))
    den = lcm(*odd)
    return Polynomial.linear({n - i: den // i for i in odd}, den)


def kravchuk2(n: int) -> Polynomial:
    """D_K2(x_n) = sum_{i=0}^{n-1} (-1)^(n+1+i)/(n-i) x_i."""
    _check_terms("D_K2", n, n)
    den = lcm(*range(1, n + 1))
    coeffs = {i: (-1) ** (n + 1 + i) * (den // (n - i)) for i in range(n)}
    return Polynomial.linear(coeffs, den)


def apply(D, p: Polynomial) -> Polynomial:
    """D(p) = sum_v dp/dx_v * D(x_v): a derivation is fixed by the images
    of the generators, and only those of p's generators are built."""
    return p.derive({v: D(v) for v in generators(p)})


def _iterates(images: dict, p: Polynomial):
    """p, D(p), D^2(p), ... up to the last nonzero one, for the derivation
    D with the generator images {v: D(x_v)}, which hold every generator of
    p and of its images; each step passes derive only those of its own
    generators."""
    while not p.is_zero:
        yield p
        p = p.derive({v: images[v] for v in generators(p)})


def is_in_kernel(D, p: Polynomial) -> bool:
    return apply(D, p).is_zero


class _Fields(tuple):
    """A tuple whose items are also read by name, as a namedtuple's are,
    without the source that collections.namedtuple compiles at import."""

    __slots__ = ()

    def __getnewargs__(self):
        """The items, which copy and pickle pass to __new__."""
        return tuple(self)


class Sigma(_Fields):
    """sigma(x_i) = numerator / x0^power; when power > 0, x0 does not
    divide the numerator."""

    __slots__ = ()

    def __new__(cls, numerator: Polynomial, power: int):
        return tuple.__new__(cls, (numerator, power))

    numerator = property(itemgetter(0))
    power = property(itemgetter(1))

    def __repr__(self):
        if self.power == 0:
            return f"({self.numerator})"
        return f"({self.numerator}) / x0^{self.power}"


def dixmier_sigma(D, i: int) -> Sigma:
    """sigma(x_i) = sum_k D^k(x_i) lambda^k / k! on the slice
    lambda = -x1/(c x0), where D(x1) = c x0; a kernel element of the ring
    localized at x0."""
    x0 = Polynomial.var(xvar(0))
    # D is triangular, so D^k(x_i) uses only x_0..x_i: their images (and
    # D(x1), for the check below), built once, serve every iterate.
    images = {v: D(v) for v in range(max(i, 1) + 1)}
    # -1/c, the constant ratio of -x0 to D(x1), if D(x1) has one.
    inverse = constant_ratio(-x0, images[1])
    if inverse is None or not images[0].is_zero:
        raise ValueError(f"sigma needs D(x0) = 0 and D(x1) = c*x0, c != 0 ({D.__name__})")
    y = Polynomial.var(xvar(1)) * inverse  # lambda x0
    iterates = list(_iterates(images, Polynomial.var(xvar(i))))
    # Every term over the common denominator x0^top; the x0 factors that the
    # whole numerator shares with it cancel once, at the end.
    top = len(iterates) - 1
    numerator = Polynomial.sum(
        dk * (y**k * x0 ** (top - k) / factorial(k)) for k, dk in enumerate(iterates)
    )
    shared = least_exponent(numerator, xvar(0), top)
    if shared:
        numerator = exact_div(numerator, x0**shared)
    return Sigma(numerator, top - shared)


def cayley_k1(n: int) -> Polynomial:
    """C_n = n (n-2)! x_0^(n-1) sigma(x_n) for the first Kravchuk derivation."""
    if n < 2:
        raise ValueError(f"cayley_k1: n must be >= 2, got {n}")
    sigma = dixmier_sigma(kravchuk1, n)
    if sigma.power > n - 1:
        raise ValueError("sigma denominator exceeds x0^(n-1)")
    cleared = sigma.numerator * Polynomial.var(xvar(0)) ** (n - 1 - sigma.power)
    return cleared * (n * factorial(n - 2))


class CayleyK2(_Fields):
    """Primitive integer numerator of sigma(x_n) for D_K2, with the scale it
    was divided by, a constant Polynomial: sigma(x_n) * x_0^power = scale *
    polynomial."""

    __slots__ = ()

    def __new__(cls, polynomial: Polynomial, scale: Polynomial, power: int):
        return tuple.__new__(cls, (polynomial, scale, power))

    polynomial = property(itemgetter(0))
    scale = property(itemgetter(1))
    power = property(itemgetter(2))


def cayley_k2(n: int) -> CayleyK2:
    if n < 2:
        raise ValueError(f"cayley_k2: n must be >= 2, got {n}")
    num, power = dixmier_sigma(kravchuk2, n)
    # Sign convention per the published sigma tables: the x_1 * x_0^power
    # coefficient of the primitive part is positive.
    anchor = tuple((xvar(v), e) for v, e in ((0, power), (1, 1)) if e)
    scale = content(num, anchor)
    return CayleyK2(exact_div(num, scale), scale, power)
