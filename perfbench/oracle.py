"""Answers that do not come from the package, checked against job stdout.

Every job's stdout is first compared byte for byte (by SHA-256) with the
output recorded in ``expected.json``.  The checks here confirm, from the
paper's statements and from sympy (used only in the benchmark), that the
recorded answers are the right ones:

* conjecture 2 is Verified for every n;
* conjecture 1 is Refuted for even n with ratio exactly 1/n!, and its odd-n
  sides both vanish;
* conjecture 3 is Refuted on the literal products, and both parts equal the
  products extended by one index (the ``shifted_products_match`` reading);
* the discriminant chain ends in 108*a^3, Verified;
* ``poly n`` equals sympy's expansion of sum_i (-1)^i C(x,i) C(a-x,n-i).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

_HEADER = re.compile(r"^(conjecture\w+) n=(\d+): (Verified|Refuted)(?: \(proportional, ratio (\S+)\))?$")


def has_check(argv: list) -> bool:
    if argv[0] == "poly":
        return argv[argv.index("--format") + 1] in ("text", "json")
    return argv[0] in ("conjecture", "discriminant-demo")


def _parse_xa(text: str) -> dict:
    """Canonical text of a polynomial in x, a -> {(deg x, deg a): Fraction}."""
    terms = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, exps = Fraction(1), [0, 0]
        if term.startswith("-"):
            coeff, term = -coeff, term[1:]
        for factor in term.split("*"):
            var, _, power = factor.partition("^")
            if var in ("x", "a"):
                exps["xa".index(var)] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return {m: c for m, c in terms.items() if c}


def _sympy_terms(expr) -> dict:
    """A sympy expression in x, a -> {(deg x, deg a): Fraction}."""
    import sympy

    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols("x a"))
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()}


def _reports(stdout: str) -> list:
    """(check_id, n, verdict, ratio, lhs text) per report of a text sweep."""
    lines = stdout.splitlines()
    out = []
    for i in range(0, len(lines), 3):
        match = _HEADER.match(lines[i])
        if match is None or not lines[i + 1].startswith("  lhs = "):
            raise ValueError(f"unexpected report line {lines[i]!r}")
        check_id, n, verdict, ratio = match.groups()
        out.append((check_id, int(n), verdict, ratio, lines[i + 1][len("  lhs = "):]))
    return out


def _shifted_c3(part: str, n: int):
    """Conjecture 3 right sides with every product extended by one index."""
    import sympy

    x, a = sympy.symbols("x a")
    sign = (-1) ** (n * (n + 1) // 2)
    if part == "conjecture3i":
        coeff = sign * sympy.prod([sympy.factorial(i) for i in range(n + 1)])
        return coeff * sympy.prod([(a + i) ** (n - i) for i in range(n)])
    coeff = sign * sympy.prod([2**i * sympy.factorial(i) for i in range(n + 1)])
    return coeff * sympy.prod([(x - i) ** (n - i) for i in range(n)])


def _kravchuk_sympy(n: int) -> dict:
    import sympy

    x, a = sympy.symbols("x a")
    X, A = sympy.Poly(x, x, a), sympy.Poly(a, x, a)

    def binom(arg, i):
        out = sympy.Poly(1, x, a)
        for j in range(i):
            out *= arg - j
        return out * sympy.Rational(1, factorial(i))

    total = sum((binom(X, i) * binom(A - X, n - i) * (-1) ** i for i in range(n + 1)), sympy.Poly(0, x, a))
    return _sympy_terms(total.as_expr())


def check(argv: list, stdout: str) -> str | None:
    """None when the output agrees with the independent answer, else why not."""
    cmd = argv[0]
    if cmd == "discriminant-demo":
        want = [
            "discriminant matches: True",
            "transported element in ker D_K1: True",
            "phi_K image: 108*a^3",
            "verdict: Verified",
        ]
        return None if stdout.splitlines() == want else "discriminant chain does not end in 108*a^3"
    if cmd == "poly":
        n, fmt = int(argv[1]), argv[argv.index("--format") + 1]
        if fmt == "json":
            got = {
                (t["monomial"].get("x", 0), t["monomial"].get("a", 0)): Fraction(t["coeff"])
                for t in json.loads(stdout)["terms"]
            }
        else:
            got = _parse_xa(stdout.strip())
        return None if got == _kravchuk_sympy(n) else f"K_{n} differs from sympy"
    which, max_n = argv[1], int(argv[argv.index("--max-n") + 1])
    reports = _reports(stdout)
    if which == "3":
        want_ids = [(c, n) for n in range(1, max_n + 1) for c in ("conjecture3i", "conjecture3ii")]
        if [(r[0], r[1]) for r in reports] != want_ids:
            return "conjecture 3 sweep does not cover n = 1..max-n"
        for check_id, n, verdict, _, lhs in reports:
            if verdict != "Refuted":
                return f"{check_id} n={n} not Refuted on the literal products"
            if _parse_xa(lhs) != _sympy_terms(_shifted_c3(check_id, n)):
                return f"{check_id} n={n} does not match the shifted products"
        return None
    if [r[1] for r in reports] != list(range(2, max_n + 1)):
        return f"conjecture {which} sweep does not cover n = 2..max-n"
    for check_id, n, verdict, ratio, lhs in reports:
        if check_id != f"conjecture{which}":
            return f"unexpected report {check_id}"
        if which == "2" and verdict != "Verified":
            return f"conjecture2 n={n} not Verified"
        if which == "1" and n % 2 == 1 and (verdict != "Verified" or lhs != "0"):
            return f"conjecture1 n={n} (odd) does not vanish"
        if which == "1" and n % 2 == 0 and (
            verdict != "Refuted" or ratio is None or Fraction(ratio) != Fraction(1, factorial(n))
        ):
            return f"conjecture1 n={n} (even) is not Refuted with ratio 1/n!"
    return None
