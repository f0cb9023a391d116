"""Command-line front end: expression parser, dispatch, report emission.

Grammar:
    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')' | '-' factor
    var      := 'x' digits | 'x' | 'a'
    rational := digits ('/' digits)?
    digits   := [0-9]+

Implicit multiplication is not allowed, and '(' and unary '-' nest at
most MAX_NESTING deep. Exit codes: 0 all verified, 1 any refuted, 2 usage,
parse or output error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import derivations, identities, intertwine, kravchuk
from .poly import A, X, Polynomial, render_latex, render_text, to_json_terms, xvar

MAX_EXPONENT = 4096
# '(' and unary '-' open at once; each level costs the recursive-descent
# parser a few stack frames, so an unbounded depth would end in RecursionError.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"parse error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# One token per match; digits are ASCII only, so every "num" token is an int
# literal, and any other character falls through to "bad".
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<num>[0-9]+)|(?P<var>x[0-9]*|a)|(?P<op>[-+*^/()])|(?P<bad>.)"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "space":
                continue
            if kind == "bad":
                raise self._error(f"unexpected character {m[0]!r}", m.start())
            self.tokens.append((m[0] if kind == "op" else kind, m[0], m.start()))
        self.tokens.append(("end", "", len(text)))
        self.index = 0
        self.depth = 0

    def _error(self, message: str, offset: int) -> ParseError:
        """A ParseError at the 1-based line and column of offset."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - line_start + 1)

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok

    def parse(self) -> Polynomial:
        p = self._expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise self._error(f"unexpected token {value!r}", offset)
        return p

    def _expr(self) -> Polynomial:
        return Polynomial.sum(self._signed_terms())

    def _signed_terms(self):
        yield self._term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            q = self._term()
            yield q if op == "+" else -q

    def _term(self) -> Polynomial:
        p = self._factor()
        while self.peek()[0] == "*":
            self.next()
            p = p * self._factor()
        return p

    def _factor(self) -> Polynomial:
        p = self._base()
        if self.peek()[0] == "^":
            self.next()
            kind, value, offset = self.next()
            if kind != "num":
                raise self._error("exponent must be a non-negative integer literal", offset)
            e = int(value)
            if e > MAX_EXPONENT:
                raise self._error(f"exponent {e} exceeds limit {MAX_EXPONENT}", offset)
            p = p**e
        return p

    def _base(self) -> Polynomial:
        kind, value, offset = self.next()
        if kind == "num":
            numerator = int(value)
            if self.peek()[0] == "/":
                self.next()
                dkind, dvalue, doffset = self.next()
                if dkind != "num":
                    raise self._error("expected denominator digits", doffset)
                if int(dvalue) == 0:
                    raise self._error("zero denominator", doffset)
                return Polynomial.constant(Fraction(numerator, int(dvalue)))
            return Polynomial.constant(numerator)
        if kind == "var":
            if value == "x":
                return Polynomial.var(X)
            if value == "a":
                return Polynomial.var(A)
            try:
                return Polynomial.var(xvar(int(value[1:])))
            except ValueError as exc:
                raise self._error(str(exc), offset) from None
        if kind not in ("(", "-"):
            raise self._error(f"unexpected token {value!r}", offset)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING}", offset)
        if kind == "(":
            p = self._expr()
            ckind, _, coffset = self.next()
            if ckind != ")":
                raise self._error("expected ')'", coffset)
        else:
            p = -self._factor()
        self.depth -= 1
        return p


def parse_expr(text: str) -> Polynomial:
    return _Parser(text).parse()


def render(p: Polynomial, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(p)
    if fmt == "latex":
        return render_latex(p)
    if fmt == "json":
        return json.dumps({"terms": to_json_terms(p)})
    raise ValueError(f"unknown format: {fmt!r}")


# -- dispatch -----------------------------------------------------------

_DERIVATIONS = {
    "w": derivations.weitzenbock,
    "k1": derivations.kravchuk1,
    "k2": derivations.kravchuk2,
}
_PSI_MAPS = {"ak1": intertwine.psi_ak1, "ak2": intertwine.psi_ak2}


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


def _report_lines(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_record() for r in reports], indent=2)
    lines = []
    for r in reports:
        rec = r.to_record()
        if fmt == "latex":
            lhs = render_latex(r.image)
            rhs = render_latex(r.expected) if r.expected is not None else "?"
            lines.append(
                f"% {rec['check_id']} n={rec['n']} {rec['verdict']}\n"
                f"{lhs} \\stackrel{{?}}{{=}} {rhs}"
            )
        else:
            extra = ""
            if r.verdict == "Refuted" and r.ratio is not None:
                extra = f" (proportional, ratio {r.ratio})"
            lines.append(
                f"{rec['check_id']} n={rec['n']}: {rec['verdict']}{extra}\n"
                f"  lhs = {rec['lhs_canonical']}\n  rhs = {rec['rhs_canonical']}"
            )
    return "\n".join(lines)


def run(argv) -> int:
    ap = _make_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # the reader closed stdout; main exits quietly
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "poly":
        print(render(kravchuk.kravchuk(args.n), args.format))
        return 0
    if cmd == "derive":
        fn = kravchuk.dKdx_expansion if args.op == "dx" else kravchuk.dKda_expansion
        print(render_text(fn(args.n)))
        return 0
    if cmd == "derivation":
        p = parse_expr(args.expr)
        print(render_text(derivations.apply(_DERIVATIONS[args.kind], p)))
        return 0
    if cmd == "kernel":
        p = parse_expr(args.expr)
        ok = derivations.is_in_kernel(_DERIVATIONS[args.derivation], p)
        print(f"in kernel: {'true' if ok else 'false'}")
        return 0 if ok else 1
    if cmd == "cayley":
        if args.derivation == "k1":
            print(render_text(derivations.cayley_k1(args.n)))
        else:
            c = derivations.cayley_k2(args.n)
            print(f"{render_text(c.polynomial)}   [scalar {c.scale}]")
        return 0
    if cmd == "sigma":
        sigma = derivations.dixmier_sigma(_DERIVATIONS[args.derivation], args.n)
        print(repr(sigma))
        return 0
    if cmd == "intertwine":
        p = parse_expr(args.expr)
        print(render_text(intertwine.apply_psi(_PSI_MAPS[args.psi_map], p)))
        return 0
    if cmd == "identity":
        p = parse_expr(args.expr)
        expected = parse_expr(args.expect) if args.expect is not None else None
        if expected is not None and expected.variables() - {X, A}:
            # The phi_K image lies in Q[x,a]; no such expectation can match.
            raise ValueError("--expect must be a polynomial in x and a alone")
        report = identities.classify(p, expected=expected)
        print(f"image: {render_text(report.image)}")
        print(f"classification: {report.classification}")
        if expected is None:
            return 0
        print(f"verdict: {report.verdict}")
        return 0 if report.verdict == "Verified" else 1
    if cmd == "conjecture":
        reports = _run_conjecture(args.which, args.max_n)
        text = _report_lines(reports, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0 if all(r.verdict == "Verified" for r in reports) else 1
    if cmd == "discriminant-demo":
        report = identities.discriminant_identity()
        print(f"discriminant matches: {report.notes['discriminant_matches']}")
        print(f"transported element in ker D_K1: {report.notes['in_kernel_k1']}")
        print(f"phi_K image: {render_text(report.image)}")
        print(f"verdict: {report.verdict}")
        return 0 if report.verdict == "Verified" else 1
    raise ValueError(f"unknown command {cmd!r}")


def _run_conjecture(which: int, max_n):
    first = 1 if which == 3 else 2
    if max_n is None:
        max_n = 4 if which == 3 else 10
    if max_n < first:
        # An empty sweep would report "all verified" about nothing.
        raise ValueError(f"conjecture {which} needs --max-n >= {first}, got {max_n}")
    if which == 1:
        return [identities.conjecture1(n) for n in range(2, max_n + 1)]
    if which == 2:
        return [identities.conjecture2(n) for n in range(2, max_n + 1)]
    reports = []
    for n in range(1, max_n + 1):
        reports.extend(identities.conjecture3(n))
    return reports


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's final flush of
        # the unwritten output raises nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
