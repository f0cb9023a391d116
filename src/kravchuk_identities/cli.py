"""Command-line front end: expression parser, dispatch, report emission.

Grammar:
    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')' | '-' factor
    var      := 'x' digits | 'x' | 'a'
    rational := digits ('/' digits)?

Implicit multiplication is not allowed, and '(' and unary '-' nest at
most MAX_NESTING deep. Exit codes: 0 all verified, 1 any refuted, 2 usage,
parse or output error.
"""

from __future__ import annotations

import argparse
import json
import os
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


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens = []
        self._scan()
        self.index = 0

    def _error(self, msg):
        raise ParseError(msg, self.line, self.col)

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "\n":
                self.pos += 1
                self.line += 1
                self.col = 1
                continue
            if ch.isspace():
                self.pos += 1
                self.col += 1
                continue
            start_line, start_col = self.line, self.col
            if ch.isdigit():
                j = self.pos
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("num", text[self.pos : j], start_line, start_col))
                self.col += j - self.pos
                self.pos = j
            elif ch == "x":
                j = self.pos + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("var", text[self.pos : j], start_line, start_col))
                self.col += j - self.pos
                self.pos = j
            elif ch == "a":
                self.tokens.append(("var", "a", start_line, start_col))
                self.pos += 1
                self.col += 1
            elif ch in "+-*^/()":
                self.tokens.append((ch, ch, start_line, start_col))
                self.pos += 1
                self.col += 1
            else:
                self._error(f"unexpected character {ch!r}")
        self.tokens.append(("end", "", self.line, self.col))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text)
        self.depth = 0

    def parse(self) -> Polynomial:
        p = self._expr()
        kind, value, line, col = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", line, col)
        return p

    def _expr(self) -> Polynomial:
        p = self._term()
        while self.toks.peek()[0] in "+-":
            op = self.toks.next()[0]
            q = self._term()
            p = p + q if op == "+" else p - q
        return p

    def _term(self) -> Polynomial:
        p = self._factor()
        while self.toks.peek()[0] == "*":
            self.toks.next()
            p = p * self._factor()
        return p

    def _factor(self) -> Polynomial:
        p = self._base()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, value, line, col = self.toks.next()
            if kind != "num":
                raise ParseError(
                    "exponent must be a non-negative integer literal", line, col
                )
            e = int(value)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds limit {MAX_EXPONENT}", line, col)
            p = p**e
        return p

    def _base(self) -> Polynomial:
        kind, value, line, col = self.toks.next()
        if kind == "num":
            numerator = int(value)
            if self.toks.peek()[0] == "/":
                self.toks.next()
                dkind, dvalue, dline, dcol = self.toks.next()
                if dkind != "num":
                    raise ParseError("expected denominator digits", dline, dcol)
                if int(dvalue) == 0:
                    raise ParseError("zero denominator", dline, dcol)
                return Polynomial.constant(Fraction(numerator, int(dvalue)))
            return Polynomial.constant(numerator)
        if kind == "var":
            if value == "x":
                return Polynomial.var(X)
            if value == "a":
                return Polynomial.var(A)
            return Polynomial.var(xvar(int(value[1:])))
        if kind not in ("(", "-"):
            raise ParseError(f"unexpected token {value!r}", line, col)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", line, col)
        if kind == "(":
            p = self._expr()
            ckind, cvalue, cline, ccol = self.toks.next()
            if ckind != ")":
                raise ParseError("expected ')'", cline, ccol)
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

_DERIVATION_KINDS = {"w": "weitzenbock", "k1": "kravchuk1", "k2": "kravchuk2"}


def _build_derivation(kind: str, N: int):
    return derivations.build(_DERIVATION_KINDS[kind], max(N, 1))


def _max_generator(p: Polynomial) -> int:
    indexed = [v for v in p.variables() if v not in (X, A)]
    return max(indexed, default=0)


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
        D = _build_derivation(args.kind, _max_generator(p))
        print(render_text(derivations.apply(D, p)))
        return 0
    if cmd == "kernel":
        p = parse_expr(args.expr)
        D = _build_derivation(args.derivation, _max_generator(p))
        ok = derivations.is_in_kernel(D, p)
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
        kind = _DERIVATION_KINDS[args.derivation]
        D = derivations.build(kind, max(args.n, 1))
        sigma = derivations.dixmier_sigma(D, args.n)
        print(repr(sigma))
        return 0
    if cmd == "intertwine":
        p = parse_expr(args.expr)
        psi = intertwine.build_psi(args.psi_map, max(_max_generator(p), 1))
        print(render_text(intertwine.apply_psi(psi, p)))
        return 0
    if cmd == "identity":
        p = parse_expr(args.expr)
        expected = parse_expr(args.expect) if args.expect is not None else None
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
