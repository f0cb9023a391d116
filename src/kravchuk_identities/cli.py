"""Command-line front end: expression parser, dispatch, report emission.

Grammar:
    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')' | '-' factor
    var      := 'x' digits | 'x' | 'a'
    rational := digits ('/' digits)?
    digits   := [0-9]+

A rational literal is one base, so 3/4^2 is 9/16, and unary '-' is a
base, so -x1^2 is -(x1^2) and -x1^2^2 is (-x1^2)^2.  Implicit
multiplication is not allowed, and '(' and unary '-' nest at most
MAX_NESTING deep. Exit codes: 0 all verified, 1 any refuted, 2 usage,
parse or output error.
"""

import os
import re
import sys
from itertools import islice
from types import SimpleNamespace

from . import derivations, identities, intertwine, kravchuk, poly
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


# A token is ASCII digits (always an int literal), a variable or an
# operator, after the whitespace before it; its first character is its kind.
_TOKEN = re.compile(r"\s*([0-9]+|x[0-9]*|a|[-+*^/()])")
_OK = frozenset("0123456789xa+-*^/()")
# Variable token -> (packed key, 1, 1).  Slots are append-only, so a cached
# key stays valid for the life of the process.
_VARS = {name: (poly.var_key(code), 1, 1) for name, code in (("x", X), ("a", A))}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # A bad character wins over any grammar error; isspace() is what \s is.
        bad = [c for c in set(text) - _OK if not c.isspace()]
        if bad:
            offset = min(map(text.index, bad))
            raise self._error(f"unexpected character {text[offset]!r}", offset=offset)
        self.tokens = _TOKEN.findall(text) + [""]
        self.index = 0
        self.depth = 0
        self.fresh = True  # until the first new generator

    def _error(self, message: str, index: int = 0, offset: int | None = None) -> ParseError:
        """A ParseError at the 1-based line and column of offset, by default
        that of token index, found by scanning again; the end "" is at len(text)."""
        text = self.text
        if offset is None:
            m = next(islice(_TOKEN.finditer(text), index, None), None)
            offset = m.start(1) if m else len(text)
        line_start = text.rfind("\n", 0, offset) + 1
        return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def _int(self, digits: str, index: int) -> int:
        """int(digits); past poly.DIGIT_LIMIT digits int() itself would refuse."""
        if len(digits) > poly.DIGIT_LIMIT:
            raise self._error(f"number longer than {poly.DIGIT_LIMIT} digits", index)
        return int(digits)

    def parse(self) -> Polynomial:
        p = self._expr()
        if self.tokens[self.index]:
            raise self._error(f"unexpected token {self.tokens[self.index]!r}", self.index)
        return p

    def _expr(self) -> Polynomial:
        return Polynomial.sum(self._signed_terms())

    def _signed_terms(self):
        yield self._term(1)
        while (sign := self.tokens[self.index]) in ("+", "-"):
            self.index += 1
            yield self._term(1 if sign == "+" else -1)

    def _term(self, num: int):
        """The term's sign num and its leading literal and variable factors
        are read into one packed key, numerator and denominator, with the
        exponent guard tested after each factor.  From the first '(' or unary
        '-' factor on, the factors multiply Polynomials left to right, and
        each product tests the guard itself, so ExponentOverflow comes at the
        factor where a left-to-right product reaches it.

        A term without such factors is the (packed key, numerator,
        denominator) triple that Polynomial.sum takes; any other is a
        Polynomial."""
        tokens = self.tokens
        key, den = 0, 1
        while (atom := self._atom()) is not None:
            k, n, d = atom
            e = self._exponent()
            key, num, den = key + k * e, num * n**e, den * d**e
            # poly.GUARD is live: it has the bit of a slot _atom just added.
            if num and key & poly.GUARD:
                raise poly.ExponentOverflow()
            if tokens[self.index] != "*":
                return key, num, den
            self.index += 1
        p = Polynomial.sum(((key, num, den),)) * self._factor()
        while tokens[self.index] == "*":
            self.index += 1
            p = p * self._factor()
        return p

    def _exponent(self) -> int:
        """The exponent after '^' at the next token, or 1 if none follows."""
        i = self.index + 1
        if self.tokens[i - 1] != "^":
            return 1
        if not self.tokens[i].isdigit():
            raise self._error("exponent must be a non-negative integer literal", i)
        e = self._int(self.tokens[i], i)
        if e > MAX_EXPONENT:
            raise self._error(f"exponent {e} exceeds limit {MAX_EXPONENT}", i)
        self.index = i + 1
        return e

    def _factor(self) -> Polynomial:
        return self._base() ** self._exponent()

    def _atom(self):
        """The (packed key, numerator, denominator) triple of the literal or
        variable at the next token, which is consumed; None, with nothing
        consumed, for any other token.  A literal p/q is one atom, so 3/4^2
        is 9/16."""
        tokens = self.tokens
        i = self.index
        token = tokens[i]
        atom = _VARS.get(token)
        if atom is None and token.isdigit():
            numerator = int(token) if len(token) <= poly.DIGIT_LIMIT else self._int(token, i)
            if tokens[i + 1] != "/":
                self.index = i + 1
                return 0, numerator, 1
            i += 2
            if not tokens[i].isdigit():
                raise self._error("expected denominator digits", i)
            denominator = self._int(tokens[i], i)
            if not denominator:
                raise self._error("zero denominator", i)
            self.index = i + 1
            return 0, numerator, denominator
        if atom is None:
            if token[:1] != "x":  # "x" and "a" are in _VARS
                return None
            index = self._int(token[1:], i)
            try:
                code = xvar(index)
            except ValueError as exc:
                raise self._error(str(exc), i) from None
            if self.fresh:
                # The input's first new generator: register them all, highest
                # index first (see poly).  An index of 10 or more digits
                # (leading zeros, or out of range) is left to its own token.
                self.fresh = False
                new = {int(t[1:]): t for t in set(tokens).difference(_VARS)
                       if 1 < len(t) < 11 and t[0] == "x"}
                for k in sorted(new, reverse=True):
                    _VARS[new[k]] = (poly.var_key(k), 1, 1)
            atom = _VARS[token] = (poly.var_key(code), 1, 1)
        self.index = i + 1
        return atom

    def _base(self) -> Polynomial:
        atom = self._atom()
        if atom is not None:
            return Polynomial.sum((atom,))
        i = self.index
        token = self.tokens[i]
        if token not in ("(", "-"):
            message = f"unexpected token {token!r}" if token else "unexpected end of input"
            raise self._error(message, i)
        self.index = i + 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING}", i)
        if token == "(":
            p = self._expr()
            if self.tokens[self.index] != ")":
                raise self._error("expected ')'", self.index)
            self.index += 1
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
        import json  # only --format json loads it

        return json.dumps({"terms": to_json_terms(p)})
    raise ValueError(f"unknown format: {fmt!r}")


# -- dispatch -----------------------------------------------------------

_DERIVATIONS = {
    "w": derivations.weitzenbock,
    "k1": derivations.kravchuk1,
    "k2": derivations.kravchuk2,
}


# -- command line -------------------------------------------------------

# The command table: the one source for parsing, --help and usage lines.
# name: (help, positionals, options).  A positional is (dest, kind) and an
# option is flag: (dest, kind, default); a default of _REQUIRED makes the
# option required.  A kind is int, str or a tuple of choices; a token for a
# tuple of ints goes through int() before the choice check.
_REQUIRED = object()
_FORMAT = {"--format": ("format", ("text", "json", "latex"), "text")}
_COMMANDS = {
    "poly": ("print K_n(x,a)", [("n", int)], _FORMAT),
    "derive": (
        "derivative expansion of K_n",
        [("n", int)],
        {"--op": ("op", ("dx", "da"), _REQUIRED)},
    ),
    "derivation": (
        "apply a derivation to an expression",
        [("action", ("apply",)), ("expr", str)],
        {"--kind": ("kind", tuple(_DERIVATIONS), _REQUIRED)},
    ),
    "kernel": (
        "kernel membership check",
        [("action", ("check",)), ("expr", str)],
        {"--derivation": ("derivation", tuple(_DERIVATIONS), _REQUIRED)},
    ),
    "cayley": (
        "Cayley kernel element C_n",
        [("n", int)],
        {"--derivation": ("derivation", ("k1", "k2"), _REQUIRED)},
    ),
    "sigma": (
        "Dixmier image sigma(x_n)",
        [("n", int)],
        {"--derivation": ("derivation", ("k1", "k2"), _REQUIRED)},
    ),
    "intertwine": (
        "apply psi_AK1 / psi_AK2",
        [("action", ("apply",)), ("expr", str)],
        {"--map": ("psi_map", ("ak1", "ak2"), _REQUIRED)},
    ),
    "identity": (
        "phi_K image and classification",
        [("action", ("verify",)), ("expr", str)],
        {"--expect": ("expect", str, None)},
    ),
    "conjecture": (
        "sweep a conjecture verifier",
        [("which", (1, 2, 3))],
        {"--max-n": ("max_n", int, None), **_FORMAT, "--out": ("out", str, None)},
    ),
    "discriminant-demo": ("the 108 a^3 discriminant chain", [], {}),
}


class UsageError(ValueError):
    """A malformed command line; usage is the line printed above the error."""

    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


def _metavar(name: str, kind) -> str:
    return "{" + ",".join(map(str, kind)) + "}" if isinstance(kind, tuple) else name


def _usage(command=None) -> str:
    if command is None:
        return f"kravchuk [-h] {_metavar('command', tuple(_COMMANDS))} ..."
    _, positionals, options = _COMMANDS[command]
    words = ["kravchuk", command, "[-h]"]
    for flag, (dest, kind, default) in options.items():
        word = f"{flag} {_metavar(dest.upper(), kind)}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    words.extend(_metavar(dest, kind) for dest, kind in positionals)
    return " ".join(words)


def _help(command=None) -> str:
    if command is not None:
        return f"usage: {_usage(command)}\n\n{_COMMANDS[command][0]}"
    width = max(map(len, _COMMANDS)) + 2
    rows = "\n".join(f"  {name:<{width}}{spec[0]}" for name, spec in _COMMANDS.items())
    return (
        f"usage: {_usage()}\n\n"
        "Exact identities and derivations for Kravchuk polynomials\n\n"
        f"commands:\n{rows}\n\n"
        "'kravchuk <command> --help' shows the usage of one command."
    )


def _convert(name: str, kind, token: str):
    if kind is str:
        return token
    value = token
    if kind is int or isinstance(kind[0], int):
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"argument {name}: invalid int value: {token!r}") from None
    if kind is not int and value not in kind:
        choices = ", ".join(map(repr, kind))
        raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _long_option(token: str, flags):
    """(flag, inline value or None) for a --name[=value] token whose name is
    a flag or a unique prefix of one; None when it names no flag."""
    name, eq, value = token.partition("=")
    matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
    if len(matches) > 1:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
    return (matches[0], value if eq else None) if matches else None


def parse_args(argv):
    """The namespace _dispatch reads, or the help text when -h/--help comes
    before any error.  Raises UsageError on a malformed command line.

    The command comes first.  Options take the forms --opt value,
    --opt=value and a unique prefix of --opt, before, between or after the
    positionals; the last of a repeated option wins, and -- ends the
    options.  An option always takes the next token as its value, and every
    other token that is not -h or a --long option is a positional, so
    values like -3, -x1 and -a+2*x need no --."""
    command = argv[0] if argv else None
    if command == "-h" or len(command or "") > 2 and "--help".startswith(command):
        return _help()
    try:
        if command is None:
            raise ValueError("the following arguments are required: command")
        _convert("command", tuple(_COMMANDS), command)  # raises if unknown
    except ValueError as exc:
        raise UsageError(str(exc), _usage()) from None

    _, positionals, options = _COMMANDS[command]
    flags = ("--help", *options)
    values = {"command": command}
    values.update((dest, default) for dest, _, default in options.values())
    extras = []
    count = 0  # positionals read
    ended = False  # after --
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            option = None
            if not ended:
                if token == "--":
                    ended = True
                    continue
                if token == "-h":
                    return _help(command)
                if token.startswith("--"):
                    option = _long_option(token, flags)
                    # An unknown --name is an error, except with a space
                    # in it: that is an expression like '--x1 + x0'.
                    if option is None and " " not in token:
                        extras.append(token)
                        continue
            if option is None:
                if count < len(positionals):
                    dest, kind = positionals[count]
                    values[dest] = _convert(dest, kind, token)
                    count += 1
                else:
                    extras.append(token)
                continue
            flag, value = option
            if flag == "--help":
                if value is not None:
                    raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")
                return _help(command)
            if value is None:
                value = next(tokens, None)
                if value is None:
                    raise ValueError(f"argument {flag}: expected one argument")
            dest, kind, _ = options[flag]
            values[dest] = _convert(flag, kind, value)
        missing = [dest for dest, _ in positionals[count:]]
        missing += [flag for flag, (dest, _, _) in options.items() if values[dest] is _REQUIRED]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    except ValueError as exc:
        raise UsageError(str(exc), _usage(command)) from None
    return SimpleNamespace(**values)


def _write_reports(out, reports, fmt: str) -> None:
    """Writes the reports to the text stream out: JSON as one document, text
    and LaTeX one block per report, each written as soon as it is rendered."""
    if fmt == "json":
        import json  # only --format json loads it

        out.write(json.dumps([r.to_record() for r in reports], indent=2) + "\n")
        return
    for r in reports:
        if fmt == "latex":
            lhs = render_latex(r.image)
            rhs = render_latex(r.expected) if r.expected is not None else "?"
            out.write(f"% {r.check_id} n={r.n} {r.verdict}\n{lhs} \\stackrel{{?}}{{=}} {rhs}\n")
        else:
            rec = r.to_record()
            extra = ""
            if r.verdict == identities.REFUTED and r.ratio is not None:
                extra = f" (proportional, ratio {r.ratio})"
            out.write(
                f"{rec['check_id']} n={rec['n']}: {rec['verdict']}{extra}\n"
                f"  lhs = {rec['lhs_canonical']}\n  rhs = {rec['rhs_canonical']}\n"
            )


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"usage: {exc.usage}\nkravchuk: error: {exc}", file=sys.stderr)
        return 2
    if isinstance(args, str):
        print(args)
        return 0
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # the reader closed stdout; main exits quietly
    except MemoryError:
        # Exit 1 means "refuted"; running out of memory is no verdict.
        print("error: out of memory", file=sys.stderr)
        return 2
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
        print(render_text(intertwine.apply_psi(args.psi_map, p)))
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
        return 0 if report.verdict == identities.VERIFIED else 1
    if cmd == "conjecture":
        reports = _run_conjecture(args.which, args.max_n)
        if args.out:
            with open(args.out, "w") as fh:
                _write_reports(fh, reports, args.format)
        else:
            _write_reports(sys.stdout, reports, args.format)
        return 0 if all(r.verdict == identities.VERIFIED for r in reports) else 1
    if cmd == "discriminant-demo":
        report = identities.discriminant_identity()
        print(f"discriminant matches: {report.notes['discriminant_matches']}")
        print(f"transported element in ker D_K1: {report.notes['in_kernel_k1']}")
        print(f"phi_K image: {render_text(report.image)}")
        print(f"verdict: {report.verdict}")
        return 0 if report.verdict == identities.VERIFIED else 1
    raise ValueError(f"unknown command {cmd!r}")


def _run_conjecture(which: int, max_n):
    first = 1 if which == 3 else 2
    if max_n is None:
        max_n = 4 if which == 3 else 10
    if max_n < first:
        # An empty sweep would report "all verified" about nothing.
        raise ValueError(f"conjecture {which} needs --max-n >= {first}, got {max_n}")
    if (2 * max_n if which == 3 else max_n) >= poly.EXPONENT_LIMIT:
        # K_n holds x^n, and conjecture 3 reaches K_2n through its moments, so
        # a sweep whose highest K index is at the limit could only end in this
        # error, after every smaller n.
        raise poly.ExponentOverflow()
    return (identities.conjecture1, identities.conjecture2, identities.conjecture3)[which - 1](max_n)


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
