import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kravchuk_identities
from kravchuk_identities import cli, identities
from kravchuk_identities.cli import ParseError, _Parser, _plain_terms, parse_args, parse_expr, render, run
from oracles import _make_argparser
from kravchuk_identities.poly import A, X, ExponentOverflow, Polynomial, render_text, xvar

x0, x1, x2 = (Polynomial.var(xvar(i)) for i in range(3))
a = Polynomial.var(A)
x = Polynomial.var(X)

TESTS = Path(__file__).resolve().parent


def test_parse_basic():
    assert parse_expr("x1^2 - 2*x0*x2") == x1**2 - 2 * x0 * x2
    assert parse_expr("3/4*x0 + a") == x0 * Fraction(3, 4) + a
    assert parse_expr("-(x - a)^2") == -((x - a) ** 2)
    assert parse_expr("x") == x
    assert parse_expr("x0") == x0
    assert parse_expr("7") == Polynomial.constant(7)
    # No-break space and em space are whitespace, as \s has it.
    assert parse_expr("x1\u00a0+\u2003x2") == x1 + x2


# Number literals and generator indices one digit past the 4300-digit limit
# of int(), with the column of the offending literal.
_LONG = "1" + "0" * 4300
_LONG_LITERALS = {
    f"{_LONG}*x1": 1,
    f"x1^{_LONG}": 4,
    f"1/{_LONG}*x1": 3,
    f"x{_LONG}": 1,
}


def test_parse_errors():
    for bad in (
        "x1^-2", "2x1", "x1 +", "(x1", "x1^x0", "1/0", "x1^(2)", "y", "2\u00b2*x1", "x\u0661"
    ):
        with pytest.raises(ParseError):
            parse_expr(bad)
    for bad, col in _LONG_LITERALS.items():
        with pytest.raises(ParseError, match="number longer than 4300 digits") as exc:
            parse_expr(bad)
        assert (exc.value.line, exc.value.col) == (1, col)
    # 4300 digits is still a number, as a numerator and as a denominator
    top = 10**4299
    assert parse_expr(f"{top}*x1") == top * Polynomial.var(xvar(1))
    assert parse_expr(f"{2 * top - 1}/{top}") == Polynomial.constant(Fraction(2 * top - 1, top))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 + $")
    assert exc.value.col == 6
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 +\n\t x2 $")
    assert (exc.value.line, exc.value.col) == (2, 6)
    with pytest.raises(ParseError, match="unexpected end of input") as exc:
        parse_expr("x1 +")
    assert (exc.value.line, exc.value.col) == (1, 5)


# A character that starts no token is reported wherever it stands, even past
# an earlier grammar error; the end of input is after any trailing space.
_SCANNER_POSITIONS = [
    ("x1 + + $", "line 1, column 8: unexpected character '$'"),
    ("(x1 $", "line 1, column 5: unexpected character '$'"),
    ("x1^x2 + ?", "line 1, column 9: unexpected character '?'"),
    ("x1 +   ", "line 1, column 8: unexpected end of input"),
    ("3/ x1", "line 1, column 4: expected denominator digits"),
    ("x1 + (\n  x2 ~ x3", "line 2, column 6: unexpected character '~'"),
]


@pytest.mark.parametrize("text,where", _SCANNER_POSITIONS)
def test_parse_scanner_positions(text, where):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert str(exc.value) == f"parse error at {where}"


# Errors inside a term of literal and variable factors: (text, message, column).
_TERM_ERRORS = [
    ("2*3/x1", "expected denominator digits", 5),
    ("2*1/0*x1", "zero denominator", 5),
    ("x1*x2^x0", "exponent must be a non-negative integer literal", 7),
    ("x1*x2^4097", "exponent 4097 exceeds limit 4096", 7),
    ("3*x1000000000", "generator index must be in 0..999999999, got 1000000000", 3),
    ("x2*x" + "1" * 4301, "number longer than 4300 digits", 4),
]


@pytest.mark.parametrize("text,message,col", _TERM_ERRORS, ids=[t[:12] for t, _, _ in _TERM_ERRORS])
def test_parse_error_inside_a_term(text, message, col):
    for prefix, line in (("", 1), ("x0 +\n", 2)):
        with pytest.raises(ParseError) as exc:
            parse_expr(prefix + text)
        assert str(exc.value) == f"parse error at line {line}, column {col}: {message}"


def test_parse_precedence():
    # Unary '-' is a base, so an exponent after its factor's own applies to
    # the negation; a rational literal is one base.
    assert parse_expr("-x1^2^2") == x1**4
    assert parse_expr("-2^2^2") == 16
    assert parse_expr("--x1^3^2") == -(x1**6)
    assert parse_expr("3/4^2") == Fraction(9, 16)
    assert parse_expr("0/5*x1 + x2") == x2
    assert parse_expr("x^2*a*x*6/4") == Fraction(3, 2) * x**3 * a


def test_parse_exponent_guard_inside_a_term():
    # The guard is tested on the product so far after each factor, as each
    # Polynomial product would test it: an overflow is raised before a later
    # parse error, and a zero product never overflows.
    four = "*".join(["x1^4096"] * 4)
    for text in (
        f"(x1^4096)^4*{four}*x2^x0",
        f"x1^4096*-x1^4096*{four}*x1^4096*x1^4096*(",
        "2*x1^4096*(x1^4096+1)^7*x2^x0",
    ):
        with pytest.raises(ExponentOverflow):
            parse_expr(text)
    with pytest.raises(ParseError, match="column 40: exponent must be"):
        parse_expr("(x1^4096)^4*x1^4096*x1^4096*x1^4096*x2^x0")
    for text in (
        f"0*{four}*{four}",
        "0*(x1^4096)^4*(x1^4096)^4",
        "(x1^4096)^4*0*(x1^4096)^4",
        "(x1 - x1)*(x1^4096)^4*(x1^4096)^4",
    ):
        assert parse_expr(text).is_zero, text


# Random expression trees for the differential test below.  A base is
# ("rat", p, q, slash), ("var", name), ("paren", expr) or ("neg", factor); a
# factor is (base, exponent or None), a term a list of 1-6 factors and an
# expr a list of 1-6 (sign, term), the first sign unused.
_VARS = [("var", name) for name in ["x", "a"] + [f"x{i}" for i in range(12)]]
_RATS = [("rat", p, q, slash) for p in range(21) for q in range(1, 6) for slash in (q > 1, True)]


@st.composite
def _trees(draw, depth=2):
    def base(depth):
        kind = draw(st.integers(0, 9 if depth else 7))
        if kind < 8:
            return draw(st.sampled_from(_RATS if kind < 3 else _VARS))
        return ("paren", expr(depth - 1)) if kind == 8 else ("neg", factor(depth - 1))

    def factor(depth):
        return (base(depth), draw(st.sampled_from([None, 0, 1, 2, 3, 4])))

    def expr(depth):
        return [
            (draw(st.sampled_from("+-")), [factor(depth) for _ in range(draw(st.integers(1, 6)))])
            for _ in range(draw(st.integers(1, 6)))
        ]

    return expr(depth)


def _render_factor(factor, force=False):
    """The text of a factor.  An exponent after "-F" binds inside F unless F
    has one, so F is written with ^1 (force) when the negation has one."""
    base, e = factor
    if e is None and force:
        e = 1
    if base[0] == "rat":
        text = f"{base[1]}/{base[2]}" if base[2] > 1 or base[3] else str(base[1])
    elif base[0] == "var":
        text = base[1]
    elif base[0] == "paren":
        text = f"({_render_expr(base[1])})"
    else:
        text = "-" + _render_factor(base[1], force=e is not None)
    return text if e is None else f"{text}^{e}"


def _render_expr(expr):
    terms = ["*".join(map(_render_factor, term)) for _, term in expr]
    return terms[0] + "".join(f" {sign} {t}" for (sign, _), t in zip(expr[1:], terms[1:]))


def _value_factor(factor):
    base, e = factor
    if base[0] == "rat":
        v = Polynomial.constant(Fraction(base[1], base[2]))
    elif base[0] == "var":
        name = base[1]
        v = Polynomial.var(X if name == "x" else A if name == "a" else xvar(int(name[1:])))
    elif base[0] == "paren":
        v = _value_expr(base[1])
    else:
        v = -_value_factor(base[1])
    return v if e is None else v**e


def _value_expr(expr):
    total = Polynomial.zero()
    for i, (sign, term) in enumerate(expr):
        product = Polynomial.one()
        for factor in term:
            product = product * _value_factor(factor)
        total = total - product if i and sign == "-" else total + product
    return total


def _size_factor(factor):
    """A bound on the number of terms of the factor's value."""
    base, e = factor
    n = 1
    if base[0] == "paren":
        n = _size_expr(base[1])
    elif base[0] == "neg":
        n = _size_factor(base[1])
    return n if e is None else n**e


def _size_expr(expr):
    total = 0
    for _, term in expr:
        product = 1
        for factor in term:
            product *= _size_factor(factor)
        total += product
    return total


@settings(max_examples=200, deadline=None)
@given(_trees())
def test_parse_matches_tree_arithmetic(expr):
    assume(_size_expr(expr) <= 300)
    text = _render_expr(expr)
    p = parse_expr(text)
    assert p == _value_expr(expr)
    _assert_same_polynomial(p, _Parser(text).parse())


def _assert_same_polynomial(p, q):
    assert (p._terms, p._den, render_text(p)) == (q._terms, q._den, render_text(q))


# Texts that the plain-sum reader reads without tokens.
_PLAIN = [
    "x3 + 2*x11^2 - x7",
    "-3/4*x1^2*a - x^3 + 5",
    "0/5*x1 + x2 - 0",
    "3/4^2*x0 - 2^3*x00^2*x05",
    "x1^0 - 0^0*x2^4096*x2^4096",
    "-2^2 + x1\u00a0+\u2003x2 +\n\tx999999999",
    "6/4*x1*x1*x2 - 1/2*x2*x1^2 + x^2*a*x*6/4",
]


@pytest.mark.parametrize("text", _PLAIN)
def test_plain_reader_matches_descent_parser(text):
    terms = _plain_terms(text)
    assert terms is not None
    _assert_same_polynomial(Polynomial.sum(terms), _Parser(text).parse())
    _assert_same_polynomial(parse_expr(text), _Parser(text).parse())


# Texts that the plain-sum reader declines, each for one of its reasons, so
# that the descent parser gives the result or the error: its text is the
# parser's own.
_DECLINED = [
    "x1^2^2",
    "-x1^2^2",
    "x1*x2^4097",
    "3*x1000000000",
    "x0000000001",
    "x\u0661",
    "2*1/0*x1",
    "*".join(["x1^4096"] * 8),
    "*".join(["x1^4096"] * 8) + "*0",
    _LONG + " + x1",
    "(x1) + x2",
    "x1 + -x2",
    "x1 +x2",
    "x1+x2",
    "2 * x1",
    "- x1",
    "x1 + x2 +",
    "",
]


@pytest.mark.parametrize("text", _DECLINED, ids=[t[:20] for t in _DECLINED])
def test_plain_reader_declines_to_descent_parser(text):
    assert _plain_terms(text) is None
    try:
        expected = _Parser(text).parse()
    except (ParseError, ExponentOverflow) as exc:
        with pytest.raises(type(exc)) as got:
            parse_expr(text)
        assert str(got.value) == str(exc)
    else:
        _assert_same_polynomial(parse_expr(text), expected)


def test_plain_reader_cache_starts_again_past_its_limit(monkeypatch):
    # Literal factor texts are unbounded, so a long-lived process must not
    # keep every one it has read.
    monkeypatch.setattr(cli, "_VARS", dict(cli._ARGUMENTS))
    monkeypatch.setattr(cli, "_CACHE_LIMIT", 8)
    for i in range(1, 40):
        text = f"{i}*x1^2 - {i}/{i + 1}*x2*a + x"
        assert len(cli._VARS) <= 8 + 5
        _assert_same_polynomial(parse_expr(text), _Parser(text).parse())


# Runs in a fresh interpreter: the slots that one parse registers.
_SLOT_ORDER = """
import sys
from kravchuk_identities import cli, poly
before = len(poly._CODES)
(cli.parse_expr if sys.argv[2] == "parse_expr" else lambda t: cli._Parser(t).parse())(sys.argv[1])
print(*poly._CODES[before:])
"""


@pytest.mark.parametrize("text", ["x3 + 2*x11^2 - x7", "x05*x3^2*a - x12^0 + x"])
def test_plain_reader_registers_generators_as_the_parser_does(text):
    # New generators take slots highest index first, so that rendering a
    # polynomial in them can sort its packed keys themselves (see poly).
    src = Path(kravchuk_identities.__file__).parent.parent
    assert _plain_terms(text) is not None
    reader, parser = (
        subprocess.run(
            [sys.executable, "-c", _SLOT_ORDER, text, route],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
            check=True,
        ).stdout.split()
        for route in ("parse_expr", "parser")
    )
    assert reader == parser == sorted(reader, key=int, reverse=True) != []


def test_parse_matches_golden():
    # 1,200 seeded random expressions, two in five with random character
    # edits, and the render_text output or exact ParseError text that the
    # tuple-token parser gave each (recorded by record_parse_golden.py).
    golden = json.loads((TESTS / "parse_golden.json").read_text(encoding="utf-8"))
    assert len(golden) == 1200
    for entry in golden:
        try:
            got = {"text": render_text(parse_expr(entry["expr"]))}
        except ParseError as exc:
            got = {"error": str(exc)}
        assert {"expr": entry["expr"], **got} == entry


def test_render_roundtrip_random():
    rng = random.Random(20260826)
    codes = [xvar(i) for i in range(4)] + [X, A]
    for _ in range(50):
        p = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            term = Polynomial.constant(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            )
            for _ in range(rng.randint(0, 3)):
                term = term * Polynomial.var(rng.choice(codes))
            p = p + term
        assert parse_expr(render_text(p)) == p


def test_render_json():
    payload = json.loads(render(x1**2 - 2 * x0 * x2, "json"))
    assert "terms" in payload
    assert parse_expr(render(x1**2 - 2 * x0 * x2, "text")) == x1**2 - 2 * x0 * x2


def test_cli_poly(capsys):
    assert run(["poly", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert parse_expr(out) == 2 * x**2 - 2 * a * x + a * (a - 1) / 2


def test_cli_kernel_check_exit_codes(capsys):
    assert run(["kernel", "check", "--derivation", "k1", "x1^2 - 2*x2*x0"]) == 0
    assert capsys.readouterr().out.strip() == "in kernel: true"
    assert run(["kernel", "check", "--derivation", "k1", "x1"]) == 1
    assert capsys.readouterr().out.strip() == "in kernel: false"
    # The maps are fixed by their images of x0, x1, ...; x and a have none.
    for argv in (
        ["derivation", "apply", "--kind", "k1", "x*x0"],
        ["kernel", "check", "--derivation", "w", "a*x1"],
        ["intertwine", "apply", "--map", "ak2", "x"],
    ):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert captured.out == "", argv


def test_cli_parse_error_exit_code(capsys):
    assert run(["kernel", "check", "--derivation", "k1", "x1^-2"]) == 2
    assert "parse error" in capsys.readouterr().err
    # Digits are ASCII: a superscript or an Arabic-Indic digit is no digit.
    for expr in ("2\u00b2*x1", "x\u0661"):
        assert run(["identity", "verify", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error at line 1, column 2: unexpected character"), err
    # A literal past int()'s 4300-digit limit is a positioned parse error, not
    # the interpreter's own message.
    for expr, col in _LONG_LITERALS.items():
        assert run(["derivation", "apply", "--kind", "w", expr]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error at line 1, column {col}: number longer")
        assert "set_int_max_str_digits" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "verify", "x1000000000 - x"],
        ["intertwine", "apply", "--map", "ak1", "x1000000001 - a"],
    ],
    ids=["x", "a"],
)
def test_cli_generator_index_cannot_alias_x_or_a(capsys, argv):
    # The codes of x and a follow every generator code; an index that
    # reaches them is a parse error, not a second spelling of x or a.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse error at line 1, column 1: generator index")
    assert captured.out == ""


def test_cli_identity_expect_with_generator_is_a_usage_error(capsys):
    # The phi_K image lies in Q[x,a]: an expectation naming a generator
    # could only ever be "refuted" (exit 1).
    assert run(["identity", "verify", "x0", "--expect", "x0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --expect")
    assert captured.out == ""


def test_cli_identity_verify(capsys):
    code = run(["identity", "verify", "x1^2 - 2*x2*x0", "--expect", "a"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: OnlyA" in out
    assert "verdict: Verified" in out
    assert run(["identity", "verify", "x1", "--expect", "a"]) == 1


def test_cli_conjecture_json_schema(capsys):
    code = run(["conjecture", "1", "--max-n", "8", "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    assert code == 1  # even-n cases are refuted
    assert len(records) == 7
    for rec in records:
        assert set(rec) == {
            "check_id",
            "n",
            "verdict",
            "classification",
            "lhs_canonical",
            "rhs_canonical",
            "ratio_if_proportional",
            "runtime_ms",
        }
    by_n = {rec["n"]: rec for rec in records}
    assert by_n[3]["verdict"] == "Verified"
    assert by_n[4]["verdict"] == "Refuted"
    assert by_n[4]["ratio_if_proportional"] == "1/24"


def test_cli_conjecture2_all_verified(capsys):
    assert run(["conjecture", "2", "--max-n", "8"]) == 0
    assert "Refuted" not in capsys.readouterr().out


def test_cli_conjecture_out_file(tmp_path, capsys):
    out = tmp_path / "c2.json"
    assert run(["conjecture", "2", "--max-n", "6", "--format", "json", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [rec["n"] for rec in records] == [2, 3, 4, 5, 6]


def test_cli_unwritable_out_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "r.json"
    assert run(["conjecture", "2", "--max-n", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_discriminant_demo(capsys):
    assert run(["discriminant-demo"]) == 0
    out = capsys.readouterr().out
    assert "discriminant matches: True" in out
    assert "phi_K image: 108*a^3" in out
    assert "verdict: Verified" in out


def test_cli_cayley_and_sigma(capsys):
    assert run(["cayley", "--derivation", "k1", "2"]) == 0
    assert parse_expr(capsys.readouterr().out.strip()) == 2 * x2 * x0 - x1**2
    assert run(["cayley", "--derivation", "k2", "2"]) == 0
    out = capsys.readouterr().out
    assert "[scalar 1/2]" in out
    assert run(["sigma", "--derivation", "k2", "2"]) == 0
    assert "/ x0^1" in capsys.readouterr().out


def test_cli_derivation_apply(capsys):
    assert run(["derivation", "apply", "--kind", "w", "x2"]) == 0
    assert parse_expr(capsys.readouterr().out.strip()) == 2 * x1
    assert run(["derivation", "apply", "--kind", "k1", "x1^2 - 2*x2*x0"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    # A packed monomial's width follows the number of variables in use, not
    # the index value: x999999999 takes one field like x1.
    assert run(["derivation", "apply", "--kind", "w", "x999999999"]) == 0
    assert capsys.readouterr().out == "999999999*x999999998\n"


def test_cli_exponent_limit(capsys):
    # 8 * 4096 = 32768 = EXPONENT_LIMIT; one less still fits its field.
    below = "*".join(["x1^4096"] * 7 + ["x1^4095"])
    assert run(["derivation", "apply", "--kind", "w", below]) == 0
    assert capsys.readouterr().out == "32767*x0*x1^32766\n"
    for expr in ("*".join(["x1^4096"] * 8), "((x1^4096)^4096)^4096"):
        assert run(["derivation", "apply", "--kind", "w", expr]) == 2, expr
        captured = capsys.readouterr()
        assert captured.err.startswith("error: exponent limit exceeded"), expr
        assert captured.out == "", expr


@pytest.mark.parametrize("which", ["1", "2", "3"])
def test_cli_conjecture_exponent_limit(capsys, monkeypatch, which):
    # K_n holds x^n, and conjecture 3 reaches K_2n through its moments, so a
    # sweep whose highest K index is 32768 or more could only end in the
    # exponent-limit error after every smaller n: it is refused before the
    # first verifier runs.
    def no_sweep(n):
        raise AssertionError(f"verifier called at n = {n}")

    for name in ("conjecture1", "conjecture2", "conjecture3"):
        monkeypatch.setattr(identities, name, no_sweep)
    refused = ["32768", "99999999999999999999999"] + (["16384"] if which == "3" else [])
    for max_n in refused:
        assert run(["conjecture", which, "--max-n", max_n]) == 2, max_n
        captured = capsys.readouterr()
        assert captured.err.startswith("error: exponent limit exceeded"), max_n
        assert captured.out == "", max_n
    # One below the limit, the sweep starts: the verifier is called.
    below = "16383" if which == "3" else "32767"
    with pytest.raises(AssertionError, match="verifier called at n = "):
        run(["conjecture", which, "--max-n", below])


@pytest.mark.parametrize("kind", ["w", "k1", "k2"])
def test_cli_apply_exponent_limit(capsys, kind):
    # D(x1) = x0 for all three, so D(x0^e*x1) = x0^(e+1): the parsed input
    # fits, and the derivation's product reaches the limit at e = 32767.
    sevens = "*".join(["x0^4096"] * 7)
    assert run(["derivation", "apply", "--kind", kind, f"{sevens}*x0^4094*x1"]) == 0
    assert capsys.readouterr().out == "x0^32767\n"
    assert run(["derivation", "apply", "--kind", kind, f"{sevens}*x0^4095*x1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: exponent limit exceeded")
    assert captured.out == ""


def test_cli_digit_limit(capsys):
    # (10^2150)^2 - 1 prints its 4300 nines; (10^2150)^2 has 4301 digits
    assert run(["derivation", "apply", "--kind", "w", "((10^2150)^2-1)*x1"]) == 0
    assert capsys.readouterr().out == "9" * 4300 + "*x0\n"
    assert run(["derivation", "apply", "--kind", "w", "(10^2150)^2*x1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: coefficient too large to print: every numerator and"
        " denominator must have at most 4300 digits\n"
    )
    assert captured.out == ""
    # The common denominator 2^8192 * 3^5096 has 4898 digits; each printed
    # coefficient in lowest terms has fewer than 2500.
    expr = "(1/2)^4096*(1/2)^4096*x1 + (1/3)^4096*(1/3)^1000*x2"
    assert run(["derivation", "apply", "--kind", "w", expr]) == 0
    assert capsys.readouterr().out == f"2/{3**5096}*x1 + 1/{2**8192}*x0\n"


def test_cli_intertwine_apply(capsys):
    assert run(["intertwine", "apply", "--map", "ak2", "x2"]) == 0
    assert parse_expr(capsys.readouterr().out.strip()) == x1 + 2 * x2


def test_cli_derive(capsys):
    assert run(["derive", "--op", "dx", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-2"


def test_cli_usage_error():
    assert run(["nonsense"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize(
    "expr", ["(" * 3000 + "x0" + ")" * 3000, "-" * 3000 + "x0"], ids=["parens", "minus"]
)
def test_cli_deep_nesting_is_a_parse_error(capsys, expr):
    assert run(["identity", "verify", "--", expr]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error at line 1, column 101: nesting")
    assert "Traceback" not in err


def test_parse_nesting_limit():
    assert parse_expr("(" * 100 + "x0" + ")" * 100) == x0
    assert parse_expr("-" * 100 + "x0") == x0
    assert parse_expr("-(" * 50 + "x0" + ")" * 50) == x0
    with pytest.raises(ParseError):
        parse_expr("-(" * 50 + "-x0" + ")" * 50)


@pytest.mark.parametrize("which,first", [(1, 2), (2, 2), (3, 1)])
def test_cli_empty_conjecture_sweep_is_a_usage_error(capsys, which, first):
    assert run(["conjecture", str(which), "--max-n", str(first - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _readme_examples():
    """argv of every `kravchuk ...` line in the README's CLI block."""
    with open(TESTS.parent / "README.md") as fh:
        return [
            shlex.split(line, comments=True)[1:]
            for line in fh
            if line.startswith("kravchuk ")
        ]


def test_readme_examples_match_golden(capsys, tmp_path):
    # Every README example must reproduce its recorded stdout and exit code
    # byte for byte; runtime_ms is the only field allowed to vary.
    golden = json.loads((TESTS / "readme_cli_golden.json").read_text())
    examples = _readme_examples()
    assert examples == [g["argv"] for g in golden]
    for g in golden:
        argv = list(g["argv"])
        if "--out" in argv:
            out = tmp_path / "out.json"
            argv[argv.index("--out") + 1] = str(out)
        assert run(argv) == g["exit"], argv
        assert capsys.readouterr().out == g["stdout"], argv
        if "out_records" in g:
            records = json.loads(out.read_text())
            for record in records:
                del record["runtime_ms"]
            assert records == g["out_records"]


def test_sigma_and_cayley_match_golden(capsys):
    # sigma and cayley print the record classes of derivations; their
    # output for k1 and k2 at n = 2, 3, 6, 9 stays byte for byte as recorded
    # when those classes were namedtuples.
    golden = json.loads((TESTS / "sigma_cayley_golden.json").read_text())
    assert len(golden) == 16
    for g in golden:
        assert run(g["argv"]) == g["exit"], g["argv"]
        assert capsys.readouterr().out == g["stdout"], g["argv"]


def _run_module(args, **kwargs):
    """`python -m kravchuk_identities.cli args` on this checkout's package,
    with stdout block-buffered as it is by default."""
    src = Path(kravchuk_identities.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "kravchuk_identities.cli", *args],
        text=True,
        env=env,
        timeout=60,
        **kwargs,
    )


def test_module_entry_point_writes_no_warning():
    proc = _run_module(["poly", "2"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout == "1/2*a^2 - 2*x*a + 2*x^2 - 1/2*a\n"
    assert proc.stderr == ""


def test_module_entry_point_poly_past_the_exponent_limit():
    # K_32768 has an x^32768 term, past its exponent field: exit 2 before any
    # work, not a build without bound.
    proc = _run_module(["poly", "32768"], capture_output=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: exponent limit exceeded")


@pytest.mark.parametrize("n", ["2", "30"], ids=["at-exit-flush", "during-print"])
def test_module_entry_point_closed_stdout_exits_2(n):
    # The reader is gone before the child writes: K_2 fails only at the
    # final flush, K_30 (over 8 KB) already inside print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module(["poly", n], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    # No traceback, no "Exception ignored" at shutdown, no error line.
    assert proc.stderr == ""


def test_module_entry_point_out_of_memory_exits_2():
    # D(x10000) for D_K2 peaks near 280 MB; under a 120 MB address space it
    # runs out of memory, which is an error (exit 2), not "refuted" (exit 1).
    resource = pytest.importorskip("resource")
    limit = 120 * 1024 * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = _run_module(
        ["derivation", "apply", "--kind", "k2", "x10000"],
        capture_output=True,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    # The one error line, no traceback.
    assert proc.stderr == "error: out of memory\n"


def test_module_entry_point_image_past_the_term_limit_exits_2():
    # D_K1(x_n) has ceil(n/2) terms and D_K2(x_n) has n: an image past
    # 10,000 terms is refused before it is built, with one error line (exit
    # 2), where D_K2(x999999999) was built until the process was killed.
    for argv, name, n, terms in (
        (["derivation", "apply", "--kind", "k2", "x999999999"], "D_K2", 999999999, 999999999),
        (["kernel", "check", "--derivation", "k1", "x999999999"], "D_K1", 999999999, 500000000),
        (["derivation", "apply", "--kind", "k2", "x10001"], "D_K2", 10001, 10001),
        (["derivation", "apply", "--kind", "k1", "x20001"], "D_K1", 20001, 10001),
        (["derive", "10001", "--op", "da"], "D_K2", 10001, 10001),
    ):
        proc = _run_module(argv, capture_output=True)
        assert proc.returncode == 2, argv
        assert proc.stdout == "", argv
        assert proc.stderr == (
            f"error: {name}(x{n}) would have {terms} terms, past the limit of 10000\n"
        ), argv


# -- the command line against the argparse oracle ------------------------

MALFORMED = [
    [],
    ["nonsense"],
    ["--", "poly", "3"],
    ["--frob", "poly", "3"],
    ["--help=x"],
    ["poly"],
    ["poly", "3", "4"],
    ["poly", "three"],
    ["poly", "3.0"],
    ["poly", "-"],
    ["poly", "-h3"],
    ["poly", "3", "--format", "pdf"],
    ["poly", "3", "--format"],
    ["poly", "3", "--format=", "json"],
    ["poly", "3", "--frob"],
    ["poly", "3", "--frob=1"],
    ["poly", "3", "---format", "json"],
    ["poly", "3", "--help=x"],
    ["poly", "3", "--", "--format", "json"],
    ["derive", "3"],
    ["derive", "--op", "dy", "3"],
    ["derivation", "apply", "x0"],
    ["derivation", "check", "--kind", "w", "x0"],
    ["kernel", "check", "--derivation", "k3", "x0"],
    ["cayley", "--derivation", "w", "2"],
    ["sigma", "2"],
    ["intertwine", "apply", "--map", "ak3", "x0"],
    ["identity", "verify"],
    ["identity", "verify", "x0", "x1"],
    ["identity", "verify", "x0", "--", "--expect", "a"],
    ["identity", "verify", "--x1+x0"],
    ["conjecture", "4"],
    ["conjecture", "one"],
    ["conjecture", "1", "--max-n", "two"],
    ["conjecture", "1", "--max-n"],
    ["conjecture", "1", "--max-n", "--", "3"],
    ["discriminant-demo", "x"],
]

# Well-formed argv beyond the README and benchmark jobs: every option form,
# and -h/--help wherever it comes before an error.
ACCEPTED = [
    ["poly", "--format=json", "3"],
    ["poly", "--form", "json", "3"],
    ["poly", "3", "--format=json", "--format", "latex"],
    ["poly", "-3"],
    ["poly", "--", "5"],
    ["poly", "5", "--"],
    ["poly", "--format", "json", "--", "3"],
    ["conjecture", "03"],
    ["conjecture", "+1"],
    ["conjecture", "--max-n", "3", "2"],
    ["conjecture", "1", "--max-n=-1"],
    ["conjecture", "1", "--max-n", "-1"],
    ["conjecture", "1", "--out", "-"],
    ["derivation", "--kin", "w", "apply", "x0"],
    ["identity", "--", "verify", "x0"],
    ["identity", "verify", "--", "-x1"],
    ["identity", "verify", "-x1 + 2"],
    ["identity", "verify", "--x1 + x0"],
    ["identity", "verify", "x0", "--exp=a + x"],
    ["identity", "verify", "x0", "--expect="],
    ["identity", "verify", "-1", "--expect", "-1"],
    ["-h"],
    ["--help", "poly"],
    ["--he"],
    ["poly", "-h"],
    ["poly", "3", "--h"],
    ["poly", "--help", "x"],
    ["poly", "3", "4", "--help"],
    ["poly", "3", "--frob", "--help"],
    ["discriminant-demo", "--h"],
]

# The only argv the two parsers read differently: argparse takes a token
# that starts with "-" for an option, so these exit 2 there.
DIFFERENCES = {
    "expect-minus-a": (
        ["identity", "verify", "x0", "--expect", "-a/2"],
        {"command": "identity", "action": "verify", "expr": "x0", "expect": "-a/2"},
    ),
    "expr-and-expect-start-with-minus": (
        ["identity", "verify", "-x1", "--expect", "-a+2*x"],
        {"command": "identity", "action": "verify", "expr": "-x1", "expect": "-a+2*x"},
    ),
    "apply-minus-x1": (
        ["derivation", "apply", "--kind", "w", "-x1"],
        {"command": "derivation", "action": "apply", "kind": "w", "expr": "-x1"},
    ),
    "out-starts-with-minus": (
        ["conjecture", "1", "--out", "-x"],
        {"command": "conjecture", "which": 1, "max_n": None, "format": "text", "out": "-x"},
    ),
    "expect-is-double-dash": (
        ["identity", "verify", "x0", "--expect", "--"],
        {"command": "identity", "action": "verify", "expr": "x0", "expect": "--"},
    ),
    # argparse drops a "--" only as part of some positional's arguments, and
    # this command has none.
    "double-dash-without-positionals": (
        ["discriminant-demo", "--"],
        {"command": "discriminant-demo"},
    ),
}


def _workloads():
    """The benchmark's job definitions, perfbench/workloads.py."""
    path = TESTS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_jobs():
    """Every argv of the benchmark's recorded job pools."""
    module = _workloads()
    return [argv for w in module.WORKLOADS for argv in module.pool_jobs(w)]


def test_benchmark_jobs_match_recorded_outputs():
    """Every benchmark pool job, run in-process, gives the exit code and the
    stdout SHA-256 that perfbench/expected.json recorded for it."""
    job_key = _workloads().job_key
    expected = json.loads((TESTS.parent / "perfbench" / "expected.json").read_text())
    jobs = _benchmark_jobs()
    assert len(jobs) == len(expected)
    for argv in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        record = expected[job_key(argv)]
        assert code == record["exit"], argv[:4]
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == record["sha256"], argv[:4]


def _oracle_outcome(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(_make_argparser().parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"


def _outcome(argv):
    try:
        args = parse_args(argv)
    except ValueError:
        return "error"
    return "help" if isinstance(args, str) else vars(args)


def test_cli_parser_matches_argparse_oracle():
    argvs = _readme_examples() + _benchmark_jobs() + MALFORMED + ACCEPTED
    assert len(argvs) > 100
    for argv in argvs:
        assert _outcome(argv) == _oracle_outcome(argv), argv
    for name, (argv, fields) in DIFFERENCES.items():
        assert _oracle_outcome(argv) == "error", name
        assert _outcome(argv) == fields, name


@pytest.mark.parametrize(
    "argv,out",
    [
        (["identity", "verify", "-x1", "--expect", "-a+2*x"], "verdict: Verified"),
        (["identity", "verify", "x1", "--expect", "-2*x+a"], "verdict: Verified"),
        (["derivation", "apply", "--kind", "w", "-x1"], "-x0"),
    ],
    ids=["expr-and-expect", "expect", "expr"],
)
def test_cli_values_may_start_with_minus(capsys, argv, out):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert out in captured.out.splitlines()
    assert captured.err == ""


@pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: "_".join(argv) or "no-args")
def test_cli_malformed_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: kravchuk")
    assert "\nkravchuk: error: " in captured.err


def _oracle_command_help():
    """(name, help) of every command, from the argparse oracle."""
    (sub,) = _make_argparser()._subparsers._group_actions
    return [(action.dest, action.help) for action in sub._choices_actions]


def test_cli_help_lists_every_command(capsys):
    commands = _oracle_command_help()
    assert len(commands) == 10
    for argv in (["--help"], ["-h"]):
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for name, text in commands:
            assert f"  {name} " in captured.out
            assert text in captured.out
    for name, text in commands:
        assert run([name, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: kravchuk {name} [-h]")
        assert text in captured.out
        assert captured.err == ""


# Runs in a fresh interpreter: these modules are imported once per process.
_COLD_RUN = """
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
before = set(sys.modules)
import kravchuk_identities.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in argvs]
print(json.dumps({"codes": codes, "added": sorted(set(sys.modules) - before),
                  "commands": list(cli._COMMANDS)}))
"""

_EXPR = "x1^2 - 2*x0*x2"  # phi_K of it is a
# (argv, exit code): every command of the table, each output format, and
# identity verify with a verified, a refuted and a proportional --expect.
_COLD_ARGVS = [
    (["poly", "3"], 0),
    (["conjecture", "1", "--max-n", "2"], 1),  # refuted
    (["conjecture", "3", "--max-n", "2", "--format", "json"], 1),  # refuted
    (["derivation", "apply", "--kind", "k2", "x3*x1 - x2^2"], 0),
    (["discriminant-demo"], 0),
    (["poly", "3", "--format", "latex"], 0),
    (["poly", "3", "--format", "json"], 0),
    (["derive", "3", "--op", "dx"], 0),
    (["derive", "3", "--op", "da"], 0),
    (["kernel", "check", "--derivation", "w", "x0*x2 - x1^2"], 0),
    (["intertwine", "apply", "--map", "ak1", _EXPR], 0),
    *((["cayley", "4", "--derivation", d], 0) for d in ("k1", "k2")),
    *((["sigma", "4", "--derivation", d], 0) for d in ("k1", "k2")),
    (["identity", "verify", _EXPR, "--expect", "a"], 0),
    (["identity", "verify", _EXPR, "--expect", "x"], 1),
    (["identity", "verify", _EXPR, "--expect", "3*a"], 1),  # ratio 1/3
    *(
        (["conjecture", which, "--max-n", "4" if which != "3" else "2", "--format", fmt],
         0 if which == "2" else 1)
        for which in ("1", "2", "3")
        for fmt in ("text", "latex", "json")
    ),
    (["--help"], 0),
]


def test_cli_cold_run_imports_no_argparse_gettext_or_locale():
    src = Path(kravchuk_identities.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, json.dumps([argv for argv, _ in _COLD_ARGVS])],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in _COLD_ARGVS]
    assert {argv[0] for argv, _ in _COLD_ARGVS} == {*result["commands"], "--help"}
    assert not {"argparse", "gettext", "locale"} & set(result["added"])
    # Coefficients are ints on every command path: fractions, and the
    # decimal and numbers modules it imports, stay unloaded.
    assert not {"fractions", "decimal", "numbers"} & set(result["added"])
    # The runtime is standard library only.
    assert {name.partition(".")[0] for name in result["added"]} <= set(
        sys.stdlib_module_names
    ) | {"kravchuk_identities"}
    # The record classes are tuple subclasses and a SimpleNamespace, not
    # dataclasses, which import inspect.
    assert not {"dataclasses", "inspect"} & set(result["added"])


# Runs in a fresh interpreter: every module-level value of the package, read
# as its size (an lru_cache's currsize, a container's len) or else as the
# object it is bound to, before and after one job of every command and a
# conjecture-3 sweep cut short; prints the names whose reading changed.
_MODULE_STATE = """
import contextlib, io, json, sys
import kravchuk_identities.cli as cli
from kravchuk_identities import cli, identities

def state():
    readings = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "kravchuk_identities":
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if hasattr(value, "cache_info"):
                reading = value.cache_info().currsize
            elif isinstance(value, (list, dict, set, bytearray)):
                reading = len(value)
            else:
                reading = id(value)
            readings[f"{name}.{attr}"] = reading
    return readings

before = state()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
    sigma_entry = identities._sigma_entry

    def interrupted_sigma_entry(sigma, alpha, beta, k, l):
        if k == l == 3:
            raise RuntimeError("interrupted")
        return sigma_entry(sigma, alpha, beta, k, l)

    identities._sigma_entry = interrupted_sigma_entry
    try:
        cli.run(["conjecture", "3", "--max-n", "4"])
    except RuntimeError:
        codes.append("interrupted")
    identities._sigma_entry = sigma_entry
after = state()
changed = sorted(k for k in after if before.get(k) != after[k])
print(json.dumps({"codes": codes, "changed": changed}))
"""

# The module state that may grow, each with the reason it is kept.
_ALLOWED_MODULE_STATE = {
    # The slot registry: only ever appended to, so that a packed key stays
    # valid for the life of the process; GUARD gains a bit per slot.
    "kravchuk_identities.poly._CODES",
    "kravchuk_identities.poly._SLOTS",
    "kravchuk_identities.poly._NAMES",
    "kravchuk_identities.poly._LATEX_NAMES",
    "kravchuk_identities.poly.GUARD",
    # Each variable token's packed key, which mirrors the slot registry.
    "kravchuk_identities.cli._VARS",
    # K_n's cache, which the benchmark tracer reads (ROADMAP item 6).
    "kravchuk_identities.kravchuk.kravchuk",
    # The Stirling caches, which only the tests and the tracer call.
    "kravchuk_identities.arith._stirling",
    "kravchuk_identities.arith.s_upper",
}


def test_cli_commands_leave_no_module_state():
    # Each recurrence (the rows of n! K_n, the psi rows, the generator
    # images of a derivation) is stepped by the call that sweeps it and
    # held as its local, so no command, not even a sweep cut short, leaves
    # any of it behind in the package's modules.
    src = Path(kravchuk_identities.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_STATE, json.dumps([argv for argv, _ in _COLD_ARGVS])],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in _COLD_ARGVS] + ["interrupted"]
    assert set(result["changed"]) <= _ALLOWED_MODULE_STATE


# The standard-library modules that the package's sources import.  In an
# interpreter whose site has not loaded them already, bisect and math come
# with none of the others, so a bare import re is not the baseline.
_STDLIB_IMPORTS = "bisect, functools, itertools, math, operator, os, re, sys, time, types"

# Runs in a fresh interpreter: the CLI's import adds only the package's own
# modules to those, and json comes only with --format json.
_IMPORT_SURFACE = """
import io, sys
import {stdlib}
stdlib = set(sys.modules)
import kravchuk_identities.cli as cli
added = sorted(set(sys.modules) - stdlib)
sys.stdout = io.StringIO()
codes = [cli.run(argv) for argv in {text_argvs!r}]
json_after_text = "json" in sys.modules
codes.append(cli.run({json_argv!r}))
json_after_json = "json" in sys.modules
sys.stdout = sys.__stdout__
import json
print(json.dumps({{"added": added, "codes": codes, "json_after_text": json_after_text,
                  "json_after_json": json_after_json}}))
"""


@pytest.mark.parametrize(
    "json_argv, json_code",
    [
        (["poly", "3", "--format", "json"], 0),
        (["conjecture", "3", "--max-n", "2", "--format", "json"], 1),  # refuted
    ],
    ids=["render", "report"],
)
def test_cli_import_loads_only_the_package_and_json_only_for_json_output(json_argv, json_code):
    text = [(argv, code) for argv, code in _COLD_ARGVS if "json" not in argv]
    script = _IMPORT_SURFACE.format(
        stdlib=_STDLIB_IMPORTS, text_argvs=[argv for argv, _ in text], json_argv=json_argv
    )
    src = Path(kravchuk_identities.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert "kravchuk_identities.cli" in result["added"]
    assert {name.partition(".")[0] for name in result["added"]} == {"kravchuk_identities"}
    assert result["codes"] == [code for _, code in text] + [json_code]
    assert not result["json_after_text"]
    assert result["json_after_json"]


# Runs in a fresh interpreter: every compiled pattern that the package's
# modules hold at import.
_PATTERNS = """
import re, sys
import kravchuk_identities.cli
print(*sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
              if name.partition(".")[0] == "kravchuk_identities"
              for attr, value in vars(module).items() if isinstance(value, re.Pattern)))
"""


def test_cli_import_compiles_one_pattern():
    # Compiling one more pattern at import took 250-420 us in a fresh
    # interpreter (Python 3.11.7), against about 1.7 ms for the whole import
    # of the CLI: plain sums are read without one, and _Parser tokenizes
    # with _TOKEN alone.
    src = Path(kravchuk_identities.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _PATTERNS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["kravchuk_identities.cli._TOKEN"]
