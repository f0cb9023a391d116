import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kravchuk_identities
from kravchuk_identities.cli import ParseError, parse_expr, render, run
from kravchuk_identities.poly import A, X, Polynomial, render_text, xvar

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


def test_parse_errors():
    for bad in ("x1^-2", "2x1", "x1 +", "(x1", "x1^x0", "1/0", "x1^(2)", "y"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 + $")
    assert exc.value.col == 6


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


def test_cli_parse_error_exit_code(capsys):
    assert run(["kernel", "check", "--derivation", "k1", "x1^-2"]) == 2
    assert "parse error" in capsys.readouterr().err


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
