"""The benchmark's tracer wraps package functions by name; every name it
lists must exist, so a rename fails here rather than in a traced run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for modname, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(f"kravchuk_identities.{modname}")
        if "." in attr:
            # methods are wrapped through the class __dict__
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


# Runs in a fresh interpreter: install patches Polynomial for the rest of
# the process.  Prints the three exit codes and the traced counters.
_TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import kravchuk_identities, kravchuk_identities.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.install(kravchuk_identities)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [kravchuk_identities.cli.run(argv) for argv in
             (["conjecture", "3", "--max-n", "2"], ["poly", "8"], ["discriminant-demo"])]
print(json.dumps({"codes": codes, "counts": t.summary()["counts"]}))
"""


def test_tracer_reads_polynomial_internals():
    """The tracer sizes terms and coefficients from Polynomial._terms; a
    renamed attribute or a non-numeric coefficient fails here."""
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(TRACER)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == [1, 0, 0]
    counts = result["counts"]
    for name in (
        "poly.mul.term_products",
        "identities.phi_k.terms_out",
        "poly.coeff_bits_max",
    ):
        assert counts[name] > 0, name
