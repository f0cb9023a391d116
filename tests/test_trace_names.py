"""The benchmark's tracer wraps package functions by name; every name it
lists must exist, so a rename fails here rather than in a traced run."""

import importlib
import importlib.util
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
