"""Exact computer algebra for Kravchuk polynomials and their derivations."""

from . import arith, derivations, identities, intertwine, kravchuk, poly

__all__ = [
    "arith",
    "derivations",
    "identities",
    "intertwine",
    "kravchuk",
    "poly",
    "series",
]


def __getattr__(name: str):
    """Load series, the power-series oracle of the tests, on first access:
    it imports fractions, which no command needs (PEP 562)."""
    if name == "series":
        from importlib import import_module

        return import_module(f"{__name__}.series")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
