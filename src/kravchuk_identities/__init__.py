"""Exact computer algebra for Kravchuk polynomials and their derivations."""

from . import arith, derivations, identities, intertwine, kravchuk, poly, series

__all__ = [
    "arith",
    "derivations",
    "identities",
    "intertwine",
    "kravchuk",
    "poly",
    "series",
]
