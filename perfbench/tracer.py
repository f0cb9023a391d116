"""Span tracer for one traced job, installed from outside the package.

``install`` replaces the public functions of every layer module (and the
``Polynomial`` operators) with wrappers that record a span per call: name,
start, end and the index of the enclosing span.  Because the package binds
many names with ``from .x import y``, every module namespace that holds the
original function gets the wrapper.  Counters are updated at the same
boundaries.  The tracer lives only in the forked job process, so the job
server and untraced jobs never see it.

Span names are ``<layer>.<metric>``; the layer is the package module.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("arith", "poly", "series", "kravchuk", "derivations", "intertwine", "identities", "cli")

# (module, attribute or Class.method, span name).  Names shared by several
# functions are summed under that name.
WRAPPED = (
    ("poly", "Polynomial.__mul__", "poly.mul"),
    ("poly", "Polynomial.__rmul__", "poly.mul"),
    ("poly", "Polynomial.__add__", "poly.add"),
    ("poly", "Polynomial.__radd__", "poly.add"),
    ("poly", "Polynomial.__pow__", "poly.pow"),
    ("poly", "Polynomial.substitute", "poly.substitute"),
    ("poly", "determinant", "poly.determinant"),
    ("poly", "exact_div", "poly.exact_div"),
    ("poly", "render_text", "poly.render"),
    ("poly", "render_latex", "poly.render"),
    ("poly", "to_json_terms", "poly.render"),
    ("kravchuk", "kravchuk", "kravchuk.kravchuk"),
    ("kravchuk", "dKdx_expansion", "kravchuk.expansion"),
    ("kravchuk", "dKda_expansion", "kravchuk.expansion"),
    ("identities", "phi_k", "identities.phi_k"),
    ("identities", "classify", "identities.verifier"),
    ("identities", "conjecture1", "identities.verifier"),
    ("identities", "conjecture2", "identities.verifier"),
    ("identities", "conjecture3", "identities.verifier"),
    ("identities", "discriminant_identity", "identities.verifier"),
    ("intertwine", "apply_psi", "intertwine.apply_psi"),
    ("intertwine", "build_psi", "intertwine.build_psi"),
    ("derivations", "apply", "derivations.apply"),
    ("derivations", "dixmier_sigma", "derivations.dixmier_sigma"),
    ("derivations", "cayley_k1", "derivations.cayley"),
    ("derivations", "cayley_k2", "derivations.cayley"),
    ("cli", "run", "cli.run"),
    ("cli", "parse_expr", "cli.parse_expr"),
    ("arith", "binomial", "arith.binomial"),
    ("arith", "stirling_first", "arith.stirling"),
    ("arith", "stirling_second", "arith.stirling"),
    ("arith", "s_upper", "arith.s_upper"),
    ("arith", "double_factorial", "arith.double_factorial"),
    ("series", "TruncatedSeries.__init__", "series.series"),
    ("series", "zed", "series.series"),
    ("series", "log1p", "series.series"),
    ("series", "exp_series", "series.series"),
    ("series", "compose", "series.series"),
    ("series", "log_ratio", "series.series"),
    ("series", "kravchuk_genfun", "series.series"),
)

# Layers whose return values are checked for coefficient size.
_COEFF_LAYERS = ("kravchuk", "identities", "intertwine")


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.Polynomial = package.poly.Polynomial
        self.spans = []  # [name, start, end, parent index, outer for name, outer for layer]
        self.stack = []
        self.active = defaultdict(int)  # open spans per name and per layer
        self.counts = defaultdict(int)
        self.coeff_bits_max = 0
        self._kravchuk_seen = set()  # K_n is cached: size each n once
        self.kravchuk_cache = package.kravchuk.kravchuk

    # -- counters kept at the boundaries --------------------------------

    def _terms(self, p) -> int:
        return len(p._terms) if isinstance(p, self.Polynomial) else 0

    def _coeff_bits(self, value):
        """Largest numerator/denominator bit length in a returned value."""
        if isinstance(value, self.Polynomial):
            for c in value._terms.values():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits
        elif isinstance(value, (tuple, list)):
            for v in value:
                self._coeff_bits(v)
        elif value is not None:
            for attr in ("image", "expected", "images"):
                self._coeff_bits(getattr(value, attr, None))

    def _count(self, name, args, result):
        c = self.counts
        if name == "poly.mul":
            a, b = args
            if isinstance(b, self.Polynomial):
                c["poly.mul.term_products"] += len(a._terms) * len(b._terms)
                c["poly.mul.out_terms"] += len(result._terms)
        elif name == "poly.add":
            c["poly.add.terms_copied"] += len(args[0]._terms)
        elif name == "poly.render":
            c["poly.render.terms"] += self._terms(args[0])
        elif name == "identities.phi_k":
            c["identities.phi_k.terms_in"] += self._terms(args[0])
            c["identities.phi_k.terms_out"] += self._terms(result)
        elif name == "intertwine.apply_psi":
            c["intertwine.apply_psi.terms_out"] += self._terms(result)
        elif name == "cli.parse_expr":
            c["cli.parse_expr.chars"] += len(args[0])
        elif name == "kravchuk.kravchuk":
            c["kravchuk.max_n"] = max(c["kravchuk.max_n"], args[0])
            if args[0] in self._kravchuk_seen:
                return
            self._kravchuk_seen.add(args[0])
        if name.split(".", 1)[0] in _COEFF_LAYERS:
            self._coeff_bits(result)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        active, count = self.active, self._count
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            # A span is outermost for its name (or layer) when no enclosing
            # span has that name (or layer); inclusive times sum only those.
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, not active[name], not active[layer]]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            active[layer] += 1
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
            count(name, args, result)
            return result

        return traced

    def install(self):
        modules = [getattr(self.pkg, m) for m in LAYERS]
        for modname, attr, name in WRAPPED:
            mod = getattr(self.pkg, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive time (outermost spans of a name only,
        so recursion is not counted twice) and self time, per-layer
        inclusive time, plus the counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_s = defaultdict(float)
        for i, (name, start, end, _, name_outer, layer_outer) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name_outer:
                incl[name] += end - start
            if layer_outer:
                layer_s[name.split(".", 1)[0]] += end - start
        info = self.kravchuk_cache.cache_info()
        counts = dict(self.counts)
        counts["kravchuk.kravchuk.hits"] = info.hits
        counts["kravchuk.kravchuk.misses"] = info.misses
        counts["poly.coeff_bits_max"] = self.coeff_bits_max
        return {
            "calls": dict(calls),
            "s": dict(incl),
            "self_s": dict(self_s),
            "layer_s": dict(layer_s),
            "counts": counts,
        }


def install(package) -> Tracer:
    tracer = Tracer(package)
    tracer.install()
    return tracer
