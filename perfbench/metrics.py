"""Metric definitions: what each one measures and what it should move.

End-to-end metrics come from untraced runs; per-layer metrics from traced
runs (``--trace 1``), per round of the seeded job list, so that counts from
two traced runs of one seed compare exactly.  ``moves`` records, for every
per-layer metric, which end-to-end metric it should move on which workload;
later performance work cites these names.
"""

from __future__ import annotations

import statistics
from collections import Counter

import hostspeed

# name, unit, better
END_TO_END = (
    ("job_s.p50", "s", "lower"),  # median job time, corrected for host speed
    ("job_s.tail", "s", "lower"),  # fixed percentile per workload (TAIL_PCT)
    ("jobs_per_s", "1/s", "higher"),  # correct jobs / summed job wall time
    ("setup_s", "s", "lower"),  # fresh interpreter: import kravchuk_identities.cli
    ("peak_rss_mb", "MB", "lower"),  # largest ru_maxrss of the run's job processes
)
# fail_ratio (failed / attempted jobs) is printed too, but it is 0 at a
# correct commit, so it travels as the result's "failed"/"attempted" pair.

# name, unit, better, moves (end-to-end metric on workload it should move)
PER_LAYER = (
    ("poly.mul.calls", "count", "lower", "jobs_per_s, job_s.tail on conjecture-sweep; flat on big-expr"),
    ("poly.mul.self_s", "s", "lower", "jobs_per_s, job_s.tail on conjecture-sweep; flat on big-expr"),
    ("poly.mul.term_products", "count", "lower", "jobs_per_s, job_s.tail on conjecture-sweep"),
    ("poly.mul.out_per_product", "ratio", "higher", "jobs_per_s on conjecture-sweep (wasted products)"),
    ("poly.add.calls", "count", "lower", "jobs_per_s, job_s.p50 on big-expr; flat on conjecture-sweep"),
    ("poly.add.self_s", "s", "lower", "jobs_per_s, job_s.p50 on big-expr; flat on conjecture-sweep"),
    ("poly.add.terms_copied", "count", "lower", "jobs_per_s, job_s.p50 on big-expr"),
    ("poly.pow.s", "s", "lower", "jobs_per_s on conjecture-sweep"),
    ("poly.substitute.s", "s", "lower", "jobs_per_s on conjecture-sweep"),
    ("poly.substitute.self_s", "s", "lower", "jobs_per_s on conjecture-sweep"),
    ("poly.determinant.s", "s", "lower", "under 1% of conjecture-sweep: no-regression only"),
    ("poly.exact_div.s", "s", "lower", "under 1% of conjecture-sweep: no-regression only"),
    ("poly.render.s", "s", "lower", "job_s.p50 on big-expr and cli-mix"),
    ("poly.render.terms", "count", "lower", "job_s.p50 on big-expr and cli-mix"),
    ("poly.coeff_bits_max", "bits", "lower", "peak_rss_mb, jobs_per_s on conjecture-sweep"),
    ("kravchuk.kravchuk.s", "s", "lower", "jobs_per_s, job_s.tail on cli-mix; flat on conjecture-sweep"),
    ("kravchuk.kravchuk.misses", "count", "lower", "jobs_per_s, job_s.tail on cli-mix"),
    ("kravchuk.kravchuk.hit_ratio", "ratio", "higher", "jobs_per_s on cli-mix"),
    ("kravchuk.max_n", "count", "lower", "job_s.tail on cli-mix"),
    ("kravchuk.expansion.s", "s", "lower", "jobs_per_s on cli-mix"),
    ("identities.phi_k.calls", "count", "lower", "job_s.tail, jobs_per_s on conjecture-sweep"),
    ("identities.phi_k.s", "s", "lower", "job_s.tail, jobs_per_s on conjecture-sweep"),
    ("identities.phi_k.terms_in", "count", "lower", "jobs_per_s on conjecture-sweep; flat on cli-mix"),
    ("identities.phi_k.terms_out", "count", "lower", "jobs_per_s on conjecture-sweep"),
    ("identities.verifier.self_s", "s", "lower", "jobs_per_s on conjecture-sweep and cli-mix"),
    ("intertwine.apply_psi.s", "s", "lower", "jobs_per_s on conjecture-sweep (about 2%)"),
    ("intertwine.apply_psi.terms_out", "count", "lower", "jobs_per_s on conjecture-sweep"),
    ("intertwine.build_psi.s", "s", "lower", "jobs_per_s on conjecture-sweep (about 2%)"),
    ("derivations.apply.calls", "count", "lower", "jobs_per_s, job_s.p50 on big-expr"),
    ("derivations.apply.s", "s", "lower", "jobs_per_s, job_s.p50 on big-expr"),
    ("derivations.apply.self_s", "s", "lower", "jobs_per_s on big-expr"),
    ("derivations.dixmier_sigma.s", "s", "lower", "job_s.p50 on cli-mix (sigma, cayley)"),
    ("derivations.cayley.s", "s", "lower", "job_s.p50 on cli-mix (cayley)"),
    ("cli.run.s", "s", "lower", "all job time under tracing: the share denominator"),
    ("cli.run.self_s", "s", "lower", "job_s.p50 on cli-mix"),
    ("cli.parse_expr.calls", "count", "lower", "job_s.p50 on big-expr and cli-mix"),
    ("cli.parse_expr.s", "s", "lower", "job_s.p50 on big-expr and cli-mix"),
    ("cli.parse_expr.chars", "count", "lower", "job_s.p50 on big-expr"),
    ("arith.calls", "count", "lower", "small on every workload"),
    ("arith.s", "s", "lower", "small on every workload"),
    ("series.calls", "count", "lower", "0 on every workload: series is a test oracle only"),
    ("trace_overhead_ratio", "ratio", "higher", "traced jobs_per_s / untraced jobs_per_s"),
)

_MAX_COUNTS = ("kravchuk.max_n", "poly.coeff_bits_max")


def corrected_seconds(samples, corrected: bool = True) -> list:
    """Each sample's seconds, scaled by the host's speed at the time.

    A sample is a dict with ``seconds`` and ``probe_s``, the host probe times
    taken right before, during and after it in the same process
    (hostspeed.py).  The scale is ``hostspeed.REFERENCE_S`` over their mean:
    a job that
    ran while the probe took 1.6 times its reference time counts 1/1.6 of its
    wall time.  The probe uses nothing from the package, so a slower program
    still reads slower.  A sample without probes (a killed job) keeps its
    wall time."""
    out = []
    for sample in samples:
        seconds = sample["seconds"]
        if corrected and sample.get("probe_s"):
            seconds *= hostspeed.REFERENCE_S / statistics.fmean(sample["probe_s"])
        out.append(seconds)
    return out


def end_to_end(runs, keys: list, rss_kb, setup, tail_pct: int, corrected: bool = True) -> tuple:
    """The end-to-end metrics and the number of job runs beyond the tail.

    The run repeats the round (``keys``, one per job).  Each job counts with
    its median time over the run's rounds, each time corrected for the host's
    speed (``corrected_seconds``); the import samples of ``setup`` likewise.
    The round's jobs, each at its median, give the median, the tail and the
    throughput.  A job with a failed run counts as failed."""
    timed = [run for run in runs if run["seconds"] is not None]
    by_key, failed = {}, set()
    for run, seconds in zip(timed, corrected_seconds(timed, corrected)):
        by_key.setdefault(run["key"], []).append(seconds)
    for run in runs:
        if run["why"]:
            failed.add(run["key"])
    per_job = {key: statistics.median(values) for key, values in by_key.items()}
    times = [per_job[key] for key in keys if key in per_job]
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_pct - 1]
    metrics = {
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "jobs_per_s": sum(1 for key in keys if key not in failed) / sum(times),
        "setup_s": statistics.median(corrected_seconds(setup, corrected)),
        "peak_rss_mb": max(rss_kb) / 1024,
    }
    beyond = sum(1 for seconds in corrected_seconds(timed, corrected) if seconds > tail)
    return metrics, beyond


class LayerTotals:
    """Sums of the per-job trace summaries of a traced run."""

    def __init__(self):
        self.calls, self.s, self.self_s = Counter(), Counter(), Counter()
        self.layer_s, self.counts = Counter(), Counter()

    def add(self, summary: dict):
        self.calls.update(summary["calls"])
        self.s.update(summary["s"])
        self.self_s.update(summary["self_s"])
        self.layer_s.update(summary["layer_s"])
        for key, value in summary["counts"].items():
            if key in _MAX_COUNTS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def per_round(self, rounds: int, plain_s: float, traced_s: float) -> dict:
        def each(value):
            # Exact counts stay integers when every round did the same work.
            if isinstance(value, int) and value % rounds == 0:
                return value // rounds
            return value / rounds

        calls, s, self_s, counts = self.calls, self.s, self.self_s, self.counts
        products = counts["poly.mul.term_products"]
        lookups = counts["kravchuk.kravchuk.hits"] + counts["kravchuk.kravchuk.misses"]
        out = {}
        for name in ("poly.mul", "poly.add", "identities.phi_k", "derivations.apply", "cli.parse_expr"):
            out[f"{name}.calls"] = each(calls[name])
        for name in (
            "poly.pow", "poly.substitute", "poly.determinant", "poly.exact_div", "poly.render",
            "kravchuk.kravchuk", "kravchuk.expansion", "identities.phi_k", "intertwine.apply_psi",
            "intertwine.build_psi", "derivations.apply", "derivations.dixmier_sigma",
            "derivations.cayley", "cli.run", "cli.parse_expr",
        ):
            out[f"{name}.s"] = each(s[name])
        for name in ("poly.mul", "poly.add", "poly.substitute", "identities.verifier", "derivations.apply", "cli.run"):
            out[f"{name}.self_s"] = each(self_s[name])
        for key in (
            "poly.mul.term_products", "poly.add.terms_copied", "poly.render.terms",
            "kravchuk.kravchuk.misses", "identities.phi_k.terms_in", "identities.phi_k.terms_out",
            "intertwine.apply_psi.terms_out", "cli.parse_expr.chars",
        ):
            out[key] = each(counts[key])
        out["poly.mul.out_per_product"] = counts["poly.mul.out_terms"] / products if products else 0.0
        out["poly.coeff_bits_max"] = counts["poly.coeff_bits_max"]
        out["kravchuk.max_n"] = counts["kravchuk.max_n"]
        out["kravchuk.kravchuk.hit_ratio"] = counts["kravchuk.kravchuk.hits"] / lookups if lookups else 0.0
        out["arith.calls"] = each(sum(v for k, v in calls.items() if k.startswith("arith.")))
        out["arith.s"] = each(self.layer_s["arith"])
        out["series.calls"] = each(sum(v for k, v in calls.items() if k.startswith("series.")))
        out["trace_overhead_ratio"] = plain_s / traced_s
        return {name: out[name] for name, *_ in PER_LAYER}
