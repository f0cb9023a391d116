"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation: the argv passed to ``kravchuk_identities.cli.run``.
A workload is a *round*: a fixed list of job slots whose sizes (``n``,
``--max-n``, term counts) and expressions never change, so that every seed's
round costs the same and two seeds' metrics compare.  The run seed picks the
order of the round, the output formats of ``poly`` (balanced over the three)
and the order of the terms inside every expression.  Reordering the terms
gives another argv for the same polynomial, so the expected output is the one
recorded for the expression in its generated order (see ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import random

POOL_SEED = 1210_6139

# Percentile of the round's job times reported as ``job_s.tail``.  Each is
# the highest multiple of 5 that leaves at least ten job runs beyond it with
# the rounds one run completes at the commit that defined the benchmark
# (run.py prints the count).  It is fixed, so that a faster program, which
# completes more rounds, does not move the tail to another rank.
TAIL_PCT = {"conjecture-sweep": 90, "cli-mix": 95, "big-expr": 80}

WORKLOADS = tuple(TAIL_PCT)

FORMATS = ("text", "latex", "json")
CLI_MIX_SIZES = (4, 9, 14)  # n for derive, cayley and sigma
CLI_MIX_EXPR_COMMANDS = (
    ("kernel", "check", "--derivation", "w"),
    ("kernel", "check", "--derivation", "k1"),
    ("kernel", "check", "--derivation", "k2"),
    ("derivation", "apply", "--kind", "w"),
    ("derivation", "apply", "--kind", "k1"),
    ("derivation", "apply", "--kind", "k2"),
    ("intertwine", "apply", "--map", "ak1"),
    ("intertwine", "apply", "--map", "ak2"),
    ("identity", "verify"),
)
CLI_MIX_EXPR_REPEATS = 4

# big-expr slots: (argv prefix, term count).  Six mid-size jobs cover every
# derivation kind with both commands; w apply on 2000 terms adds the largest
# accumulation and render.  (k2 apply on 2000 terms takes over 3 s alone,
# which leaves too few rounds per run for a steady median.)
BIG_EXPR_SLOTS = (
    (("derivation", "apply", "--kind", "w"), 800),
    (("kernel", "check", "--derivation", "w"), 700),
    (("derivation", "apply", "--kind", "k1"), 600),
    (("kernel", "check", "--derivation", "k1"), 500),
    (("derivation", "apply", "--kind", "k2"), 500),
    (("kernel", "check", "--derivation", "k2"), 600),
    (("derivation", "apply", "--kind", "w"), 2000),
)


def random_terms(rng: random.Random, nterms: int, ngen: int, max_exp: int) -> list:
    """``nterms`` signed terms c*m: m a product of 1-3 generators from
    x0..x{ngen-1} with exponents 1..max_exp, c = p/q with p <= 9, q <= 4."""
    terms = []
    for _ in range(nterms):
        factors = []
        for _ in range(rng.randint(1, 3)):
            v, e = rng.randrange(ngen), rng.randint(1, max_exp)
            factors.append(f"x{v}^{e}" if e > 1 else f"x{v}")
        p, q = rng.randint(1, 9), rng.randint(1, 4)
        coeff = f"{p}/{q}" if q > 1 else str(p)
        terms.append((rng.random() < 0.5, f"{coeff}*{'*'.join(factors)}"))
    return terms


def join_terms(terms: list) -> str:
    """The sum as CLI text.  It starts with a positive term (or 0), because
    argparse would read a leading "-" as an option."""
    first = next((i for i, (negative, _) in enumerate(terms) if not negative), None)
    if first is None:
        head, rest = "0", terms
    else:
        head, rest = terms[first][1], terms[:first] + terms[first + 1 :]
    return head + "".join(f" {'-' if negative else '+'} {body}" for negative, body in rest)


def _expr_jobs(workload: str) -> list:
    """(argv prefix, terms) of every expression slot, in generated order."""
    out = []
    if workload == "cli-mix":
        commands = CLI_MIX_EXPR_COMMANDS * CLI_MIX_EXPR_REPEATS
        for i, prefix in enumerate(commands):
            rng = random.Random(f"{POOL_SEED}/cli-mix/{i}")
            out.append((prefix, random_terms(rng, rng.randint(1, 10), 8, 1)))
    elif workload == "big-expr":
        for i, (prefix, nterms) in enumerate(BIG_EXPR_SLOTS):
            rng = random.Random(f"{POOL_SEED}/big-expr/{i}")
            out.append((prefix, random_terms(rng, nterms, 12, 3)))
    return out


def _fixed_jobs(workload: str, offset: int) -> list:
    """The jobs without expressions; ``offset`` rotates the poly formats."""
    if workload == "conjecture-sweep":
        # One max-n 4 sweep (about 85% of the round's time), eight max-n 3
        # sweeps (the median and tail jobs) and three discriminant chains.
        return (
            [["conjecture", "3", "--max-n", "4"]]
            + [["conjecture", "3", "--max-n", "3"]] * 8
            + [["discriminant-demo"]] * 3
        )
    if workload == "big-expr":
        return []
    jobs = [["poly", str(n), "--format", FORMATS[(n + offset) % 3]] for n in range(8, 25)]
    for n in CLI_MIX_SIZES:
        jobs += [["derive", "--op", op, str(n)] for op in ("dx", "da")]
        jobs += [[cmd, "--derivation", d, str(n)] for cmd in ("cayley", "sigma") for d in ("k1", "k2")]
    jobs += [["conjecture", which, "--max-n", str(n)] for which in ("1", "2") for n in (8, 12)]
    return jobs


def round_jobs(workload: str, seed: int) -> list:
    """The seeded round of ``workload``: (argv, expected-output key) pairs."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = [(argv, job_key(argv)) for argv in _fixed_jobs(workload, rng.randrange(3))]
    for prefix, terms in _expr_jobs(workload):
        shuffled = list(terms)
        rng.shuffle(shuffled)
        reference = list(prefix) + [join_terms(terms)]
        jobs.append((list(prefix) + [join_terms(shuffled)], job_key(reference)))
    rng.shuffle(jobs)
    return jobs


def pool_jobs(workload: str) -> list:
    """Every job whose output is recorded, as an argv (for record.py)."""
    jobs = {job_key(argv): argv for offset in range(3) for argv in _fixed_jobs(workload, offset)}
    expr_jobs = [list(prefix) + [join_terms(terms)] for prefix, terms in _expr_jobs(workload)]
    return list(jobs.values()) + expr_jobs


def job_key(argv: list) -> str:
    """Key of a job in expected.json: SHA-256 of its argv, as JSON."""
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()


def job_list_digest(jobs: list) -> str:
    """SHA-256 of a round's argv list, echoed so two seeds' lists compare."""
    return hashlib.sha256(json.dumps([argv for argv, _ in jobs]).encode()).hexdigest()
