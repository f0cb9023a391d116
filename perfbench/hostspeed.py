"""Host speed probe: a fixed pure-Python computation, timed.

The benchmark's host is shared: the same job runs up to twice as slowly from
one second to the next, and a slow spell can last a whole run.  ``probe``
times a fixed piece of work of the same kind as the package's (dict copies
keyed by exponent tuples, ``Fraction`` sums, integer loops) and uses nothing
from the package, so its time moves with the host and never with the
program.  The benchmark probes in the job's process right before and right
after each timed job and every ``PROBE_EVERY_S`` while it runs, and reports
the job's time scaled by ``REFERENCE_S`` over the mean of its probes (see
``metrics.corrected_seconds``): the seconds the job would take on a host on
which the probe takes ``REFERENCE_S``.

The cyclic garbage collector is off while probing, so that the probe's time
does not depend on how many objects the job left alive.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# About the probe's fastest time on the 2-core Intel Xeon host (Python 3.11)
# the benchmark was defined on.  Corrected times are in seconds of a host on
# which the probe takes this long.  Only comparisons of corrected times at the
# same REFERENCE_S mean anything; never change it between two measurements.
REFERENCE_S = 0.0065

# A multi-second job outlasts the host's speed spells, so the probes at its
# ends alone do not tell its average speed.
PROBE_EVERY_S = 0.25


def _work() -> Fraction:
    terms = {((i % 12, 1 + i % 3), (i % 5, 1)): Fraction(1 + i % 9, 1 + i % 4) for i in range(240)}
    total = Fraction(0)
    for step in range(40):
        terms = dict(terms)
        terms[((step, 2),)] = Fraction(step + 1, 3)
        total += sum(terms.values()) / (step + 1)
    n = 0
    for i in range(50000):
        n += i * i
    return total + n


def probe() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@contextmanager
def sampling(probes: list):
    """Append a probe's time to ``probes`` every ``PROBE_EVERY_S`` of wall time
    while the block runs, from a SIGALRM handler.  The caller subtracts their
    sum from the time it measured around the block."""

    def on_alarm(signum, frame):
        probes.append(probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
