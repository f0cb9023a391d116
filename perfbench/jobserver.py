"""Job server: imports the package once, then runs each job in a forked child.

    python3 -E -s perfbench/jobserver.py SRC_DIR

Reads one JSON request per line on stdin:
    {"argv": [...], "trace": false, "limit": 30.0, "stdout": false}
and writes one JSON result per line on stdout.  The server never calls into
the package, so each child starts as a fresh CLI process that has only
imported it: every ``lru_cache`` is cold.  The child times ``cli.run``
around the call, with stdout captured, probes the host's speed right before
and after it and, if untraced, while it runs (hostspeed.py), and sends the
result back through a pipe.  A child still running at its limit is killed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import select
import signal
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import hostspeed


def _child(pkg, req: dict) -> dict:
    tracer = None
    if req["trace"]:
        import tracer as tracer_module

        tracer = tracer_module.install(pkg)
    out, err = io.StringIO(), io.StringIO()
    error = None
    probe_before, during = hostspeed.probe(), []
    # A traced job is not probed while it runs: its spans would hold the probes.
    sampling = nullcontext() if tracer else hostspeed.sampling(during)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), sampling:
            code = pkg.cli.run(req["argv"])
    except Exception as exc:  # a traceback is a failed job, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"[:500]
    seconds = time.perf_counter() - start - sum(during)
    probes = [probe_before, *during, hostspeed.probe()]
    text = out.getvalue()
    result = {
        "exit": code,
        "seconds": seconds,
        "probe_s": probes,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "error": error,
    }
    if req.get("stdout"):
        result["stdout"] = text
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    return result


def run_job(pkg, req: dict) -> dict:
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            payload = json.dumps(_child(pkg, req)).encode()
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(wfd)
    deadline = time.monotonic() + req["limit"]
    chunks, timed_out = [], False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            if select.select([rfd], [], [], remaining)[0]:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    if timed_out:
        result = {"error": f"timeout after {req['limit']:.1f} s"}
    elif chunks:
        result = json.loads(b"".join(chunks))
    else:
        result = {"error": f"job process ended without a result (status {status})"}
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def main() -> int:
    src = os.path.realpath(sys.argv[1])
    sys.path.insert(0, src)
    import kravchuk_identities
    import kravchuk_identities.cli  # noqa: F401  (the CLI is what jobs call)

    if not os.path.realpath(kravchuk_identities.__file__).startswith(src + os.sep):
        print(f"kravchuk_identities imported from outside {src}", file=sys.stderr)
        return 2
    for line in sys.stdin:
        result = run_job(kravchuk_identities, json.loads(line))
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
