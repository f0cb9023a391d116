"""Benchmark of the kravchuk CLI: cold-start jobs, end to end and per layer.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each job is one CLI invocation (an argv for
``kravchuk_identities.cli.run``) in a fresh process that has only imported
the package (see jobserver.py).  Jobs run in a closed loop, one client, one
job at a time.  The loop repeats whole rounds of the seeded job list
(workloads.py) and starts a round only while it is expected to end nearer to
``--seconds`` than stopping now does.

Every job's exit code and stdout bytes must equal those recorded in
expected.json; a wrong byte, a wrong exit code, an exception or a timeout is
a failed job.  Independent answers (oracle.py) are checked once per distinct
job after the loop.

This host's speed drifts by up to a factor of two within seconds, and a slow
spell can last a whole run.  So a fixed host probe runs in the job's process
right before and after every job, and every quarter second while it runs, and
after every import sample (hostspeed.py).  The job's time is scaled by the
probe's reference time over the probes' mean, and each job counts with its
median over the run's rounds (see metrics.end_to_end).  The uncorrected wall times are printed too, on a line
of their own.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job
twice, untraced and traced, prints the per-layer metrics per round and writes
every span to perfbench/out/.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import time

import metrics
import oracle
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PYTHON = [sys.executable, "-E", "-s"]

JOB_LIMIT_S = 40.0  # a job still running after this is killed and fails
LOOP_LIMIT_S = 140.0  # past this, remaining jobs fail unrun: the run ends in time
SETUP_SAMPLES = 3  # before the loop; then one per SETUP_EVERY_S of loop time
SETUP_EVERY_S = 1.0
ORACLE_SAMPLES = 3  # poly jobs per run checked against sympy

# The host probes follow the timed import: hostspeed imports fractions, which
# the package's import would otherwise find already loaded.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kravchuk_identities.cli; s = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import hostspeed; "
    "print(s, hostspeed.probe(), hostspeed.probe())"
)


class JobServer:
    def __init__(self):
        self.proc = subprocess.Popen(
            PYTHON + [os.path.join(BENCH_DIR, "jobserver.py"), SRC],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def run(self, argv, trace: bool, limit: float, want_stdout: bool) -> dict:
        req = {"argv": argv, "trace": trace, "limit": limit, "stdout": want_stdout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("job server exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def steal_seconds():
    """Host steal time from /proc/stat (read only), or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def setup_sample() -> dict:
    """Import time of kravchuk_identities.cli in a fresh interpreter, with the
    host probes taken right after it in the same interpreter."""
    out = subprocess.run(
        PYTHON + ["-c", SETUP_CODE, SRC, BENCH_DIR],
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
    )
    seconds, *probes = map(float, out.stdout.split())
    return {"seconds": seconds, "probe_s": probes}


def judge(key: str, res: dict, expected: dict):
    """Reason the job failed, or None."""
    if res.get("error"):
        return res["error"]
    want = expected[key]
    if res["exit"] != want["exit"]:
        return f"exit code {res['exit']}, expected {want['exit']}"
    if res["sha256"] != want["sha256"]:
        return "stdout differs from the recorded bytes"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = bool(args.trace)

    if not os.path.isfile(os.path.join(SRC, "kravchuk_identities", "cli.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        expected = json.load(fh)
    jobs = workloads.round_jobs(args.workload, args.seed)
    missing = [argv for argv, key in jobs if key not in expected]
    if missing:
        print(f"error: no recorded output for {missing[0]}", file=sys.stderr)
        return 2
    oracle_rng = random.Random(f"oracle/{args.seed}")
    checked = [job for job in jobs if oracle.has_check(job[0]) and job[0][0] != "poly"]
    poly = [job for job in jobs if job[0][0] == "poly" and oracle.has_check(job[0])]
    checked += oracle_rng.sample(poly, min(ORACLE_SAMPLES, len(poly)))
    checked_keys = {key for _, key in checked}

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "steal_s_before": steal_seconds(),
    }
    setup = []
    if not trace:
        setup_sample()  # untimed: writes the bytecode cache, as an install does
        setup = [setup_sample() for _ in range(SETUP_SAMPLES)]

    server = JobServer()
    runs = []  # one dict per execution of a job slot
    rss_kb, stdouts, spans = [], {}, []
    layers = metrics.LayerTotals()
    rounds = 0
    start = last_setup = time.monotonic()
    try:
        while True:
            round_start = time.monotonic()
            for slot, (argv, key) in enumerate(jobs):
                # Import time drifts with the host over seconds, so its
                # samples are spread over the whole loop.
                if not trace and time.monotonic() - last_setup >= SETUP_EVERY_S:
                    setup.append(setup_sample())
                    last_setup = time.monotonic()
                for traced in (False, True) if trace else (False,):
                    run = {"slot": slot, "key": key, "traced": traced, "seconds": None}
                    runs.append(run)
                    limit = min(JOB_LIMIT_S, start + LOOP_LIMIT_S - time.monotonic())
                    if limit <= 0:
                        run["why"] = "not run: loop time limit reached"
                        continue
                    res = server.run(argv, traced, limit, key in checked_keys and key not in stdouts)
                    run["why"] = judge(key, res, expected)
                    run["seconds"] = res.get("seconds", limit)
                    run["probe_s"] = res.get("probe_s")
                    if run["why"] is None and "stdout" in res:
                        stdouts[key] = res["stdout"]
                    if not traced:
                        rss_kb.append(res["maxrss_kb"])
                    elif run["why"] is None:
                        layers.add(res["trace"])
                        spans.append({"job": len(runs), "argv": argv, "spans": res["spans"]})
            rounds += 1
            round_s = time.monotonic() - round_start
            if time.monotonic() - start >= args.seconds - round_s / 2:
                break
    finally:
        server.close()
    env["steal_s_after"] = steal_seconds()

    for argv, key in checked:
        if key not in stdouts:
            continue  # every run of this job failed already
        try:
            why = oracle.check(argv, stdouts[key])
        except (ValueError, IndexError, KeyError) as exc:
            why = f"unreadable output: {exc}"
        for run in runs:
            if why and run["key"] == key and run["why"] is None:
                run["why"] = f"oracle: {why}"
    failures = [run for run in runs if run["why"]]
    attempted, failed = len(runs), len(failures)

    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} round_jobs={len(jobs)} rounds={rounds} "
        f"job_list_sha256={workloads.job_list_digest(jobs)}"
    )
    print("env " + json.dumps(env))
    for run in failures[:10]:
        print(f"FAILED {run['why']}: {' '.join(jobs[run['slot']][0])[:120]}")
    plain = [run for run in runs if not run["traced"]]
    if trace:
        plain_s = sum(run["seconds"] for run in plain if run["why"] is None)
        traced_s = sum(run["seconds"] for run in runs if run["traced"] and run["why"] is None)
        values = layers.per_round(rounds, plain_s, traced_s) if traced_s else {}
        table = metrics.PER_LAYER
        os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
        span_file = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        with open(span_file, "w") as fh:
            fh.write("# span fields: name, start_s, end_s, parent index, outermost for name, for layer\n")
            for record in spans:
                fh.write(json.dumps(record) + "\n")
        print(f"spans written to {os.path.relpath(span_file, ROOT)} ({len(spans)} traced jobs)")
    else:
        pct = workloads.TAIL_PCT[args.workload]
        values, beyond = metrics.end_to_end(plain, [key for _, key in jobs], rss_kb, setup, pct)
        wall, _ = metrics.end_to_end(plain, [key for _, key in jobs], rss_kb, setup, pct, corrected=False)
        table = metrics.END_TO_END
        print("uncorrected wall time: " + " ".join(
            f"{name} {wall[name]:.6g}" for name in ("job_s.p50", "job_s.tail", "jobs_per_s", "setup_s")
        ))
        print(
            f"job_s.tail is p{pct} of the {len(jobs)} round jobs at their corrected medians; "
            f"{beyond} of {len(plain)} job runs lie beyond it"
        )
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} jobs failed)")
    result = {}
    for name, unit, *_ in table:
        if name in values:
            result[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
