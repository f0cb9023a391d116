"""Record the expected stdout digest and exit code of every pooled job.

    python3 perfbench/record.py

Run from the repository root, at the commit whose outputs are the reference.
It writes perfbench/expected.json, which run.py compares every job against.
Regenerate it only when a change to the CLI output is intended.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    server = run.JobServer()
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            for argv in workloads.pool_jobs(workload):
                res = server.run(argv, False, 600.0, False)
                if res.get("error"):
                    print(f"error: {res['error']}: {argv[:4]}", file=sys.stderr)
                    return 1
                expected[workloads.job_key(argv)] = {
                    "job": " ".join(argv)[:80],
                    "exit": res["exit"],
                    "sha256": res["sha256"],
                }
    finally:
        server.close()
    with open(os.path.join(run.BENCH_DIR, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
