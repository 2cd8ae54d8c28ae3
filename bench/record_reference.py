"""Record the reference reports that ``check.py`` compares against.

    python3 bench/record_reference.py

Runs every workload once, untraced, at the default seed and at the held-out
seed, and writes ``reference/seed-<seed>.json`` with each job's argument
list, exit code and parsed report.  Run it only at a commit whose outputs
define correct: the benchmark judges later commits by these files.
"""

from __future__ import annotations

import json
import sys

from check import reference_path
from run import git_rev, ROOT, run_worker
from workloads import DEFAULT_SEED, WORKLOADS, job_argvs

HELDOUT_SEED = 424242


def record(seed: int) -> dict:
    workloads = {}
    for workload in WORKLOADS:
        result = run_worker(job_argvs(workload, seed), trace=False, timeout=900)
        entries = []
        for job in result["jobs"]:
            if job["status"] != "ok":
                raise SystemExit(f"{workload} {job['argv']}: {job['status']}\n{job['stderr']}")
            entries.append({
                "argv": job["argv"],
                "exit_code": job["exit_code"],
                "report": json.loads(job["stdout"]),
            })
        workloads[workload] = entries
    return {"seed": seed, "git_rev": git_rev(ROOT), "workloads": workloads}


def main() -> int:
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        path = reference_path(seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(seed), indent=1) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
