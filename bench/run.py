"""Benchmark of the explodingmoments exact and Monte Carlo layers.

    python3 bench/run.py --workload exact_tables --seed 20240801 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each pass of a workload is one fresh worker process (``worker.py``) that
imports the package from ``src`` and runs the workload's CLI jobs back to
back, one caller, no concurrency (a closed loop).  Passes repeat until
``--seconds`` have gone by; every job's report is checked against the stored
references (``check.py``).  With ``--trace 0`` the run prints the end-to-end
metrics, each the median over passes; with ``--trace 1`` it alternates plain
and traced passes and prints the per-layer metrics of ``tracing.py``.  The
last line of standard output is one JSON object; the lines before it give
every metric by name and unit, the run's environment, and failures.  Full
per-pass data, and the spans of traced passes, go to ``bench/out/``.

Workers run single-threaded (``THREAD_ENV``) whatever the caller's
environment, so this is a plain single-threaded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_job, load_references
from workloads import DEFAULT_SEED, WORKLOADS, job_argvs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_ENV = {
    "EXPLODINGMOMENTS_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
JOB_CAP_S = 30.0  # ~5x the slowest job at the time the benchmark was written
SETUP_PROBES = 2  # import-only workers before each pass, on top of the pass's own set-up
RUN_LIMIT_S = 165.0  # no worker may run past this point of a run

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = {
    "cli.jobs": "count",
    "cli.report_bytes": "bytes",
    "partitions.set_partitions": "count",
    "partitions.cross_partitions": "count",
    "graphs.graphs_built": "count",
    "graphs.classified": "count",
    "graphs.admissible": "count",
    "graphs.admissible_ratio": "ratio",
    "graphs.stats_hit_ratio": "ratio",
    "graphs.classify_hit_ratio": "ratio",
    "limits.trace_calls": "count",
    "limits.cov_calls": "count",
    "limits.gluings": "count",
    "limits.shared_gluing_ratio": "ratio",
    "oracle.circ_tuples": "count_computed",
    "ensembles.samples": "count",
    "ensembles.nnz_per_sample": "count",
    "estimator.replicas": "count",
    "estimator.replicas_per_s": "1/s",
    "estimator.bootstrap_bytes": "bytes_computed",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s")


def git_rev(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV, PYTHONHASHSEED="0")
    return env


class WorkerError(Exception):
    pass


def run_worker(jobs: list, trace: bool, timeout: float) -> dict:
    """Run ``jobs`` in a fresh worker process and return its result."""
    request = {"root": str(ROOT), "jobs": jobs, "trace": trace, "cap_s": JOB_CAP_S}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(request), capture_output=True, text=True,
            env=worker_env(), timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """One workload run: passes, their checks, and the time budget."""

    def __init__(self, workload: str, seed: int, seconds: float, refs: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.refs = refs
        self.jobs = job_argvs(workload, seed)
        self.start = time.monotonic()
        self.passes: list[dict] = []
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.versions: dict = {}
        self.absent: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def _worker(self, jobs: list, trace: bool) -> dict | None:
        try:
            result = run_worker(jobs, trace, timeout=max(RUN_LIMIT_S - self.elapsed(), 1.0))
        except WorkerError as exc:
            self.failures.append(str(exc))
            return None
        self.versions = result["versions"]
        self.setup_s.append(result["setup_s"])
        return result

    def probe_setup(self):
        for _ in range(SETUP_PROBES):
            self._worker([], trace=False)

    def one_pass(self, trace: bool) -> bool:
        """Run the job list once in a fresh worker; False if the worker died."""
        self.attempted += len(self.jobs)
        result = self._worker(self.jobs, trace)
        if result is None:
            self.failed += len(self.jobs)
            self.failures[-1] += f" ({len(self.jobs)} jobs counted failed)"
            return False
        result["trace_on"] = trace
        for i, job in enumerate(result["jobs"]):
            reason = check_job(job, self.refs, self.workload, i, self.seed)
            job["failure"] = reason
            if reason:
                self.failed += 1
                self.failures.append(f"job {i} ({' '.join(job['argv'])}): {reason}")
            del job["stdout"]
        self.passes.append(result)
        return True

    def more(self) -> bool:
        """Start another pass while inside --seconds and while the last pass
        would still fit under the run limit."""
        last = max((p["wall_s"] + p["setup_s"] for p in self.passes), default=0.0)
        return self.elapsed() < self.seconds and self.elapsed() + last < RUN_LIMIT_S

    def walls(self, trace: bool) -> list[float]:
        return [p["wall_s"] for p in self.passes if p["trace_on"] == trace]

    def wall(self, trace: bool) -> float:
        """Sum over jobs of each job's median time across passes: a slow
        spell that hits one job of one pass does not move it."""
        per_job = zip(*[
            [job["seconds"] for job in p["jobs"]] for p in self.passes if p["trace_on"] == trace
        ])
        return sum(statistics.median(times) for times in per_job)


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} min={min(values):.4g} q1={q1:.4g} q3={q3:.4g} max={max(values):.4g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, refs: dict):
    """Returns (metrics {name: (value, unit, detail)}, run)."""
    run = Run(workload, seed, seconds, refs)
    metrics = {}
    if not trace:
        while True:
            run.probe_setup()
            if not (run.one_pass(trace=False) and run.more()):
                break
        if run.passes:
            walls = run.walls(False)
            metrics["wall_s"] = (run.wall(False), "s", "per-job medians; passes " + _summary(walls))
            rss = [p["peak_rss_mb"] for p in run.passes]
            metrics["peak_rss_mb"] = (statistics.median(rss), "MB", _summary(rss))
        if run.setup_s:
            metrics["setup_s"] = (statistics.median(run.setup_s), "s", _summary(run.setup_s))
    else:
        while run.one_pass(trace=False) and run.one_pass(trace=True) and run.more():
            pass
        traced = [p["per_layer"] for p in run.passes if p["trace_on"]]
        run.absent = sorted({n for p in run.passes if p["trace_on"] for n in p["trace"]["absent"]})
        if traced:
            for name in traced[0]:
                values = [t[name] for t in traced]
                metrics[name] = (statistics.median(values), per_layer_unit(name),
                                 _summary(values))
            overhead = run.wall(True) - run.wall(False)
            metrics["trace.overhead_s"] = (overhead, "s", "traced minus plain wall_s")
    return metrics, run


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(ROOT),
        "seed": seed,
        "threads": THREAD_ENV,
    }


def write_out(workload: str, seed: int, trace: bool, env: dict, run: Run, metrics: dict):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    doc = {
        "workload": workload,
        "why": WORKLOADS[workload]["why"],
        "environment": env,
        "metrics": {k: {"value": v, "unit": u, "detail": d} for k, (v, u, d) in metrics.items()},
        "setup_s": run.setup_s,
        "failures": run.failures,
        "passes": run.passes,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (numpy seeds are non-negative)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "explodingmoments" / "cli.py").is_file():
        print(f"error: no explodingmoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        refs = load_references()
    except (OSError, ValueError) as exc:
        print(f"error: cannot load reference outputs: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    correct, attempted, failed, out = True, 0, 0, {}
    for workload in workloads:
        metrics, run = run_workload(workload, args.seed, args.seconds, trace, refs)
        env["versions"] = run.versions
        path = write_out(workload, args.seed, trace, env, run, metrics)
        print(f"== {workload}: {WORKLOADS[workload]['why']}")
        print(f"   layer shares when chosen: {WORKLOADS[workload]['shares']}")
        print(f"   versions: {json.dumps(run.versions, sort_keys=True)}; details in {path}")
        for name, (value, unit, detail) in metrics.items():
            print(f"   {name} = {value:.6g} {unit}  ({detail})")
        if run.absent:
            print(f"   absent (read as 0): {', '.join(run.absent)}")
        print(f"   jobs_failed = {run.failed} / jobs_attempted = {run.attempted}")
        for reason in run.failures[:10]:
            print(f"   FAILED {reason}")
        expected = END_TO_END if not trace else ["trace.overhead_s"]
        complete = all(name in metrics for name in expected)
        correct = correct and not run.failures and complete
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, (value, unit, _) in metrics.items():
            out[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
