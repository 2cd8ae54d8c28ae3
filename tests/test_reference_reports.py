"""Every benchmark job, at each stored seed, still prints its stored report.

The jobs are those of ``bench/workloads.py``, run in process through
``cli.main`` with one sampling thread, as the benchmark's worker runs them.
Each report is judged by the benchmark's own check against
``bench/reference/``: exact fields equal, Monte Carlo floats to a relative
1e-9, exit codes equal.  A change that moves a reported value re-records the
references with ``bench/record_reference.py``.
"""

import sys
from pathlib import Path

import pytest

from explodingmoments.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from check import check_job, load_references  # noqa: E402
from workloads import WORKLOADS, job_argvs  # noqa: E402

REFERENCES = load_references()
JOBS = [
    (seed, workload, index)
    for seed in sorted(REFERENCES)
    for workload in WORKLOADS
    for index in range(len(WORKLOADS[workload]["jobs"]))
]


@pytest.mark.parametrize("seed, workload, index", JOBS)
def test_report_matches_reference(seed, workload, index, capsys, monkeypatch):
    monkeypatch.setenv("EXPLODINGMOMENTS_THREADS", "1")
    argv = job_argvs(workload, seed)[index]
    code = main(argv)
    job = {"argv": argv, "status": "ok", "exit_code": code, "stdout": capsys.readouterr().out}
    failure = check_job(job, REFERENCES, workload, index, seed)
    assert failure is None, failure


def test_both_seeds_are_stored():
    # 13 jobs at each of two seeds; a lost reference file would shrink the test
    assert len(REFERENCES) == 2 and len(JOBS) == 26
