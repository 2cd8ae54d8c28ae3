"""One benchmark pass in a fresh interpreter.

Reads a request (JSON on stdin), imports ``explodingmoments`` from the
checkout's ``src`` (timed as set-up), runs the request's CLI argument lists
back to back through ``explodingmoments.cli.main`` with stdout captured, and
prints one JSON result line.  Each job runs under a wall-clock cap; a job
that passes it is recorded as ``exceeded`` and the pass goes on.  With
``trace`` set, ``tracing.Tracer`` wraps the package's layer functions for the
duration of the jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback


class JobExceeded(BaseException):
    """Raised by the cap timer; a BaseException so ``except Exception`` in
    the code under test cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobExceeded()


def _run_job(main, argv: list[str], cap_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except JobExceeded:
        status = "exceeded"
    except SystemExit as exc:  # argparse usage errors exit like the console script
        code = exc.code
    except Exception:
        status = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - t0
    return {
        "argv": argv,
        "status": status,
        "exit_code": code,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def main() -> int:
    request = json.load(sys.stdin)
    src = os.path.join(request["root"], "src")

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import explodingmoments
    import explodingmoments.cli as cli
    setup_s = time.perf_counter() - t0

    pkg_dir = os.path.dirname(os.path.abspath(explodingmoments.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        print(f"error: imported {pkg_dir}, not the checkout's src", file=sys.stderr)
        return 2

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "explodingmoments": getattr(explodingmoments, "__version__", "unknown"),
        },
    }
    if request["jobs"]:
        tracer = None
        if request["trace"]:
            from tracing import Tracer  # bench/ is sys.path[0] for this script

            tracer = Tracer()
            tracer.install()
        signal.signal(signal.SIGALRM, _on_alarm)
        jobs = []
        t0 = time.perf_counter()
        try:
            for j, argv in enumerate(request["jobs"]):
                if tracer is not None:
                    tracer.job = j
                jobs.append(_run_job(cli.main, argv, request["cap_s"]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["wall_s"] = time.perf_counter() - t0
        result["jobs"] = jobs
        if tracer is not None:
            report_bytes = sum(len(job["stdout"].encode()) for job in jobs)
            result["per_layer"] = tracer.metrics(report_bytes)
            result["trace"] = tracer.dump()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.__stdout__.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
