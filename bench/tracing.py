"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions at the module attributes their
callers look them up by (``limits.classify``, ``estimator.sample``, ...) with
timing wrappers, and ``Tracer.uninstall`` puts the originals back.  Coarse
entry points record one span each (name, start, end, parent span, job id).
Hot functions, called up to millions of times per job, are aggregated per
parent span instead (calls, total time, self time), so the trace stays small
and its overhead bounded.  A wrapped name the package no longer has is listed
as absent and reads as 0 calls; a counter whose function now returns
something else is listed as absent too.

Self time of a call is its duration minus the time of wrapped calls nested in
it; a layer's self time is the sum over its wrapped functions.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "explodingmoments"

# (module, attribute, layer, hot).  The module is where the caller looks the
# name up, not where the function is defined.
WRAPS = [
    ("cli", "main", "cli", False),
    ("cli", "dispatch", "cli", False),
    ("cli", "design_correlated_sign_law", "profiles", False),
    ("cli", "sign_scalar_law", "profiles", False),
    ("cli", "light_profile", "profiles", False),
    ("cli", "profile_of_sparse_law", "profiles", False),
    ("cli", "profile_of_scalar_law", "profiles", False),
    ("cli", "validate_profile", "profiles", False),
    ("limits", "tilde_transform", "profiles", False),
    ("limits", "pair_table_from_scalar", "profiles", False),
    ("limits", "centrosymmetric_profile", "profiles", False),
    ("cli", "limit_trace_moment", "limits", False),
    ("cli", "circulant_limit_moment", "limits", False),
    ("cli", "covariance_trace", "limits", False),
    ("cli", "circulant_covariance", "limits", False),
    ("limits", "covariance_graphs", "limits", True),
    ("limits", "tau", "limits", True),
    ("limits", "enumerate_set_partitions", "partitions", False),
    ("limits", "enumerate_integer_partitions_min2", "partitions", False),
    ("limits", "enumerate_cross_partitions", "partitions", True),
    ("limits", "graph_of_partition", "graphs", True),
    ("limits", "classify", "graphs", True),
    ("limits", "stats", "graphs", True),
    ("limits", "merge_under_cross_partition", "graphs", True),
    ("cli", "exact_trace_mean", "oracle", False),
    ("cli", "exact_fluct_covariance_small", "oracle", False),
    ("cli", "exact_circulant_trace_mean", "oracle", False),
    ("oracle", "enumerate_set_partitions", "partitions", False),
    ("oracle", "enumerate_cross_partitions", "partitions", True),
    ("oracle", "graph_of_partition", "graphs", True),
    ("oracle", "stats", "graphs", True),
    ("oracle", "merge_under_cross_partition", "graphs", True),
    ("estimator", "sample", "ensembles", True),
    ("estimator", "sample_circulant_generator", "ensembles", True),
    ("cli", "run_experiment", "estimator", False),
    ("estimator", "trace_powers", "estimator", True),
    ("estimator", "aggregate_stats", "estimator", False),
    ("cli", "compare_report", "estimator", False),
]

LAYERS = ("cli", "profiles", "partitions", "graphs", "limits", "oracle", "ensembles", "estimator")


def _nnz(x) -> int:
    """Stored nonzeros of a sample: sparse matrix, dense array, or a
    ``MatrixSample`` holding either (or a circulant generator vector)."""
    nnz = getattr(x, "nnz", None)
    if nnz is not None:
        return int(nnz)
    if hasattr(x, "shape"):
        return int((x != 0).sum())
    for attr in ("matrix", "generator_values"):
        inner = getattr(x, attr, None)
        if inner is not None:
            return _nnz(inner)
    return 0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _bound(fn, args, kwargs) -> dict:
    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return {}
    ba.apply_defaults()
    return ba.arguments


class Tracer:
    """Holds spans and counters in memory for one worker process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.epoch = self.clock()
        self.job = None
        self.spans: list[dict] = []
        # (module.attr) -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        # (parent span id, module.attr) -> [calls, total_s, self_s]
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self.absent: list[str] = []
        self.uncounted: set[str] = set()  # wrapped names whose counter hook failed
        self._frames: list[list] = []  # [child_s] per active wrapped call
        self._span_ids: list[int] = []  # ids of active spans
        self._installed: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        for modname, attr, layer, hot in WRAPS:
            key = f"{modname}.{attr}"
            self.layer_of[key] = layer
            self.totals[key] = [0, 0.0, 0.0]
            try:
                module = importlib.import_module(f"{PACKAGE}.{modname}")
            except ImportError:
                self.absent.append(key)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(key)
                continue
            hook = self._hook_for(key, fn)
            wrapper = (self._hot_wrapper if hot else self._span_wrapper)(key, fn, hook)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, key, fn, hook):
        frames, span_ids, clock, tot = self._frames, self._span_ids, self.clock, self.totals[key]
        uncounted = self.uncounted

        def wrapped(*args, **kwargs):
            span_id = len(self.spans)
            span = {
                "id": span_id,
                "parent": span_ids[-1] if span_ids else None,
                "job": self.job,
                "name": key,
                "layer": self.layer_of[key],
            }
            self.spans.append(span)
            frame = [0.0]
            frames.append(frame)
            span_ids.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                span_ids.pop()
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                span["start"] = t0 - self.epoch
                span["end"] = t1 - self.epoch
                span["self"] = elapsed - frame[0]
                tot[0] += 1
                tot[1] += elapsed
                tot[2] += span["self"]
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (TypeError, ValueError, IndexError, AttributeError):
                    uncounted.add(key)  # the result no longer has the counted shape
            return result

        return wrapped

    def _hot_wrapper(self, key, fn, hook):
        frames, span_ids, clock, tot, hot, uncounted = (
            self._frames, self._span_ids, self.clock, self.totals[key], self.hot, self.uncounted
        )

        def wrapped(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                own = elapsed - frame[0]
                tot[0] += 1
                tot[1] += elapsed
                tot[2] += own
                agg = hot[(span_ids[-1] if span_ids else None, key)]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += own
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (TypeError, ValueError, IndexError, AttributeError):
                    uncounted.add(key)  # the result no longer has the counted shape
            return result

        return wrapped

    # -- counters taken from arguments and results ------------------------

    def _hook_for(self, key, fn):
        c = self.counters
        attr = key.split(".", 1)[1]
        if attr == "enumerate_set_partitions":
            def hook(args, kwargs, result):
                c["partitions.set_partitions"] += len(result)
        elif attr == "enumerate_cross_partitions":
            def hook(args, kwargs, result):
                c["partitions.cross_partitions"] += len(result)
        elif attr == "graph_of_partition":
            def hook(args, kwargs, result):
                c["graphs.graphs_built"] += 1
        elif attr == "merge_under_cross_partition":
            from_limits = key.startswith("limits.")

            def hook(args, kwargs, result):
                c["graphs.graphs_built"] += 1
                if from_limits:
                    c["limits.gluings"] += 1
                    c["limits.shared_gluings"] += bool(result[1])
        elif attr == "classify":
            graphs = importlib.import_module(f"{PACKAGE}.graphs")
            admissible = getattr(graphs, "ADMISSIBLE_TREE", "admissible_tree")

            def hook(args, kwargs, result):
                c["graphs.classified"] += 1
                c["graphs.admissible"] += result == admissible
        elif attr == "exact_circulant_trace_mean":
            def hook(args, kwargs, result):
                a = _bound(fn, args, kwargs)
                if "n" in a and "k" in a:
                    c["oracle.circ_tuples"] += a["n"] ** (a["k"] - 1)
        elif attr in ("sample", "sample_circulant_generator"):
            def hook(args, kwargs, result):
                c["ensembles.nnz"] += _nnz(result)
        elif attr == "run_experiment":
            def hook(args, kwargs, result):
                c["estimator.replicas"] += getattr(result, "replicates", 0)
        elif attr == "aggregate_stats":
            estimator = importlib.import_module(f"{PACKAGE}.estimator")
            default_b = getattr(estimator, "BOOTSTRAP_DEFAULT", 200)

            def hook(args, kwargs, result):
                a = _bound(fn, args, kwargs)
                traces = a.get("traces")
                b = a.get("bootstrap_resamples", default_b)
                if traces is not None and len(getattr(traces, "shape", ())) == 2:
                    m, k = traces.shape
                    c["estimator.bootstrap_bytes"] += b * m * k * 8
        else:
            return None
        return hook

    # -- results ----------------------------------------------------------

    def _calls(self, *keys) -> int:
        return sum(self.totals[k][0] for k in keys)

    def _incl(self, *keys) -> float:
        return sum(self.totals[k][1] for k in keys)

    def _hit_ratio(self, attr: str) -> float:
        """hits / (hits + misses) of an ``lru_cache`` in ``graphs``, 0 if unused."""
        graphs = importlib.import_module(f"{PACKAGE}.graphs")
        info = getattr(getattr(graphs, attr, None), "cache_info", None)
        if info is None:
            self.absent.append(f"graphs.{attr}.cache_info")
            return 0.0
        ci = info()
        return _ratio(ci.hits, ci.hits + ci.misses)

    def metrics(self, report_bytes: int) -> dict:
        """Per-layer metrics of everything traced so far."""
        t, c, calls, incl = self.totals, self.counters, self._calls, self._incl
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, own) in t.items():
            layer_self[self.layer_of[key]] += own
        sample_keys = ("estimator.sample", "estimator.sample_circulant_generator")
        samples, sample_s = calls(*sample_keys), incl(*sample_keys)
        run_s = incl("cli.run_experiment")
        bootstrap_s = incl("estimator.aggregate_stats")
        return {
            "cli.jobs": calls("cli.main"),
            "cli.self_s": t["cli.main"][2],
            "cli.report_bytes": report_bytes,
            "profiles.s": layer_self["profiles"],
            "partitions.set_partitions": c["partitions.set_partitions"],
            "partitions.cross_partitions": c["partitions.cross_partitions"],
            "partitions.s": layer_self["partitions"],
            "graphs.graphs_built": c["graphs.graphs_built"],
            "graphs.classified": c["graphs.classified"],
            "graphs.admissible": c["graphs.admissible"],
            "graphs.admissible_ratio": _ratio(c["graphs.admissible"], c["graphs.classified"]),
            "graphs.stats_hit_ratio": self._hit_ratio("stats"),
            "graphs.classify_hit_ratio": self._hit_ratio("classify"),
            "graphs.s": layer_self["graphs"],
            "limits.trace_calls": calls("cli.limit_trace_moment", "cli.circulant_limit_moment"),
            "limits.trace_s": incl("cli.limit_trace_moment", "cli.circulant_limit_moment"),
            "limits.cov_calls": calls("cli.covariance_trace", "cli.circulant_covariance"),
            "limits.cov_s": incl("cli.covariance_trace", "cli.circulant_covariance"),
            "limits.gluings": c["limits.gluings"],
            "limits.shared_gluing_ratio": _ratio(c["limits.shared_gluings"], c["limits.gluings"]),
            "limits.self_s": layer_self["limits"],
            "oracle.mean_s": incl("cli.exact_trace_mean"),
            "oracle.fluct_s": incl("cli.exact_fluct_covariance_small"),
            "oracle.circ_s": incl("cli.exact_circulant_trace_mean"),
            "oracle.circ_tuples": c["oracle.circ_tuples"],
            "ensembles.samples": samples,
            "ensembles.sample_s": sample_s,
            "ensembles.nnz_per_sample": _ratio(c["ensembles.nnz"], samples),
            "estimator.replicas": c["estimator.replicas"],
            "estimator.replicas_per_s": _ratio(c["estimator.replicas"], run_s),
            "estimator.traces_s": run_s - sample_s - bootstrap_s,
            "estimator.bootstrap_s": bootstrap_s,
            "estimator.bootstrap_bytes": c["estimator.bootstrap_bytes"],
            "estimator.compare_s": incl("cli.compare_report"),
        }

    def dump(self) -> dict:
        """Spans, hot aggregates and per-function totals, for the trace file."""
        return {
            "spans": self.spans,
            "hot": [
                {"parent": parent, "name": name, "calls": v[0], "total": v[1], "self": v[2]}
                for (parent, name), v in self.hot.items()
            ],
            "functions": {
                key: {"layer": self.layer_of[key], "calls": v[0], "total": v[1], "self": v[2]}
                for key, v in self.totals.items()
            },
            "absent": self.absent + sorted(f"{key} counter" for key in self.uncounted),
        }

