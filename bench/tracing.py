"""Span recorder that times laplgm's layers from outside the package.

``install(recorder)`` replaces public names in the module that looks them up
(``laplgm.engine.factorize`` apart from ``laplgm.latent.factorize``, and so on)
with wrappers that record one span per call: name, start, end, parent span and
thread.  Nothing under ``src/`` changes; the wrappers live only in the traced
child process.  A per-thread stack of open spans gives each span its parent,
and the engine's thread pool is replaced by one that hands the submitting
thread's open span to its workers, so node spans run under ``--threads 2``
keep their parent.

``layer_metrics`` turns spans into the per-layer metrics listed in
``LAYER_METRICS``: ``<span>_s`` is busy time (summed durations),
``<span>.self_s`` busy time minus the part covered by child spans, and
``<span>.calls`` a count.
"""
from __future__ import annotations

import importlib
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

# (module, attribute, span name).  A class attribute is named "Class.method".
TARGETS = [
    ("laplgm.engine", "fit", "engine.fit"),
    ("laplgm.cli", "engine_fit", "engine.fit"),
    ("laplgm.engine", "Engine.__init__", "engine.init"),
    ("laplgm.engine", "Engine.find_mode", "engine.find_mode"),
    ("laplgm.engine", "Engine.explore", "engine.explore"),
    ("laplgm.engine", "Engine.log_posterior", "engine.log_posterior"),
    ("laplgm.engine", "Engine.gaussian_approximation", "engine.gaussian_approximation"),
    ("laplgm.engine", "Engine.node_quantities", "engine.node_quantities"),
    ("laplgm.latent", "ModelGraph.prior_quantities", "latent.prior_quantities"),
    ("laplgm.engine", "factorize", "sparse.factorize.engine"),
    ("laplgm.latent", "factorize", "sparse.factorize.latent"),
    ("laplgm.latent", "reorder", "sparse.reorder"),
    # the engine's ordering search calls `sparse.reorder` through the module
    ("laplgm.sparse", "reorder", "sparse.reorder"),
    ("laplgm.engine", "selected_inverse", "sparse.selected_inverse"),
    ("laplgm.engine", "solve", "sparse.solve"),
    ("laplgm.engine", "mixture_marginal", "marginals.mixture_marginal"),
    ("laplgm.engine", "zmarginal", "marginals.zmarginal"),
    ("laplgm.assessment", "zmarginal", "marginals.zmarginal"),
    # the CLI imports zmarginal from laplgm.marginals inside a function
    ("laplgm.marginals", "zmarginal", "marginals.zmarginal"),
    ("laplgm.assessment", "assess", "assessment.assess"),
    ("laplgm.cli", "build_model", "cli.build_model"),
    ("laplgm.cli", "main", "cli.main"),
    ("laplgm.mesh", "assemble", "mesh.assemble"),
    ("laplgm.mesh", "projector", "mesh.projector"),
    ("laplgm.cli", "assemble", "mesh.assemble"),
    ("laplgm.cli", "projector", "mesh.projector"),
]


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int


class Recorder:
    """Spans and counts kept in memory while ``active`` is true."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.active = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add_count(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, on_result=None):
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            with recorder._lock:
                span_id = next(recorder._ids)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident()))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks run under the submitter's open span."""
        recorder = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def run(*a, **k):
                    stack = recorder._stack()
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(run, *args, **kwargs)

        return TracedExecutor


def install(recorder):
    """Wrap every name in TARGETS for the rest of the process."""
    def newton(approx):
        recorder.add_count("engine.newton_iterations", int(approx.iterations))

    for module_name, attr, span_name in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        on_result = newton if span_name == "engine.gaussian_approximation" else None
        setattr(owner, attr, recorder.wrap(span_name, getattr(owner, attr), on_result))
    engine = importlib.import_module("laplgm.engine")
    engine.ThreadPoolExecutor = recorder.executor_class()


# ---------------------------------------------------------------------------
# span arithmetic

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_table(spans):
    """Per span name: calls, busy seconds and self seconds."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "busy": 0.0, "self": 0.0})
        duration = s.end - s.start
        row["calls"] += 1
        row["busy"] += duration
        row["self"] += duration - covered(children.get(s.id, ()), s.start, s.end)
    return table


def cache_hits(spans):
    """log_posterior calls that returned without a Gaussian approximation."""
    computed = {s.parent for s in spans if s.name == "engine.gaussian_approximation"}
    return sum(1 for s in spans
               if s.name == "engine.log_posterior" and s.id not in computed)


def work_counts(spans, counts):
    """Deterministic work counts: calls per span name plus recorded counts."""
    out = {f"{name}.calls": row["calls"] for name, row in span_table(spans).items()}
    out["engine.lp_cache_hits"] = cache_hits(spans)
    out.update(counts)
    return dict(sorted(out.items()))


def count_mismatches(runs):
    """Names of work counts that differ between runs (each a work_counts dict)."""
    if not runs:
        return []
    names = set().union(*runs)
    return sorted(n for n in names if len({r.get(n) for r in runs}) > 1)


# ---------------------------------------------------------------------------
# per-layer metrics: name, unit, better, the end-to-end metric it should move,
# and the workloads on which it should move it

LAYER_METRICS = [
    ("engine.init_s", "s", "lower", "run_s", "all"),
    ("engine.find_mode_s", "s", "lower", "run_s", "all"),
    ("engine.explore_s", "s", "lower", "run_s", "all"),
    ("engine.theta_evals", "count", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.log_posterior.calls", "count", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.lp_cache_hit_ratio", "ratio", "higher", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.newton_iterations", "count", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.factorizations_per_theta_eval", "ratio", "lower", "run_s",
     "cli_gaussian desk_spacetime"),
    ("engine.gaussian_approximation.self_s", "s", "lower", "run_s",
     "cli_gaussian desk_spacetime"),
    ("engine.node_quantities_s", "s", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.node_quantities.self_s", "s", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.node_stage_wall_s", "s", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("engine.nodes", "count", "lower", "run_s", "cli_gaussian desk_spacetime"),
    ("latent.prior_quantities.calls", "count", "lower", "run_s", "all"),
    ("latent.prior_quantities_s", "s", "lower", "run_s", "all"),
    ("latent.prior_quantities.self_s", "s", "lower", "run_s", "all"),
    ("sparse.factorize.engine.calls", "count", "lower", "run_s", "desk_spacetime"),
    ("sparse.factorize.engine_s", "s", "lower", "run_s", "desk_spacetime"),
    ("sparse.selected_inverse.calls", "count", "lower", "run_s peak_rss_mb",
     "cli_gaussian desk_spacetime"),
    ("sparse.selected_inverse_s", "s", "lower", "run_s peak_rss_mb",
     "cli_gaussian desk_spacetime"),
    ("sparse.solve.calls", "count", "lower", "run_s peak_rss_mb",
     "cli_gaussian desk_spacetime"),
    ("sparse.solve_s", "s", "lower", "run_s peak_rss_mb", "cli_gaussian desk_spacetime"),
    ("assessment.assess_s", "s", "lower", "run_s", "cli_gaussian"),
    ("marginals.mixture_marginal_s", "s", "lower", "run_s", "cli_gaussian"),
    ("marginals.zmarginal_s", "s", "lower", "run_s", "cli_gaussian"),
    ("cli.build_model_s", "s", "lower", "run_s", "cli_gaussian"),
    ("cli.main.self_s", "s", "lower", "run_s", "cli_gaussian"),
    ("mesh.assemble_s", "s", "lower", "setup_s", "all"),
    ("mesh.projector_s", "s", "lower", "setup_s", "all"),
    ("trace.overhead_s", "s", "lower", "none (traced run_s minus untraced median)", "all"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts):
    """Every LAYER_METRICS value except trace.overhead_s, from one traced run."""
    table = span_table(spans)

    def row(name):
        return table.get(name, {"calls": 0, "busy": 0.0, "self": 0.0})

    nodes = [s for s in spans if s.name == "engine.node_quantities"]
    theta_evals = row("engine.gaussian_approximation")["calls"]
    lp_calls = row("engine.log_posterior")["calls"]
    special = {
        "engine.theta_evals": theta_evals,
        "engine.lp_cache_hit_ratio": _ratio(cache_hits(spans), lp_calls),
        "engine.newton_iterations": counts.get("engine.newton_iterations", 0),
        "engine.factorizations_per_theta_eval":
            _ratio(row("sparse.factorize.engine")["calls"], theta_evals),
        "engine.node_stage_wall_s":
            max(s.end for s in nodes) - min(s.start for s in nodes) if nodes else 0.0,
        "engine.nodes": len(nodes),
    }
    out = {}
    for name, *_ in LAYER_METRICS:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = row(name[:-len(".self_s")])["self"]
        elif name.endswith(".calls"):
            out[name] = row(name[:-len(".calls")])["calls"]
        elif name.endswith("_s") and name != "trace.overhead_s":
            out[name] = row(name[:-len("_s")])["busy"]
    return out
