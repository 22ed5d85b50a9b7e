"""laplgm benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload desk_spacetime --seed 101 --seconds 60 --trace 0

Run it from the checkout root.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it print every metric with its unit and sample count.

Every measurement is taken in a fresh child process (bench/child.py) with
single-threaded BLAS.  The workload's inputs are generated from ``--seed``
first, untimed.

``--trace 0`` fits those inputs ``MIN_FITS`` times, and again while
``--seconds`` allow, each fit in a fresh child.  ``run_s`` is the median fit
time, ``setup_s`` the median over at least ``MIN_SETUP_SAMPLES`` fresh
interpreters and ``peak_rss_mb`` the median over the fits.  A workload whose
fit runs one thread runs on one CPU, so that a run does not mix the speeds of
two CPUs.
``--trace 1`` runs the inputs once untraced and ``TRACED_RUNS`` times with the
layer wrappers of bench/tracing.py (set-up and run both traced), checks that
the work counts repeat exactly, reports the per-layer metrics (medians over
the traced runs) and the tracing overhead, and writes the spans to
``.bench_work/trace-<workload>-<seed>.json``.  For ``cli_gaussian`` it also
makes a ``--threads 1`` reference run, whose CSVs must match byte for byte.

A fit that raises or fails an output check counts as failed; so does a fit
whose outputs differ from the first fit of the run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fits per run at least, whatever --seconds says
MIN_FITS = 2
MIN_SETUP_SAMPLES = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 170
END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class ChildFailed(RuntimeError):
    """A child process could not do its job at all (not a workload failure)."""


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(request, work_root):
    result_path = os.path.join(work_root, f"result-{uuid.uuid4().hex}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(request), result_path],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise ChildFailed(f"child {request['mode']} exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def tail_percentile(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1])
    return best


def describe(name, unit, samples):
    med = statistics.median(samples)
    line = f"{name}: median {med:.6g} {unit} over n={len(samples)}"
    tail = tail_percentile(samples)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g} {unit}"
    else:
        line += " (no percentile has >= 10 samples beyond it)"
    return line


class Tally:
    """Attempts, failures and the first output digest of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.notes = []

    def record(self, label, result, compare=True):
        """Count one attempt; with ``compare``, its outputs must match the first."""
        self.attempted += 1
        problems = []
        if result.get("error"):
            problems.append(result["error"].strip().splitlines()[-1])
        problems += result.get("failures", [])
        if compare and "digest" in result:
            if self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                problems.append("outputs differ from the first fit of the run")
        if problems:
            self.failed += 1
            self.notes += [f"{label}: {p}" for p in problems]
        return not problems


def generate(workload, seed, work_root):
    work = os.path.join(work_root, "data")
    res = run_child({"mode": "gen", "workload": workload, "seed": seed, "work": work},
                    work_root)
    return work, res


def measure(workload, work, seconds, work_root, tally):
    """Fit the inputs ``MIN_FITS`` times, then again while ``seconds`` allow.

    Returns the successful fit times, the set-up times and the peak resident
    sets.
    """
    runs, setups, rss = [], [], []
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while k < MIN_FITS or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        res = run_child({"mode": "run", "workload": workload, "work": work,
                         "tag": f"run{k}"}, work_root)
        longest = max(longest, time.perf_counter() - t0)
        if tally.record(f"fit {k}", res):
            runs.append(res["run_s"])
            rss.append(res["peak_rss_mb"])
        if "setup_s" in res:
            setups.append(res["setup_s"])
        k += 1
    while len(setups) < MIN_SETUP_SAMPLES:
        res = run_child({"mode": "setup", "workload": workload, "work": work}, work_root)
        if not tally.record("setup", res, compare=False) or "setup_s" not in res:
            break
        setups.append(res["setup_s"])
    return runs, setups, rss


def reference_run(workload, work, work_root, tally):
    """cli_gaussian: a --threads 1 run whose CSVs must match the measured runs."""
    if workload != "cli_gaussian":
        return
    res = run_child({"mode": "run", "workload": workload, "work": work,
                     "tag": "threads1", "threads": 1}, work_root)
    tally.record("--threads 1 reference run", res)


def traced(workload, work, work_root, tally):
    base = run_child({"mode": "run", "workload": workload, "work": work,
                      "tag": "untraced"}, work_root)
    tally.record("untraced run", base)
    per_run, counts, traced_s, spans_out = [], [], [], []
    for k in range(TRACED_RUNS):
        res = run_child({"mode": "run", "workload": workload, "work": work,
                         "tag": f"traced{k}", "trace": True}, work_root)
        if not tally.record(f"traced run {k}", res):
            continue
        spans = [tracing.Span(*s) for s in res["spans"]]
        per_run.append(tracing.layer_metrics(spans, res["counts"]))
        counts.append(tracing.work_counts(spans, res["counts"]))
        traced_s.append(res["run_s"])
        spans_out.append({"run_s": res["run_s"], "counts": res["counts"], "spans": res["spans"]})
    mismatched = tracing.count_mismatches(counts)
    if mismatched:
        tally.failed += 1
        tally.notes.append("work counts differ between traced runs: " + ", ".join(mismatched))
    return base, per_run, counts, traced_s, spans_out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    work_root = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    try:
        return _bench(args, work_root)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _bench(args, work_root):
    if WORKLOADS[args.workload].threads == 1:
        # one CPU for every child of the run: a fit that moved between the CPUs
        # of a shared host would mix their speeds
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tally = Tally()
    work, gen = generate(args.workload, args.seed, work_root)
    print("environment: " + json.dumps(gen["environment"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")

    metrics = {}
    if args.trace == 0:
        samples = measure(args.workload, work, args.seconds, work_root, tally)
        for (name, unit), values in zip(END_TO_END, samples):
            if values:
                print(describe(name, unit, values))
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        base, per_run, counts, traced_s, spans_out = traced(
            args.workload, work, work_root, tally)
        reference_run(args.workload, work, work_root, tally)
        if per_run:
            units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
            for name in per_run[0]:
                metrics[name] = {"value": statistics.median(r[name] for r in per_run),
                                 "unit": units[name]}
            if "run_s" in base:
                overhead = statistics.median(traced_s) - base["run_s"]
                metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
                print(f"tracing overhead: traced run_s {statistics.median(traced_s):.4f} s "
                      f"- untraced {base['run_s']:.4f} s = {overhead:.4f} s")
            c = counts[0]
            print(f"theta evaluations {c.get('engine.gaussian_approximation.calls', 0)}; "
                  f"engine factorizations {c.get('sparse.factorize.engine.calls', 0)}; "
                  f"log_posterior cache hits {c.get('engine.lp_cache_hits', 0)} of "
                  f"{c.get('engine.log_posterior.calls', 0)} calls")
            for name, value in metrics.items():
                print(f"{name}: {value['value']:.6g} {value['unit']}")
            os.makedirs(WORK_ROOT, exist_ok=True)
            with open(os.path.join(WORK_ROOT, f"trace-{args.workload}-{args.seed}.json"),
                      "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "environment": gen["environment"],
                           "span_fields": ["id", "parent", "name", "start", "end", "thread"],
                           "runs": spans_out}, fh)

    for note in tally.notes:
        print("FAILED " + note)
    print(f"attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.4g}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
