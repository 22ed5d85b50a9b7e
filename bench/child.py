"""One benchmark child process: generate inputs, or set up (and run) a workload.

Usage (from the checkout root; run.py starts it with a fresh interpreter):

    python3 bench/child.py '<json request>' <result file>

The request names the workload, the work directory and the mode:

- ``gen``: write the inputs made from ``seed``;
- ``setup``: time ``import laplgm`` plus the model build (``setup_s``);
- ``run``: set up, then time the inference call(s) (``run_s``) and check the
  outputs.  With ``trace`` the layer wrappers are installed before set-up and
  the spans and work counts go into the result.

The result file receives one JSON object.  A failure of the workload is
reported in it (``error``); the exit code is non-zero only when the child
could not do its job at all, e.g. because ``src/laplgm`` is missing.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _import_laplgm():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import laplgm
    # never measure an installed copy instead of the checkout's sources
    if not os.path.abspath(laplgm.__file__).startswith(os.path.join(SRC, "laplgm") + os.sep):
        raise ImportError(f"laplgm imported from {laplgm.__file__}, not from {SRC}")
    return laplgm


def environment():
    """Interpreter, library and machine facts recorded beside the metrics."""
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(request, result_path):
    sys.path.insert(0, BENCH_DIR)
    mode = request["mode"]
    result = {}
    if mode == "gen":
        _import_laplgm()
        from workloads import WORKLOADS
        workload = WORKLOADS[request["workload"]]
        os.makedirs(request["work"], exist_ok=True)
        workload.generate(request["seed"], request["work"])
        result["environment"] = environment()
    else:
        recorder = None
        if request.get("trace"):
            _import_laplgm()
            import tracing
            recorder = tracing.Recorder()
            tracing.install(recorder)
        _import_laplgm()
        from workloads import WORKLOADS
        workload = WORKLOADS[request["workload"]]
        work = request["work"]
        try:
            state = workload.setup(work)
            result["setup_s"] = time.perf_counter() - T_START
            if mode == "run":
                kwargs = {"threads": request["threads"]} if request.get("threads") else {}
                t0 = time.perf_counter()
                out = workload.run(state, work, request["tag"], **kwargs)
                result["run_s"] = time.perf_counter() - t0
                result["peak_rss_mb"] = peak_rss_mb()
                if recorder is not None:
                    recorder.active = False
                    result["spans"] = [list(vars(s).values()) for s in recorder.spans]
                    result["counts"] = recorder.counts
                failures, digest = workload.check(state, out)
                result["failures"] = failures
                result["digest"] = digest
        except Exception:  # reported to the parent, which counts it as failed
            result["error"] = traceback.format_exc()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]), sys.argv[2])
