"""One measured step of a benchmark run, in a fresh process.

    python3 perfbench/child.py '<json request>'

``run.py`` starts one of these per set-up probe and per pass, so every
pass pays its own imports and its peak RSS is its own.  The request names
a ``mode``:

* ``setup`` -- imports, fleet or cohort planning and pool start, then exit;
* ``pass`` -- one untraced pass of the workload;
* ``traced`` -- one pass with the compute layers wrapped in spans and an
  enabled :mod:`repro.obs` registry;
* ``dispatch`` -- one pass with parent-side dispatch and transport spans
  and an enabled registry.

The last stdout line is one JSON object with the timings, peak RSS and the
workload's result summary (or an ``error``).
"""

import time

STARTED = time.perf_counter()  # before numpy or repro is imported

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _rss_mb(who: int) -> float:
    """Peak resident set size (Linux reports KiB) in MB."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def _measure(request: dict) -> dict:
    import workloads

    mode = request["mode"]
    name = request["workload"]
    seed = request["seed"]
    jobs = request["jobs"]
    if mode == "setup":
        import repro.cli  # noqa: F401  (what a CLI user imports first)

        workloads.setup(name, seed, jobs)
        return {"setup_s": time.perf_counter() - STARTED}

    planned = workloads.planned_attempts(name)
    try:
        report = _pass(request)
    except Exception:  # the pass raised: all it attempted failed
        return {"error": traceback.format_exc(), "planned": planned}
    report["planned"] = planned
    return report


def _pass(request: dict) -> dict:
    import workloads

    mode = request["mode"]
    name = request["workload"]
    seed = request["seed"]
    jobs = request["jobs"]

    def one_pass() -> dict:
        return workloads.run(name, seed, jobs, request["scratch"])

    report: dict = {}
    if mode == "pass":
        result = one_pass()
    else:
        import tracer as spans
        from repro.obs import MetricsRegistry, use_registry

        traced = spans.Tracer(run_id=request["run_id"])
        registry = MetricsRegistry(enabled=True)
        if mode == "traced":
            spans.install_compute(traced)
        else:
            spans.install_dispatch(traced)
        try:
            with use_registry(registry):
                began = time.perf_counter()
                result = traced.root(one_pass)
                workload_s = time.perf_counter() - began
        finally:
            traced.restore()
        snapshot = registry.snapshot()
        snapshot.pop("spans", None)
        derive = (
            spans.compute_metrics if mode == "traced" else spans.dispatch_metrics
        )
        layers, crosscheck = derive(traced, snapshot, workload_s)
        traced.write(
            request["spans_out"],
            {"workload": name, "seed": seed, "mode": mode, "jobs": jobs},
        )
        report.update(layers=layers, crosscheck_errors=crosscheck)
    own = resource.getrusage(resource.RUSAGE_SELF)
    report.update(
        wall_s=time.perf_counter() - STARTED,
        cpu_s=own.ru_utime + own.ru_stime,
        rss_mb=_rss_mb(resource.RUSAGE_SELF),
        children_rss_mb=_rss_mb(resource.RUSAGE_CHILDREN),
        result=result,
    )
    return report


def main() -> int:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        report = _measure(request)
    except Exception:  # reported to run.py, which counts the pass as failed
        report = {"error": traceback.format_exc()}
    print(json.dumps(report))
    return 0 if "error" not in report else 1


if __name__ == "__main__":
    sys.exit(main())
