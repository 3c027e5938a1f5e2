"""The repo benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload paper_study --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` times the workload with tracing off: several set-up probes
and as many passes as fit in ``--seconds`` (at least one for paper_study,
three for the others), each in a fresh process, reporting medians of the
end-to-end metrics.  ``--trace 1`` runs
an untraced in-process pass, a pass with the compute layers wrapped in
spans, and (for the multi-process workloads) a jobs = nproc pass with the
dispatch layer wrapped, and reports the per-layer metrics.  Every pass's
outputs are checked (see ``spec.json``); a failed check counts in
``failed`` and ``error_rate`` and does not stop the other passes or
workloads.

Stdout carries a report with every metric by name and unit, the host
record and the checks; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (host, inputs, every pass) is written under ``perfbench/out/``.
The exit status is 1 when any output check fails, 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text())

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (stdlib-only at import time)

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Every run must end within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: One BLAS thread per process: with jobs = nproc workers, BLAS threads on
#: top would oversubscribe the cores and time the scheduler.
CHILD_ENV = dict(
    os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)


class Run:
    """One invocation's clock, child processes and failure tally."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.steps: List[Dict[str, Any]] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, mode: str, jobs: int) -> Dict[str, Any]:
        """Run one child step; a crash or hang comes back as ``error``."""
        tag = f"{self.workload}-s{self.seed}-{mode}-{len(self.steps)}"
        request = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "jobs": jobs,
            "src": str(SRC),
            "scratch": str(OUT / f"scratch-{os.getpid()}-{tag}"),
            "spans_out": str(OUT / f"spans-{tag}.json"),
            "run_id": tag,
        }
        began = time.monotonic()
        report = _spawn(request, timeout=max(1.0, self.remaining() - 5.0))
        report.update(mode=mode, jobs=jobs, host_s=time.monotonic() - began)
        self.steps.append(report)
        return report

    def judge(self, report: Dict[str, Any], extra: List[str] = ()) -> None:
        """Count one pass's unit-iterations (or cohorts) as attempted/failed."""
        result = report.get("result") or {}
        errors = list(extra)
        if "error" in report:
            errors.append(report["error"].strip().splitlines()[-1])
        errors += result.get("check_errors", [])
        errors += report.get("crosscheck_errors", [])
        attempted = report.get("planned", 1)
        self.attempted += attempted
        if errors:
            self.failed += attempted
            self.errors += [f"{report['mode']} pass: {e}" for e in errors]


def _spawn(request: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        cwd=str(ROOT),
        env=CHILD_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its pool workers die with it on timeout
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        _reap_group(process.pid)
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = stderr.strip().splitlines()[-1:] or [f"exit {process.returncode}"]
        return {"error": f"no report: {tail[0]}"}
    if process.returncode != 0 and "error" not in report:
        report["error"] = f"exit {process.returncode}"
    return report


def _reap_group(pgid: int) -> None:
    """Kill whatever a child left behind in its group and wait for it."""
    waited = time.monotonic() + 5.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < waited:
            time.sleep(0.05)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# The two kinds of run


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    """Set-up probes, then passes until ``seconds`` have been measured."""
    name = run.workload
    jobs = workloads.default_jobs(name)
    setups = [run.child("setup", jobs) for _ in range(SETUP_REPEATS)]
    for probe in setups:
        if "error" in probe:
            run.errors.append(f"setup probe: {probe['error'].strip().splitlines()[-1]}")
    # A paper_study pass outlasts --seconds on its own; the others take the
    # median of at least three passes (crowd_stream needs two to compare).
    minimum = 1 if name == "paper_study" else 3
    passes: List[Dict[str, Any]] = []
    measured = 0.0
    while len(passes) < minimum or measured < seconds:
        longest = max((p["host_s"] for p in passes), default=0.0)
        reserve = longest * (2.5 if name == "traced_fleet" else 1.2)
        if passes and run.remaining() < reserve + 10.0:
            break
        passes.append(run.child("pass", jobs))
        measured += passes[-1]["host_s"]
    reference = run.child("pass", 1) if name == "traced_fleet" else None
    _judge_passes(run, passes, reference)

    good = [p for p in passes if "error" not in p]
    good_setups = [p["setup_s"] for p in setups if "setup_s" in p]

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "setup_s": median(good_setups),
        "wall_s": median([p["wall_s"] for p in good]),
        "unit_iterations_per_s": median(
            [p["result"]["unit_iterations"] / p["wall_s"] for p in good]
        ),
        "sim_s_per_host_s": median([p["result"]["sim_s"] / p["wall_s"] for p in good]),
        "peak_rss_mb": median([p["rss_mb"] for p in good]),
        # At jobs 1 the parent is the only process that runs tasks.
        "worker_peak_rss_mb": median(
            [p["children_rss_mb"] if jobs > 1 else p["rss_mb"] for p in good]
        ),
    }


def traced(run: Run) -> Dict[str, float]:
    """Untraced and traced in-process passes, then the dispatch pass."""
    name = run.workload
    jobs = workloads.default_jobs(name)
    untraced = run.child("pass", 1)
    compute = run.child("traced", 1)
    passes = [untraced, compute]
    dispatch = None
    if jobs > 1:
        dispatch = run.child("dispatch", jobs)
        passes.append(dispatch)
    _judge_passes(run, passes, None)

    # A layer the workload does not reach reads 0.
    metrics = {metric: 0.0 for metric in SPEC["per_layer_metrics"]}
    for report in (compute, dispatch or {}):
        for metric, value in (report.get("layers") or {}).items():
            if metric in metrics:
                metrics[metric] = value
    ratio = (untraced.get("result") or {}).get("submission_ratio")
    if ratio is not None:
        metrics["crowd.submission_ratio"] = ratio
    if "wall_s" in untraced and "wall_s" in compute:
        metrics["trace_overhead_pct"] = 100.0 * (
            compute["wall_s"] / untraced["wall_s"] - 1.0
        )
    return metrics


def _judge_passes(
    run: Run, passes: List[Dict[str, Any]], reference: Optional[Dict[str, Any]]
) -> None:
    """Per-pass checks plus the cross-pass identity check of the workload.

    paper_study and crowd_stream passes of one seed must agree with each
    other; traced_fleet passes must match the in-process ``reference``
    bit for bit.
    """
    if reference is not None and reference not in passes:
        run.judge(reference)
    anchor = reference if reference is not None else passes[0]
    expected = (anchor.get("result") or {}).get("digest")
    for report in passes:
        digest = (report.get("result") or {}).get("digest")
        extra = []
        if None not in (digest, expected) and digest != expected:
            extra.append(
                f"results differ from the {anchor['mode']} pass at jobs "
                f"{anchor['jobs']} (digest {digest[:12]} != {str(expected)[:12]})"
            )
        run.judge(report, extra)


# ---------------------------------------------------------------------------
# Host record and report


def host_record() -> Dict[str, Any]:
    revision: Optional[str] = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a clone
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end_metrics"]}
UNITS.update({m["name"]: m["unit"] for m in SPEC["per_layer_metrics"].values()})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    OUT.mkdir(parents=True, exist_ok=True)  # children write spans here
    run = Run(name, seed)
    load_before = os.getloadavg()[0]
    metrics = traced(run) if trace else end_to_end(run, seconds)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "inputs": SPEC["workloads"][name],
        "host": dict(host_record(), load1_before=load_before,
                     load1_after=os.getloadavg()[0]),
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted if run.attempted else 1.0,
        "errors": run.errors,
        "metrics": metrics,
        "extra": _extras(run),
        "steps": run.steps,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def _extras(run: Run) -> Dict[str, Any]:
    """Workload-specific headline figures, reported beside the metrics."""
    results = [s["result"] for s in run.steps if s.get("result")]
    extras: Dict[str, Any] = {}
    if results and "bands_passed" in results[0]:
        extras["bands_passed"] = min(r["bands_passed"] for r in results)
    if results and "ranking_rho" in results[0]:
        extras["ranking_rho"] = results[0]["ranking_rho"]
    return extras


def print_report(record: Dict[str, Any]) -> None:
    host = record["host"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"nproc={host['nproc']} load1={host['load1_before']:.2f}->"
        f"{host['load1_after']:.2f} rev={host['git_revision'] or '-'} "
        f"src={host['source_sha256'][:12]} python={host['python']} "
        f"numpy={host['numpy']}"
    )
    for name, value in record["metrics"].items():
        print(f"{record['workload']:<13} {name:<28} {value:>16.6g} {UNITS[name]}")
    print(f"{record['workload']:<13} {'error_rate':<28} {record['error_rate']:>16.6g} ratio")
    extra_units = {"bands_passed": "of 20", "ranking_rho": "rho"}
    for name, value in record["extra"].items():
        shown = "none" if value is None else f"{value:.6g}"
        print(f"{record['workload']:<13} {name:<28} {shown:>16} {extra_units[name]}")
    status = "PASS" if record["correct"] else "FAIL"
    print(
        f"[{status}] {record['workload']}: {record['attempted'] - record['failed']}"
        f"/{record['attempted']} checked units passed"
    )
    for error in record["errors"]:
        print(f"  - {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(record)
        records.append(record)
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (name if len(records) == 1 else f"{r['workload']}.{name}"): {
                "value": value,
                "unit": UNITS[name],
            }
            for r in records
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
