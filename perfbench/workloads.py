"""The benchmark's three workloads, driven through the public API.

Each workload pins only what the matching CLI command pins, so a later
change to a default (solver, backend, batching) moves the numbers instead
of being bypassed:

* ``paper_study`` -- ``repro-bench validate``: all five paper fleets, both
  experiments, default :class:`AccubenchConfig`, THERMABOX on, jobs 1.
* ``crowd_stream`` -- ``repro-bench crowd --stream``: the field protocol
  with ``thermal_solver="expm"`` (the one thing the CLI forces), one model,
  cohort 256, a checkpoint after every cohort, jobs = nproc.
* ``traced_fleet`` -- lottery-drawn Nexus 5 and Google Pixel fleets with
  ``keep_traces=True``, one paper-length iteration, jobs = nproc; every
  trace feeds :func:`summarize_workload` (the Figs 11-12 analysis).

Every function here runs inside one child process of ``run.py``; nothing
in this module imports :mod:`repro` at import time, so a child can time
its own imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from typing import Any, Dict, List, Tuple

#: Scale knobs (the benchmark's inputs besides the seed) live in spec.json.
with open(os.path.join(os.path.dirname(__file__), "spec.json")) as _spec:
    _SCALE = {
        name: entry["scale"]["value"]
        for name, entry in json.load(_spec)["workloads"].items()
    }
WORKLOADS = tuple(_SCALE)
PAPER_MODELS = tuple(_SCALE["paper_study"])
#: A Nexus 5 crowd aborts on a few percent of seeds: its leakiest dies in
#: the hottest rooms run away thermally until the battery cannot deliver
#: the load, and the campaign raises instead of dropping that user (see
#: ``known_defects`` in spec.json).  The Google Pixel's worst corner stays
#: near 80 °C, so every seed completes.
CROWD_MODEL = "Google Pixel"
CROWD_USERS = _SCALE["crowd_stream"]
CROWD_COHORT = 256
FLEET_MODELS = ("Nexus 5", "Google Pixel")
FLEET_UNITS_PER_MODEL = _SCALE["traced_fleet"]


# ---------------------------------------------------------------------------
# paper_study


def _paper_runner(seed: int):
    from repro.core.runner import CampaignConfig, CampaignRunner

    class RecordingRunner(CampaignRunner):
        """The CLI's runner, keeping each fleet result for the sim-time sum."""

        def __init__(self, config):
            super().__init__(config)
            self.results: List[Any] = []

        def run_fleet(self, *args, **kwargs):
            result = super().run_fleet(*args, **kwargs)
            self.results.append(result)
            return result

    return RecordingRunner(CampaignConfig(root_seed=seed))


def paper_setup(seed: int) -> None:
    """Build every fleet ``validate`` builds; paper_study starts no pool."""
    from repro.core.runner import CampaignConfig
    from repro.device.fleet import paper_fleet

    config = CampaignConfig(root_seed=seed)
    for model in PAPER_MODELS:
        for _experiment in range(2):  # one fleet per experiment
            paper_fleet(
                model,
                root_seed=config.root_seed,
                initial_temp_c=config.ambient_c,
                thermal_solver=config.accubench.thermal_solver,
            )


def paper_run(seed: int) -> Dict[str, Any]:
    """``validate`` over all five models; jobs is always 1, as the CLI's."""
    from repro.validation import validate_study

    runner = _paper_runner(seed)
    checks = validate_study(runner, models=list(PAPER_MODELS))
    bench = runner.config.accubench
    unit_iterations = 0
    sim_s = 0.0
    for experiment in runner.results:
        for device in experiment.devices:
            for iteration in device.iterations:
                unit_iterations += 1
                sim_s += bench.warmup_s + iteration.cooldown_s + bench.workload_s
    passed = sum(1 for check in checks if check.passed)
    failed = [check.name for check in checks if not check.passed]
    return {
        "unit_iterations": unit_iterations,
        "sim_s": sim_s,
        "bands_passed": passed,
        "bands_total": len(checks),
        "check_errors": (
            [] if passed == 20 and len(checks) == 20
            else [f"paper bands {passed}/{len(checks)}: failed {failed}"]
        ),
        "digest": _digest_floats(check.measured for check in checks),
    }


# ---------------------------------------------------------------------------
# crowd_stream


def _crowd_config(seed: int):
    from dataclasses import replace

    from repro.core.crowd import CrowdConfig

    return CrowdConfig(
        model=CROWD_MODEL,
        user_count=CROWD_USERS,
        protocol=replace(CrowdConfig().protocol, thermal_solver="expm"),
        root_seed=seed,
    )


def _start_pool(jobs: int) -> None:
    """Start (and close) the pool the CLI's ``auto`` backend would use."""
    from repro.core.backends import resolve_backend

    backend = resolve_backend("auto", jobs)
    try:
        for _ in backend.execute(iter(()), jobs):  # starts workers, no tasks
            pass
    finally:
        backend.close()


def crowd_setup(seed: int, jobs: int) -> None:
    """Plan every cohort's users, then start the worker pool."""
    from repro.core.crowd import crowd_param_stream, plan_users

    config = _crowd_config(seed)
    rng = crowd_param_stream(config)
    for start in range(0, config.user_count, CROWD_COHORT):
        plan_users(config, rng, start, min(CROWD_COHORT, config.user_count - start))
    _start_pool(jobs)


def crowd_run(seed: int, jobs: int, scratch: str) -> Dict[str, Any]:
    """``crowd --stream --checkpoint`` as the CLI runs it."""
    from repro.core.crowd_stream import run_streaming_crowd_study
    from repro.obs import ProgressBus, default_watchdog

    config = _crowd_config(seed)
    os.makedirs(scratch, exist_ok=True)
    warnings: List[str] = []
    try:
        result = run_streaming_crowd_study(
            config,
            cohort_size=CROWD_COHORT,
            jobs=jobs,
            checkpoint_path=os.path.join(scratch, "crowd.ckpt.json"),
            checkpoint_every=1,
            telemetry=ProgressBus(),
            watchdog=default_watchdog(),
            log=warnings.append,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    document = result.to_dict()
    dropped = sum(result.dropped.values())
    errors = []
    if result.users_simulated != config.user_count:
        errors.append(
            f"simulated {result.users_simulated} of {config.user_count} users"
        )
    if result.users_simulated != result.submission_count + dropped:
        errors.append(
            f"users {result.users_simulated} != submissions "
            f"{result.submission_count} + drops {dropped}"
        )
    if not result.complete:
        errors.append(
            f"{result.cohorts_completed}/{result.cohorts_total} cohorts folded"
        )
    protocol = config.protocol
    per_user_s = (
        config.probe_heat_s + config.probe_observe_s
        + protocol.warmup_s + protocol.workload_s
    )
    return {
        "unit_iterations": result.users_simulated,
        "sim_s": result.users_simulated * per_user_s,
        "ranking_rho": result.ranking_quality_filtered,
        "submission_ratio": result.submission_count / result.users_simulated,
        "check_errors": errors,
        "digest": hashlib.sha256(
            repr(sorted(document.items())).encode()
        ).hexdigest(),
    }


# ---------------------------------------------------------------------------
# traced_fleet


def _fleet_config(seed: int, jobs: int):
    from dataclasses import replace

    from repro.core.config import AccubenchConfig
    from repro.core.runner import CampaignConfig

    return CampaignConfig(
        accubench=replace(AccubenchConfig(), keep_traces=True, iterations=1),
        root_seed=seed,
        jobs=jobs,
    )


def _fleets(config) -> List[Tuple[str, List[Any]]]:
    from repro.device.fleet import synthetic_fleet

    return [
        (
            model,
            synthetic_fleet(
                model,
                FLEET_UNITS_PER_MODEL,
                root_seed=config.root_seed,
                initial_temp_c=config.ambient_c,
                thermal_solver=config.accubench.thermal_solver,
            ),
        )
        for model in FLEET_MODELS
    ]


def fleet_setup(seed: int, jobs: int) -> None:
    """Draw both fleets from the lottery, then start the worker pool."""
    _fleets(_fleet_config(seed, jobs))
    _start_pool(jobs)


def fleet_run(seed: int, jobs: int) -> Dict[str, Any]:
    """Run both fleets and distill every trace for Figs 11-12."""
    import numpy as np

    from repro.core.distributions import summarize_workload
    from repro.core.experiments import unconstrained
    from repro.core.runner import CampaignRunner

    config = _fleet_config(seed, jobs)
    runner = CampaignRunner(config)
    bench = config.accubench
    digest = hashlib.sha256()
    errors: List[str] = []
    unit_iterations = 0
    sim_s = 0.0
    for model, fleet in _fleets(config):
        result = runner.run_fleet(model, unconstrained(), devices=fleet)
        for device in result.devices:
            for iteration in device.iterations:
                unit_iterations += 1
                sim_s += bench.warmup_s + iteration.cooldown_s + bench.workload_s
                trace = iteration.trace
                if trace is None or len(trace) == 0:
                    errors.append(f"{device.serial}: no trace kept")
                    continue
                times = trace.times()
                if not bool(np.all(np.diff(times) > 0)):
                    errors.append(f"{device.serial}: trace time axis not increasing")
                summary = summarize_workload(trace, device.serial)
                samples = np.ascontiguousarray(trace.samples())
                digest.update(device.serial.encode())
                digest.update(repr(trace.channels).encode())
                digest.update(repr(trace.phases).encode())
                digest.update(samples.tobytes())
                digest.update(
                    _digest_floats(
                        (
                            iteration.iterations_completed,
                            iteration.energy_j,
                            iteration.mean_power_w,
                            iteration.mean_freq_mhz,
                            iteration.max_cpu_temp_c,
                            iteration.cooldown_s,
                            iteration.time_throttled_s,
                            summary.mean_freq_mhz,
                            summary.freq_p10_mhz,
                            summary.freq_p90_mhz,
                            summary.mean_temp_c,
                            summary.time_above_hot_s,
                        )
                    ).encode()
                )
    return {
        "unit_iterations": unit_iterations,
        "sim_s": sim_s,
        "check_errors": errors,
        "digest": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------


def _digest_floats(values) -> str:
    """Bit-exact digest of a sequence of floats."""
    digest = hashlib.sha256()
    for value in values:
        digest.update(struct.pack("<d", float(value)))
    return digest.hexdigest()


def setup(workload: str, seed: int, jobs: int) -> None:
    """Imports aside, everything a workload does before its first step."""
    if workload == "paper_study":
        paper_setup(seed)
    elif workload == "crowd_stream":
        crowd_setup(seed, jobs)
    else:
        fleet_setup(seed, jobs)


def run(workload: str, seed: int, jobs: int, scratch: str) -> Dict[str, Any]:
    """One pass of a workload; returns its counts, checks and digest."""
    if workload == "paper_study":
        return paper_run(seed)
    if workload == "crowd_stream":
        return crowd_run(seed, jobs, scratch)
    return fleet_run(seed, jobs)


def planned_attempts(workload: str) -> int:
    """What one pass attempts: unit-iterations, or cohorts for the crowd."""
    if workload == "paper_study":
        from repro.core.config import AccubenchConfig
        from repro.device.fleet import PAPER_FLEETS

        units = sum(len(PAPER_FLEETS[model]) for model in PAPER_MODELS)
        return units * 2 * AccubenchConfig().iterations  # two experiments
    if workload == "crowd_stream":
        return -(-CROWD_USERS // CROWD_COHORT)
    return FLEET_UNITS_PER_MODEL * len(FLEET_MODELS)


def default_jobs(workload: str) -> int:
    """The worker count the matching CLI invocation uses."""
    return 1 if workload == "paper_study" else (os.cpu_count() or 1)
