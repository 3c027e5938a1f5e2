"""Batched fleet execution: one :class:`BatchedWorld` per fleet workload.

The serial campaign path runs each unit's iteration batch through its own
:class:`~repro.sim.engine.World`.  With the exact thermal solver the
whole fleet instead advances in lock-step through
:class:`repro.sim.batch.BatchedWorld` — mixed device models grouped into
per-model cohort blocks, one batched propagation and one vectorized power
evaluation per engine step — while producing the same
:class:`~repro.core.results.IterationResult` fields the protocol builds
(within the ulp-level budget documented by ``repro.check``'s
``BATCH_SPEC``).  Skin throttles, memory-bounded workloads and the
runtime invariant suite all run vectorized inside the batched engine.

Eligibility is decided by :func:`batch_ineligibility_reason`; only what
the batched engine genuinely cannot model (Euler integration, disabled
sleep fast-forward) falls back to the serial per-unit path.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.core.config import AccubenchConfig
from repro.core.experiments import ExperimentSpec
from repro.core.protocol import MIN_COOLDOWN_MARGIN_C
from repro.core.results import DeviceResult, IterationResult
from repro.device.phone import Device
from repro.errors import ConfigurationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import BatchedThermabox, ThermaboxConfig
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.sim.batch import BatchedWorld
from repro.sim.trace import Trace
from repro.soc.perf import iterations_from_ops

if TYPE_CHECKING:  # circular at runtime, exactly like repro.core.parallel
    from repro.core.runner import CampaignConfig

#: Fleets below this size default to the serial path when batching is on
#: "auto": the fixed per-step numpy overhead only amortizes across units.
MIN_AUTO_BATCH_UNITS = 4


def batch_ineligibility_reason(
    config: "CampaignConfig",
    experiment: ExperimentSpec,
    devices: Sequence[Device],
) -> Optional[str]:
    """Why this fleet cannot run batched, or ``None`` if it can.

    The reasons mirror the assumptions baked into
    :class:`~repro.sim.batch.BatchedWorld`: exact propagation (one
    (Φ, Ψ) pair per model cohort) and sleep fast-forward cooldowns.
    Mixed-model fleets, invariant observers, skin throttles and
    memory-bounded workloads all run batched.
    """
    bench = config.accubench
    if bench.thermal_solver != "expm":
        return "thermal_solver is not 'expm'"
    if not bench.sleep_fast_forward:
        return "sleep_fast_forward is disabled"
    if not devices:
        return "empty fleet"
    if any(not dev.thermal.is_exact for dev in devices):
        return "device thermal network is not exact (expm)"
    return None


def shard_bounds(fleet: Sequence[Device], jobs: int) -> List[int]:
    """Cut points slicing a batched fleet into contiguous shards.

    This is the one place batched task sizing is decided (the runner and
    any future dispatcher call it rather than re-deriving the policy): at
    most ``jobs`` shards so every worker gets one, each at least
    :data:`MIN_AUTO_BATCH_UNITS` units so the batched step's fixed numpy
    cost still amortizes.  On a mixed-model fleet the cuts snap to model
    boundaries — a per-model cohort block split across shards would
    shrink its GEMM batch on both sides.  Units are never reordered:
    ``fleet[bounds[i]:bounds[i+1]]`` slices reassemble in fleet order.
    """
    shard_count = max(1, min(jobs, len(fleet) // MIN_AUTO_BATCH_UNITS))
    bounds = [
        round(i * len(fleet) / shard_count) for i in range(shard_count + 1)
    ]
    changes = [
        i
        for i in range(1, len(fleet))
        if fleet[i].spec.name != fleet[i - 1].spec.name
    ]
    if changes:
        snapped = [0]
        for cut in bounds[1:-1]:
            nearest = min(changes, key=lambda boundary: abs(boundary - cut))
            if nearest > snapped[-1]:
                snapped.append(nearest)
        snapped.append(len(fleet))
        bounds = snapped
    return bounds


def run_batch(
    devices: Sequence[Device],
    experiment: ExperimentSpec,
    config: "CampaignConfig",
    ambient_c: Optional[float] = None,
    iterations: Optional[int] = None,
    supply_voltage: Optional[float] = None,
) -> List[DeviceResult]:
    """Run one fleet's full iteration batch through a :class:`BatchedWorld`.

    Mirrors :meth:`CampaignRunner.run_device` over every unit at once:
    Monsoon per unit, one chamber (columnized) stabilized once, then
    ``iterations`` back-to-back warmup → cooldown → workload passes.
    Returns per-unit :class:`DeviceResult`\\ s in fleet order.
    """
    from repro.core.runner import CampaignRunner

    reason = batch_ineligibility_reason(config, experiment, devices)
    if reason is not None:
        raise ConfigurationError(f"fleet is not batchable: {reason}")
    runner = CampaignRunner(config)
    bench = config.accubench
    count = iterations if iterations is not None else bench.iterations
    if count < 1:
        raise ConfigurationError("iterations must be at least 1")
    units = len(devices)
    for device in devices:
        volts = (
            supply_voltage
            if supply_voltage is not None
            else runner.monsoon_voltage_for(device.spec)
        )
        device.connect_supply(MonsoonPowerMonitor(volts))

    target = ambient_c if ambient_c is not None else config.ambient_c
    if config.use_thermabox:
        chamber = BatchedThermabox(
            ThermaboxConfig(target_c=target), count=units, initial_temp_c=target
        )
        room_temp = config.room_temp_c
    else:
        chamber = None
        room_temp = target

    registry = default_registry()
    # One live propagator per model cohort; dedupe by identity so a shared
    # instance is not double-counted in the cache telemetry.
    propagators = list(
        {
            id(dev.thermal.propagator): dev.thermal.propagator
            for dev in devices
            if dev.thermal.propagator is not None
        }.values()
    )
    hits_before = sum(p.cache_hits for p in propagators)
    misses_before = sum(p.cache_misses for p in propagators)

    results: List[List[IterationResult]] = [[] for _ in range(units)]
    started_wall = time.perf_counter()
    looped_total = 0
    with registry.span(
        "run_batch",
        model="+".join(sorted({dev.spec.name for dev in devices})),
        units=units,
        workload=experiment.name,
        iterations=count,
    ):
        if chamber is not None:
            chamber.wait_until_stable(config.room_temp_c)
        world = BatchedWorld(
            devices,
            room_temp_c=room_temp,
            chamber=chamber,
            dt=bench.dt,
            trace_decimation=bench.trace_decimation,
            check_invariants=bench.check_invariants,
        )
        for iteration in range(count):
            cooldown_s, energy_j, completed = run_batch_iteration(
                world, bench, experiment, registry
            )
            # A fleet campaign has no drops: a unit whose supply failed
            # aborts it, as it would on the serial path.
            for failure in world.failures:
                if failure is not None:
                    raise failure
            looped_total += int(world.looped_steps.sum())
            if registry.enabled:
                # Iteration-boundary cursor for the live /status endpoint:
                # a long multi-iteration shard shows movement between
                # shard completions without the hot loop being touched.
                registry.gauge("batch.iterations_done").set(iteration + 1)
                elapsed = time.perf_counter() - started_wall
                if elapsed > 0:
                    registry.gauge("batch.steps_per_sec").set(
                        looped_total / elapsed
                    )

            traces = world.traces
            for i, device in enumerate(devices):
                trace = traces[i]
                results[i].append(
                    IterationResult(
                        model=device.spec.name,
                        serial=device.serial,
                        workload=experiment.name,
                        iterations_completed=iterations_from_ops(
                            float(completed[i])
                        ),
                        energy_j=float(energy_j[i]),
                        mean_power_w=float(energy_j[i]) / bench.workload_s,
                        mean_freq_mhz=float(
                            np.mean(trace.phase_column("workload", "freq"))
                        ),
                        max_cpu_temp_c=trace.max("cpu_temp"),
                        cooldown_s=float(cooldown_s[i]),
                        time_throttled_s=_throttled_time(trace),
                        trace=trace if bench.keep_traces else None,
                    )
                )
        world.finalize()
    _publish_batch_metrics(
        registry,
        world,
        chamber,
        propagators,
        hits_before,
        misses_before,
        looped_total,
        time.perf_counter() - started_wall,
    )
    return [
        DeviceResult(
            model=device.spec.name,
            serial=device.serial,
            workload=experiment.name,
            iterations=tuple(results[i]),
        )
        for i, device in enumerate(devices)
    ]


def run_batch_iteration(
    world: BatchedWorld,
    bench: "AccubenchConfig",
    experiment: ExperimentSpec,
    registry: MetricsRegistry,
):
    """One warmup → cooldown → workload pass over an existing batched world.

    The batched mirror of :meth:`Accubench.run_iteration`'s phase machine,
    shared by the campaign fleet runner above and the streaming crowd
    engine (:mod:`repro.core.crowd_stream`).  Returns per-unit
    ``(cooldown_s, energy_j, completed_ops)`` arrays; traces for the
    iteration are left on ``world.traces``.
    """
    sim_clock = lambda: float(world.clock_now.max())  # noqa: E731
    world.begin_iteration()
    if experiment.is_unconstrained:
        world.unconstrain_frequency()
    else:
        assert experiment.fixed_freq_mhz is not None  # spec invariant
        world.set_fixed_frequency(experiment.fixed_freq_mhz)

    world.acquire_wakelock()
    world.start_load(bench.utilization, bench.memory_boundedness)
    world.set_phase("warmup")
    with registry.span("phase.warmup", clock=sim_clock):
        world.run_for(bench.warmup_s)

    world.stop_load()
    world.release_wakelock()
    world.set_phase("cooldown")
    targets = np.maximum(
        bench.cooldown_target_c,
        world.ambient_now() + MIN_COOLDOWN_MARGIN_C,
    )
    with registry.span("phase.cooldown", clock=sim_clock):
        cooldown_s = world.run_cooldown(
            targets, bench.cooldown_poll_s, bench.cooldown_timeout_s
        )

    world.acquire_wakelock()
    world.start_load(bench.utilization, bench.memory_boundedness)
    energy_before = world.energy_drawn_j
    ops_before = world.ops_total
    world.set_phase("workload")
    with registry.span("phase.workload", clock=sim_clock):
        world.run_for(bench.workload_s)
    energy_j = world.energy_drawn_j - energy_before
    completed = world.ops_total - ops_before
    world.stop_load()
    world.release_wakelock()
    world.close()
    _publish_iteration_metrics(registry, world)
    return cooldown_s, energy_j, completed


def _throttled_time(trace: Trace) -> float:
    """Per-unit mirror of ``Accubench._throttled_time``."""
    try:
        steps = trace.phase_column("workload", "throttle_steps")
    except Exception:  # no workload phase recorded
        return 0.0
    times = trace.times()
    if times.size < 2 or steps.size == 0:
        return 0.0
    sample_spacing = float(times[1] - times[0])
    return float((steps > 0).sum()) * sample_spacing


def _publish_iteration_metrics(
    registry: MetricsRegistry, world: BatchedWorld
) -> None:
    """One iteration's engine tallies, summed over units.

    The counters land on the same keys ``Accubench._publish_world_metrics``
    uses, so a metrics document reads identically whether the fleet ran
    serially or batched.
    """
    if not registry.enabled:
        return
    registry.counter("engine.steps").add(int(world.looped_steps.sum()))
    registry.counter("engine.fast_forward_steps").add(
        int(world.fast_forward_steps.sum())
    )
    registry.counter("engine.fast_forward_windows").add(
        int(world.fast_forward_windows.sum())
    )
    registry.counter("engine.sim_time_s").add(float(world.clock_now.sum()))
    throttle = sum(log.count("throttle-step") for log in world.event_logs)
    offline = sum(log.count("core-offline") for log in world.event_logs)
    registry.counter("engine.throttle_events").add(throttle)
    registry.counter("engine.core_offline_events").add(offline)
    registry.counter("protocol.iterations").add(world.count)


def _publish_batch_metrics(
    registry: MetricsRegistry,
    world: BatchedWorld,
    chamber: Optional[BatchedThermabox],
    propagators: Sequence,
    hits_before: int,
    misses_before: int,
    looped_total: int,
    wall_s: float,
) -> None:
    """Batch-level telemetry: instrument tallies plus batching gauges."""
    if not registry.enabled:
        return
    hits = sum(p.cache_hits for p in propagators) - hits_before
    misses = sum(p.cache_misses for p in propagators) - misses_before
    registry.counter("propagator.cache_hits").add(hits)
    registry.counter("propagator.cache_misses").add(misses)
    registry.counter("thermabox.heater_duty_s").add(
        float(chamber.heater_duty_seconds.sum()) if chamber is not None else 0.0
    )
    registry.counter("thermabox.cooler_duty_s").add(
        float(chamber.cooler_duty_seconds.sum()) if chamber is not None else 0.0
    )
    registry.counter("thermabox.elapsed_s").add(
        float(chamber.elapsed_s.sum()) if chamber is not None else 0.0
    )
    registry.gauge("batch.size").set(world.count)
    registry.counter("batch.cohort_splits").add(world.cohort_splits)
    if wall_s > 0:
        registry.gauge("batch.steps_per_sec").set(looped_total / wall_s)
