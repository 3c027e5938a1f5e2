"""Spans around the calls into each layer, installed from the benchmark.

The program is not edited: :class:`Tracer` replaces public methods and
module functions with timing wrappers for the length of one traced pass
and restores them afterwards.  A span is ``(id, name, start, end,
parent)``; a layer's self time is its spans' durations minus the part
their child spans cover.  Spans fired once per engine step (device, SoC,
thermal, chamber, Monsoon and trace calls) are folded into per-name
totals as they close, so memory stays bounded on a paper-length run;
every coarser span is also kept as a record and written out when the
pass ends.

Outside counts (engine steps, batched unit-steps, transport bytes) are
taken at the same boundaries and cross-checked against the counters the
program publishes to its :mod:`repro.obs` registry.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer of every traced call, named after the program's modules.
ENGINE = "sim.engine"
DEVICE = "device"
SOC = "soc"
THERMAL = "thermal"
CHAMBER = "instruments.chamber"
MONSOON = "instruments.monsoon"
BATCH = "sim.batch"
TRACE = "sim.trace"
DISPATCH = "core.backends"
AMBIENT = "core.ambient_estimation"
CROWD = "core.crowd_stream"
ROOT = "workload"


class Tracer:
    """In-memory spans, per-name totals and outside counts for one pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[Tuple[int, str, float, float, int]] = []
        #: name -> [calls, total_s, self_s, outer_s, layer, outer_calls];
        #: the ``outer`` fields count only spans whose parent is in another
        #: layer, so nested calls within one layer are not counted twice.
        self.stats: Dict[str, List[Any]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[Any]] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Batched worlds seen: id -> (units, cohort splits).
        self.worlds: Dict[int, Tuple[int, int]] = {}
        #: Exact propagators seen, for their own cache counters.
        self.propagators: Dict[int, Any] = {}

    # -- spans --------------------------------------------------------------

    def _timed(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        keep: bool,
        hook: Optional[Callable[..., Callable[[Any], None]]] = None,
    ) -> Callable[..., Any]:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, layer, 0])
        stack = self._stack
        records = self.records
        ids = self._ids
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [next(ids), layer, 0.0]
            finish = hook(*args, **kwargs) if hook is not None else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if parent is None or parent[1] != layer:
                    stats[3] += duration
                    stats[5] += 1
                if keep:
                    records.append(
                        (frame[0], name, start, end, parent[0] if parent else 0)
                    )
            if finish is not None:
                finish(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the pass's root span."""
        return self._timed(fn, ROOT, ROOT, keep=True)()

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        keep: bool = False,
        hook: Optional[Callable[..., Callable[[Any], None]]] = None,
        name: Optional[str] = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}"
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, label, layer, keep, hook))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers ----------------------------------------------------

    def layer_time(self, layer: str) -> float:
        """Wall time inside a layer's outermost spans."""
        return sum(s[3] for s in self.stats.values() if s[4] == layer)

    def layer_self(self, layer: str) -> float:
        """A layer's self time: its spans minus their children."""
        return sum(s[2] for s in self.stats.values() if s[4] == layer)

    def layer_calls(self, layer: str) -> int:
        """Calls into a layer from outside it."""
        return sum(s[5] for s in self.stats.values() if s[4] == layer)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the kept spans and per-name totals as one JSON document."""
        document = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.records,
            "totals": {
                name: {
                    "layer": s[4],
                    "calls": s[0],
                    "total_s": s[1],
                    "self_s": s[2],
                    "outer_s": s[3],
                    "outer_calls": s[5],
                }
                for name, s in sorted(self.stats.items())
            },
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w") as fp:
            json.dump(document, fp)


# ---------------------------------------------------------------------------
# Compute layers (installed around an in-process pass)


def install_compute(tracer: Tracer) -> None:
    """Wrap the per-step model, the batched engine and the crowd pipeline."""
    import repro.core.ambient_estimation as ambient_estimation
    import repro.core.batch_runner as batch_runner
    import repro.core.crowd_stream as crowd_stream
    import repro.core.distributions as distributions
    from repro.core.crowd_stream import CrowdEstimators
    from repro.device.phone import Device
    from repro.instruments.monsoon import MonsoonPowerMonitor
    from repro.instruments.thermabox import BatchedThermabox, Thermabox
    from repro.sim.batch import BatchedWorld
    from repro.sim.engine import World
    from repro.sim.trace import Trace
    from repro.soc.instance import Soc
    from repro.soc.throttling import ThrottlePolicy
    from repro.thermal.network import ThermalNetwork
    from repro.thermal.propagator import ExpmPropagator

    counts = tracer.counts

    def world_run_for(world: Any, duration_s: float) -> None:
        counts["engine.steps"] += round(duration_s / world.clock.dt)

    def world_run_until(world: Any, *args: Any, **kwargs: Any):
        clock_before = world.clock.steps
        looped_before = counts["engine.steps"]

        def finish(_: Any) -> None:
            looped = counts["engine.steps"] - looped_before
            counts["engine.ff_steps"] += world.clock.steps - clock_before - looped

        return finish

    def batched_advance(world: Any, *args: Any, **kwargs: Any):
        before = int(world.looped_steps.sum())

        def finish(_: Any) -> None:
            steps = int(world.looped_steps.sum()) - before
            counts["batch.unit_steps"] += steps
            if counts["batch.in_iteration"]:
                counts["batch.iteration_unit_steps"] += steps
            tracer.worlds[id(world)] = (world.count, world.cohort_splits)

        return finish

    def propagator_seen(propagator: Any, *args: Any, **kwargs: Any):
        tracer.propagators[id(propagator)] = propagator

    def in_iteration(*args: Any, **kwargs: Any):
        counts["batch.in_iteration"] += 1

        def finish(_: Any) -> None:
            counts["batch.in_iteration"] -= 1

        return finish

    def trace_append(trace: Any, time_s: float, values: Any):
        counts["trace.rows"] += 1
        counts["trace.bytes"] += (len(values) + 1) * 8

    def chamber_step(*args: Any, **kwargs: Any):
        counts["chamber.steps"] += 1

    def mitigation_poll(*args: Any, **kwargs: Any):
        counts["soc.mitigation_polls"] += 1

    def ambient_fit(*args: Any, **kwargs: Any):
        counts["ambient.fits"] += 1

    def checkpoint_file(path_arg: int):
        def hook(*args: Any, **kwargs: Any):
            path = args[path_arg] if len(args) > path_arg else kwargs.get("path")

            def finish(_: Any) -> None:
                counts["crowd.checkpoint_bytes"] += os.path.getsize(str(path))

            return finish

        return hook

    patch = tracer.patch
    patch(World, "run_for", ENGINE, keep=True, hook=world_run_for)
    patch(World, "run_until", ENGINE, keep=True, hook=world_run_until)
    patch(Device, "step", DEVICE)
    patch(Soc, "step", SOC)
    patch(ThrottlePolicy, "update", SOC, hook=mitigation_poll)
    patch(ThermalNetwork, "step_vector", THERMAL)
    patch(ExpmPropagator, "advance", THERMAL, hook=propagator_seen)
    patch(ExpmPropagator, "advance_batch", THERMAL, hook=propagator_seen)
    patch(Thermabox, "step", CHAMBER, hook=chamber_step)
    patch(Thermabox, "run_for", CHAMBER)
    patch(Thermabox, "wait_until_stable", CHAMBER, keep=True)
    patch(BatchedThermabox, "step_masked", CHAMBER, hook=chamber_step)
    patch(BatchedThermabox, "run_for_masked", CHAMBER)
    patch(BatchedThermabox, "wait_until_stable", CHAMBER, keep=True)
    patch(MonsoonPowerMonitor, "draw", MONSOON)
    patch(Trace, "append", TRACE, hook=trace_append)
    for method in ("run_for", "run_cooldown", "run_asleep"):
        patch(BatchedWorld, method, BATCH, keep=True, hook=batched_advance)
    for method in ("__init__", "read_sensors", "finalize"):
        patch(BatchedWorld, method, BATCH, keep=True)
    # Unit-steps inside protocol iterations are what the program's own
    # ``engine.steps`` counter covers; the crowd probe runs before the
    # iteration resets the batched clock.
    for module in (batch_runner, crowd_stream):
        patch(
            module, "run_batch_iteration", "core.batch_runner", keep=True,
            hook=in_iteration,
            name=f"{module.__name__}.run_batch_iteration",
        )
    for module in (ambient_estimation, crowd_stream):
        patch(
            module, "estimate_ambient", AMBIENT, keep=True, hook=ambient_fit,
            name=f"{module.__name__}.estimate_ambient",
        )
    patch(crowd_stream, "plan_users", CROWD, keep=True, name="crowd.plan_users")
    patch(crowd_stream, "crowd_fleet", CROWD, keep=True, name="crowd.crowd_fleet")
    patch(CrowdEstimators, "fold", CROWD, name="crowd.fold")
    patch(
        crowd_stream, "write_checkpoint", CROWD, keep=True,
        hook=checkpoint_file(0), name="crowd.write_checkpoint",
    )
    patch(
        crowd_stream, "write_manifest", CROWD, keep=True,
        hook=checkpoint_file(1), name="crowd.write_manifest",
    )
    patch(distributions, "summarize_workload", "core.distributions", keep=True)


# ---------------------------------------------------------------------------
# Dispatch (installed around a jobs = nproc pass, parent side only)


class _CountingPickle:
    """``pickle`` as the backends module sees it, metering result bytes."""

    def __init__(self, counts: Dict[str, float]) -> None:
        self._counts = counts

    def loads(self, data: bytes, *args: Any, **kwargs: Any) -> Any:
        self._counts["outside.result_pickle_bytes"] += len(data)
        return pickle.loads(data, *args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(pickle, name)


def install_dispatch(tracer: Tracer) -> None:
    """Wrap the execution backends' ``execute`` and worker start-up."""
    import multiprocessing.process

    import repro.core.backends as backends

    counts = tracer.counts
    clock = time.perf_counter

    def metered(tasks: Any, shared_memory: bool):
        for task in tasks:
            counts["dispatch.tasks"] += 1
            if shared_memory:
                counts["outside.task_pickle_bytes"] += len(
                    pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                )
            yield task

    def timed_execute(original: Callable[..., Any]):
        def execute(backend: Any, tasks: Any, jobs: int, *args: Any, **kwargs: Any):
            counts["dispatch.jobs"] = max(counts["dispatch.jobs"], jobs)
            shm = isinstance(backend, backends.SharedMemoryBackend)
            stream = original(backend, metered(tasks, shm), jobs, *args, **kwargs)
            try:
                while True:
                    start = clock()
                    try:
                        index, payload = next(stream)
                    except StopIteration:
                        counts["dispatch.parent_wait_s"] += clock() - start
                        return
                    counts["dispatch.parent_wait_s"] += clock() - start
                    counts["dispatch.worker_busy_s"] += payload.wall_s
                    for result in payload.results:
                        for iteration in getattr(result, "iterations", ()):
                            trace = iteration.trace
                            if shm and trace is not None and len(trace) > 0:
                                counts["outside.shm_bytes"] += trace.samples().nbytes
                    yield index, payload
            finally:
                stream.close()

        return execute

    for cls in (
        backends.InProcessBackend,
        backends.ProcessPoolBackend,
        backends.SharedMemoryBackend,
    ):
        tracer.replace(cls, "execute", timed_execute(cls.execute))
    tracer.replace(backends, "pickle", _CountingPickle(counts))

    start_process = multiprocessing.process.BaseProcess.start

    def timed_start(process: Any) -> None:
        began = clock()
        try:
            start_process(process)
        finally:
            counts["dispatch.pool_start_s"] += clock() - began

    tracer.replace(multiprocessing.process.BaseProcess, "start", timed_start)


# ---------------------------------------------------------------------------
# Per-layer metrics


def compute_metrics(
    tracer: Tracer, counters: Dict[str, Any], wall_s: float
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer numbers of an in-process traced pass, plus cross-check errors."""
    c = tracer.counts
    program = counters.get("counters", {})
    engine_steps = c["engine.steps"]
    unit_steps = c["batch.unit_steps"]
    engine_s = tracer.layer_time(ENGINE)
    batch_s = sum(  # these three never nest in one another
        tracer.stats[f"BatchedWorld.{m}"][1]
        for m in ("run_for", "run_cooldown", "run_asleep")
        if f"BatchedWorld.{m}" in tracer.stats
    )
    hits = program.get("propagator.cache_hits", 0.0)
    misses = program.get("propagator.cache_misses", 0.0)
    if hits + misses == 0:  # the crowd path publishes no propagator counts
        hits = sum(p.cache_hits for p in tracer.propagators.values())
        misses = sum(p.cache_misses for p in tracer.propagators.values())
    attributed = sum(s[2] for s in tracer.stats.values() if s[4] != ROOT)
    metrics = {
        "engine.steps": engine_steps,
        "engine.ff_steps": c["engine.ff_steps"],
        "engine.us_per_step": 1e6 * engine_s / engine_steps if engine_steps else 0.0,
        "device.step_self_s": tracer.layer_self(DEVICE),
        "soc.step_self_s": tracer.layer_self(SOC),
        "soc.mitigation_polls": c["soc.mitigation_polls"],
        "thermal.advance_calls": tracer.layer_calls(THERMAL),
        "thermal.advance_s": tracer.layer_time(THERMAL),
        "propagator.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "chamber.steps": c["chamber.steps"],
        "chamber.step_s": tracer.layer_time(CHAMBER),
        "monsoon.draw_s": tracer.layer_time(MONSOON),
        "batch.unit_steps": unit_steps,
        "batch.us_per_unit_step": 1e6 * batch_s / unit_steps if unit_steps else 0.0,
        "batch.size": max((n for n, _ in tracer.worlds.values()), default=0),
        "batch.cohort_splits": sum(s for _, s in tracer.worlds.values()),
        "trace.rows": c["trace.rows"],
        "trace.bytes": c["trace.bytes"],
        "trace.append_s": tracer.layer_time(TRACE),
        "ambient.fits": c["ambient.fits"],
        "ambient.fit_s": tracer.layer_time(AMBIENT),
        "crowd.plan_s": tracer.self_time("crowd.plan_users"),
        "crowd.fold_s": tracer.self_time("crowd.fold"),
        "crowd.checkpoint_s": tracer.self_time(
            "crowd.write_checkpoint", "crowd.write_manifest"
        ),
        "crowd.checkpoint_bytes": c["crowd.checkpoint_bytes"],
        "unattributed_frac": 1.0 - attributed / wall_s if wall_s > 0 else 0.0,
    }
    errors = []
    program_steps = program.get("engine.steps", 0.0)
    outside_steps = engine_steps + c["batch.iteration_unit_steps"]
    if outside_steps != program_steps:
        errors.append(
            f"engine steps: outside {outside_steps:.0f} (serial {engine_steps:.0f}"
            f" + batched {c['batch.iteration_unit_steps']:.0f}) != program "
            f"engine.steps {program_steps:.0f}"
        )
    return metrics, errors


def dispatch_metrics(
    tracer: Tracer, counters: Dict[str, Any], wall_s: float
) -> Tuple[Dict[str, float], List[str]]:
    """Parent-side dispatch and transport numbers of a jobs = nproc pass."""
    c = tracer.counts
    program = counters.get("counters", {})
    jobs = c["dispatch.jobs"] or 1
    metrics = {
        "dispatch.tasks": c["dispatch.tasks"],
        "dispatch.worker_busy_s": c["dispatch.worker_busy_s"],
        "dispatch.parent_wait_s": c["dispatch.parent_wait_s"],
        "dispatch.utilization": (
            c["dispatch.worker_busy_s"] / (jobs * wall_s) if wall_s > 0 else 0.0
        ),
        "dispatch.pool_start_s": c["dispatch.pool_start_s"],
        "transport.pickle_bytes": program.get("transport.pickle_bytes", 0.0),
        "transport.task_pickle_bytes": program.get("transport.task_pickle_bytes", 0.0),
        "transport.shm_bytes": program.get("transport.shm_bytes", 0.0),
    }
    errors = []
    for name, outside in (
        ("transport.pickle_bytes", "outside.result_pickle_bytes"),
        ("transport.task_pickle_bytes", "outside.task_pickle_bytes"),
        ("transport.shm_bytes", "outside.shm_bytes"),
    ):
        if c[outside] != metrics[name]:
            errors.append(
                f"{name}: outside {c[outside]:.0f} != program {metrics[name]:.0f}"
            )
    return metrics, errors
