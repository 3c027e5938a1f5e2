"""The batched fleet engine against its serial reference, unit for unit.

The contract (see :mod:`repro.sim.batch`) is draw-for-draw replay: every
random draw, throttle poll and clock tick lands exactly where the serial
``World`` would put it, leaving only BLAS summation order (GEMM vs GEMV)
as a tolerated ulp-level difference on thermal trajectories.
"""

import numpy as np
import pytest

from repro.device.fleet import synthetic_fleet
from repro.errors import ConfigurationError, SimulationError
from repro.instruments.monsoon import MonsoonPowerMonitor
from repro.instruments.thermabox import (
    BatchedThermabox,
    Thermabox,
    ThermaboxConfig,
)
from repro.sim.batch import TRACE_ROW_CAPACITY, BatchedWorld, _TraceStore
from repro.sim.engine import TRACE_CHANNELS, World
from repro.sim.trace import PhaseSpan, Trace
from repro.thermal.ambient import ConstantAmbient

AMBIENT = 26.0
ROOM = 23.0
DT = 0.1
DECIM = 5
VOLTS = 3.8
#: GEMM-vs-GEMV summation order budget; observed worst case is ~2e-13 °C.
TRACE_ATOL = 2e-9


def build_fleet(count, model="Nexus 5"):
    devices = synthetic_fleet(
        model, count, thermal_solver="expm", initial_temp_c=AMBIENT
    )
    for device in devices:
        device.connect_supply(MonsoonPowerMonitor(VOLTS))
    return devices


def run_serial(devices, use_box):
    """The reference: one World per unit, full three-phase protocol."""
    finished = []
    for device in devices:
        chamber = None
        room = ConstantAmbient(AMBIENT)
        if use_box:
            chamber = Thermabox(
                ThermaboxConfig(target_c=AMBIENT), initial_temp_c=AMBIENT
            )
            chamber.wait_until_stable(ROOM)
            room = ConstantAmbient(ROOM)
        world = World(
            device, room=room, chamber=chamber, dt=DT, trace_decimation=DECIM
        )
        device.unconstrain_frequency()
        device.acquire_wakelock()
        device.start_load()
        world.set_phase("warmup")
        world.run_for(12.0)
        device.stop_load()
        device.release_wakelock()
        world.set_phase("cooldown")
        target = max(38.0, world.ambient_c + 6.0)
        cooldown = world.run_until(
            lambda w: device.read_cpu_temp() <= target, 5.0, 2700.0
        )
        device.acquire_wakelock()
        device.start_load()
        world.set_phase("workload")
        world.run_for(15.0)
        world.close()
        finished.append((world, cooldown))
    return finished


def run_batched(devices, use_box):
    chamber = None
    room = AMBIENT
    if use_box:
        chamber = BatchedThermabox(
            ThermaboxConfig(target_c=AMBIENT),
            count=len(devices),
            initial_temp_c=AMBIENT,
        )
        chamber.wait_until_stable(ROOM)
        room = ROOM
    world = BatchedWorld(
        devices, room_temp_c=room, chamber=chamber, dt=DT, trace_decimation=DECIM
    )
    world.unconstrain_frequency()
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("warmup")
    world.run_for(12.0)
    world.stop_load()
    world.release_wakelock()
    world.set_phase("cooldown")
    targets = np.maximum(38.0, world.ambient_now() + 6.0)
    cooldown = world.run_cooldown(targets, 5.0, 2700.0)
    world.acquire_wakelock()
    world.start_load()
    world.set_phase("workload")
    world.run_for(15.0)
    world.close()
    world.finalize()
    return world, cooldown


class TestBatchedMatchesSerial:
    @pytest.mark.parametrize("use_box", [False, True])
    def test_full_protocol_agrees_per_unit(self, use_box):
        count = 3
        serial_devices = build_fleet(count)
        batch_devices = build_fleet(count)
        serial = run_serial(serial_devices, use_box)
        batched, cooldown_b = run_batched(batch_devices, use_box)
        for i, (world, cooldown_s) in enumerate(serial):
            trace_s, trace_b = world.trace, batched.traces[i]
            np.testing.assert_array_equal(trace_s.times(), trace_b.times())
            for channel in trace_s.channels:
                np.testing.assert_allclose(
                    trace_s.column(channel),
                    trace_b.column(channel),
                    rtol=0,
                    atol=TRACE_ATOL,
                    err_msg=f"unit {i} channel {channel}",
                )
            assert cooldown_s == pytest.approx(cooldown_b[i], abs=1e-9)
            events_s = [(e.time_s, e.kind, e.detail) for e in world.events]
            events_b = [
                (e.time_s, e.kind, e.detail) for e in batched.event_logs[i]
            ]
            assert events_s == events_b

    def test_finalize_writes_back_device_state(self):
        count = 2
        serial_devices = build_fleet(count)
        batch_devices = build_fleet(count)
        run_serial(serial_devices, use_box=False)
        run_batched(batch_devices, use_box=False)
        for ds, db in zip(serial_devices, batch_devices):
            assert ds.now_s == pytest.approx(db.now_s, abs=1e-9)
            assert ds.supply.energy_drawn_j == pytest.approx(
                db.supply.energy_drawn_j, abs=1e-6
            )
            for node in range(len(ds.thermal.node_names)):
                assert ds.thermal.temperature_at(node) == pytest.approx(
                    db.thermal.temperature_at(node), abs=TRACE_ATOL
                )
            assert ds.soc.mitigation == db.soc.mitigation
            for cs, cb in zip(ds.soc.clusters, db.soc.clusters):
                assert cs.freq_mhz == cb.freq_mhz
                assert cs.online_count == cb.online_count

    def test_second_model_agrees(self):
        # A little/big SoC with a different ladder and shutdown policy.
        serial_devices = build_fleet(2, model="Nexus 6P")
        batch_devices = build_fleet(2, model="Nexus 6P")
        serial = run_serial(serial_devices, use_box=False)
        batched, _ = run_batched(batch_devices, use_box=False)
        for i, (world, _) in enumerate(serial):
            for channel in world.trace.channels:
                np.testing.assert_allclose(
                    world.trace.column(channel),
                    batched.traces[i].column(channel),
                    rtol=0,
                    atol=TRACE_ATOL,
                )

    @pytest.mark.parametrize("use_box", [False, True])
    def test_mixed_model_fleet_agrees_per_unit(self, use_box):
        # Interleaved models exercise the block-diagonal cohort path:
        # results must come back in fleet order, identical to serial.
        def mixed():
            a = build_fleet(2)
            b = build_fleet(2, model="Nexus 6")
            return [a[0], b[0], a[1], b[1]]

        serial = run_serial(mixed(), use_box)
        batched, cooldown_b = run_batched(mixed(), use_box)
        for i, (world, cooldown_s) in enumerate(serial):
            trace_s, trace_b = world.trace, batched.traces[i]
            np.testing.assert_array_equal(trace_s.times(), trace_b.times())
            for channel in trace_s.channels:
                np.testing.assert_allclose(
                    trace_s.column(channel),
                    trace_b.column(channel),
                    rtol=0,
                    atol=TRACE_ATOL,
                    err_msg=f"unit {i} channel {channel}",
                )
            assert cooldown_s == pytest.approx(cooldown_b[i], abs=1e-9)
            events_s = [(e.time_s, e.kind, e.detail) for e in world.events]
            events_b = [
                (e.time_s, e.kind, e.detail) for e in batched.event_logs[i]
            ]
            assert events_s == events_b


class TestRngContinuation:
    """The batched engine draws normals ahead in blocks; ``finalize``
    must leave every generator exactly where the serial engine does."""

    @pytest.mark.parametrize("use_box", [False, True])
    def test_generator_states_match_serial_after_finalize(self, use_box):
        serial_devices = build_fleet(3)
        batch_devices = build_fleet(3)
        run_serial(serial_devices, use_box)
        run_batched(batch_devices, use_box)
        for ds, db in zip(serial_devices, batch_devices):
            assert db.os.rng.bit_generator.state == ds.os.rng.bit_generator.state
            assert (
                db.sensor.rng.bit_generator.state
                == ds.sensor.rng.bit_generator.state
            )

    def test_serial_continuation_after_batched_run_agrees(self):
        # After finalize, a serial World picks up both fleets identically.
        serial_devices = build_fleet(2)
        batch_devices = build_fleet(2)
        run_serial(serial_devices, use_box=False)
        run_batched(batch_devices, use_box=False)
        for ds, db in zip(serial_devices, batch_devices):
            traces, reads = [], []
            for device in (ds, db):
                world = World(
                    device, room=ConstantAmbient(AMBIENT), dt=DT,
                    trace_decimation=DECIM,
                )
                device.acquire_wakelock()
                device.start_load()
                world.run_for(5.0)  # one OS draw per step
                traces.append(world.trace)
                reads.append([device.read_cpu_temp() for _ in range(5)])
            np.testing.assert_allclose(
                traces[0].column("power"), traces[1].column("power"),
                rtol=0, atol=TRACE_ATOL,
            )
            assert reads[0] == pytest.approx(reads[1], abs=1e-9)


class TestLazyTraces:
    def test_unread_traces_build_no_trace_objects(self, monkeypatch):
        built = []
        original = Trace.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Trace, "__init__", counting)
        world, _ = run_batched(build_fleet(3), use_box=False)
        assert built == []
        traces = world.traces
        assert len(built) == 3
        # Read again: the same objects, nothing rebuilt.
        assert all(a is b for a, b in zip(world.traces, traces))
        assert len(built) == 3

    def test_built_traces_are_copies_with_phases(self):
        world, _ = run_batched(build_fleet(2), use_box=False)
        trace = world.traces[0]
        assert [span.name for span in trace.phases] == [
            "warmup", "cooldown", "workload",
        ]
        assert trace.open_phase is None
        for earlier, later in zip(trace.phases, trace.phases[1:]):
            assert earlier.end_s == later.start_s
        # Copies: the cohort's row store is not pinned by the trace.
        store = world._cohorts[0][1]._trace_store
        assert not np.shares_memory(trace.samples(), store._rows)

    def test_same_stamp_row_overwrites_last_write_wins(self):
        store = _TraceStore(3)
        width = len(TRACE_CHANNELS) + 1

        def rows(times, fill):
            block = np.full((len(times), width), float(fill))
            block[:, 0] = times
            return block

        all_units = np.arange(3)
        assert store.record(all_units, rows([0.0, 0.0, 0.0], 1)).all()
        store.set_phase("a", np.array([0.0, 0.0, 0.0]))
        # Unit 1 re-records at its previous stamp: an overwrite, not a row.
        fresh = store.record(np.array([0, 1]), rows([1.0, 0.0], 2))
        assert fresh.tolist() == [True, False]
        store.record(all_units, rows([2.0, 1.0, 1.0], 3))
        store.set_phase(None, np.array([2.0, 1.0, 1.0]))
        traces = store.traces()
        reference = [Trace(TRACE_CHANNELS) for _ in range(3)]
        for unit, time_s, fill in (
            (0, 0.0, 1), (1, 0.0, 1), (2, 0.0, 1),
            (0, 1.0, 2), (1, 0.0, 2),
            (0, 2.0, 3), (1, 1.0, 3), (2, 1.0, 3),
        ):
            reference[unit].append(time_s, [float(fill)] * (width - 1))
        for got, want, end in zip(traces, reference, (2.0, 1.0, 1.0)):
            np.testing.assert_array_equal(got.samples(), want.samples())
            assert got.phases == (PhaseSpan("a", 0.0, end),)
        assert len(traces[1]) == 2 and traces[1].column("cpu_temp")[0] == 2.0
        with pytest.raises(ConfigurationError):
            store.record(np.array([0]), rows([1.5], 4))

    def test_row_store_grows_past_its_initial_capacity(self):
        store = _TraceStore(2)
        width = len(TRACE_CHANNELS) + 1
        for k in range(3 * TRACE_ROW_CAPACITY):
            block = np.full((2, width), float(k))
            block[:, 0] = k
            store.record(np.arange(2), block)
        for trace in store.traces():
            assert len(trace) == 3 * TRACE_ROW_CAPACITY
            np.testing.assert_array_equal(
                trace.times(), np.arange(3 * TRACE_ROW_CAPACITY)
            )


class TestBatchedValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(SimulationError):
            BatchedWorld([], room_temp_c=AMBIENT)

    def test_rejects_euler_devices(self):
        devices = synthetic_fleet(
            "Nexus 5", 2, thermal_solver="euler", initial_temp_c=AMBIENT
        )
        for device in devices:
            device.connect_supply(MonsoonPowerMonitor(VOLTS))
        with pytest.raises(SimulationError):
            BatchedWorld(devices, room_temp_c=AMBIENT)

    def test_run_for_requires_awake_units(self):
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT)
        with pytest.raises(SimulationError):
            world.run_for(1.0)

    def test_cooldown_requires_suspended_units(self):
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT)
        world.acquire_wakelock()
        with pytest.raises(SimulationError):
            world.run_cooldown(np.full(2, 38.0), 5.0, 100.0)

    def test_cooldown_timeout_matches_serial_error(self):
        world = BatchedWorld(build_fleet(2), room_temp_c=AMBIENT)
        with pytest.raises(SimulationError, match="timed out"):
            # An unreachable target (below ambient) must hit the timeout.
            world.run_cooldown(np.full(2, -100.0), 5.0, 20.0)


class TestBatchedThermabox:
    def test_columns_match_serial_chambers_exactly(self):
        count = 3
        config = ThermaboxConfig(target_c=AMBIENT)
        batched = BatchedThermabox(config, count=count, initial_temp_c=AMBIENT)
        serial = [
            Thermabox(config, initial_temp_c=AMBIENT) for _ in range(count)
        ]
        batched.wait_until_stable(ROOM)
        for chamber in serial:
            chamber.wait_until_stable(ROOM)
        rng = np.random.default_rng(3)
        mask = np.ones(count, dtype=bool)
        for _ in range(400):
            loads = rng.uniform(0.0, 6.0, size=count)
            batched.step_masked(mask, ROOM, DT, loads)
            for i, chamber in enumerate(serial):
                chamber.step(ROOM, DT, load_w=float(loads[i]))
        for i, chamber in enumerate(serial):
            assert batched.air_temps_c[i] == chamber.air_temp_c
            assert batched.heater_duty_seconds[i] == chamber.heater_duty_seconds
            assert batched.cooler_duty_seconds[i] == chamber.cooler_duty_seconds

    def test_masked_columns_do_not_advance(self):
        count = 2
        batched = BatchedThermabox(
            ThermaboxConfig(target_c=AMBIENT), count=count, initial_temp_c=AMBIENT
        )
        frozen_air = batched.air_temps_c[1]
        frozen_time = batched.elapsed_s[1]
        mask = np.array([True, False])
        for _ in range(50):
            batched.step_masked(mask, ROOM, DT, np.full(count, 4.0))
        assert batched.air_temps_c[1] == frozen_air
        assert batched.elapsed_s[1] == frozen_time
        assert batched.elapsed_s[0] == pytest.approx(50 * DT)
