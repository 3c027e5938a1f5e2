"""The streaming crowd engine vs the serial §VI reference.

Everything here runs the micro field protocol from the differential
harness (exact solver, short windows) so the whole file stays CI-sized.
The headline contracts:

* streamed submissions replay the serial pipeline draw-for-draw;
* an interrupted campaign resumed from its checkpoint is bit-identical
  to an uninterrupted one;
* worker count never changes results;
* drop accounting matches the serial path reason-for-reason.
"""

import json
import os

import numpy as np
import pytest

from repro.check.differential import default_crowd_differential_config
from repro.core.ambient_estimation import DEFAULT_PROBE_POLL_S
from repro.core.crowd import (
    CrowdConfig,
    crowd_fleet,
    crowd_param_stream,
    plan_users,
    prepare_field_device,
    run_crowd_study,
    run_crowd_user,
)
from repro.core.crowd_stream import (
    CrowdEstimators,
    execute_cohort,
    load_checkpoint,
    run_streaming_crowd_study,
    write_checkpoint,
)
from repro.core.protocol import Accubench
from repro.errors import BatteryError, ConfigurationError
from repro.sim.batch import BatchedWorld
from repro.sim.engine import World
from repro.thermal.ambient import ConstantAmbient

from dataclasses import replace


@pytest.fixture(scope="module")
def micro_config():
    return default_crowd_differential_config(user_count=8)


@pytest.fixture(scope="module")
def full_run(micro_config):
    submissions = []
    result = run_streaming_crowd_study(
        micro_config, cohort_size=3, on_submission=submissions.append
    )
    return result, submissions


class TestStreamedMatchesSerial:
    def test_submissions_replay_serial_draw_for_draw(
        self, micro_config, full_run
    ):
        result, streamed = full_run
        serial = run_crowd_study(micro_config)
        assert [s.serial for s in streamed] == [s.serial for s in serial]
        for a, b in zip(serial, streamed):
            assert b.score == pytest.approx(a.score, rel=1e-9)
            assert b.energy_j == pytest.approx(a.energy_j, rel=1e-9)
            assert b.ambient_estimate.ambient_c == pytest.approx(
                a.ambient_estimate.ambient_c, abs=1e-9
            )
            assert (
                b.ambient_estimate.sample_count
                == a.ambient_estimate.sample_count
            )
            assert b.true_ambient_c == a.true_ambient_c
            assert b.true_leak_factor == a.true_leak_factor
        assert result.dropped == serial.dropped
        assert result.users_simulated == serial.users

    def test_result_summary_shape(self, micro_config, full_run):
        result, streamed = full_run
        assert result.complete
        assert result.cohorts_total == 3  # ceil(8 / 3)
        assert result.user_count == micro_config.user_count
        assert result.submission_count == len(streamed)
        assert sorted(result.score_quantiles) == [
            "p05", "p25", "p50", "p75", "p95",
        ]
        document = json.loads(json.dumps(result.to_dict()))
        assert document["users_simulated"] == micro_config.user_count

    def test_jobs_do_not_change_results(self, micro_config, full_run):
        result, _ = full_run
        parallel = run_streaming_crowd_study(
            micro_config, cohort_size=3, jobs=2
        )
        assert parallel.to_dict() == result.to_dict()


class TestCheckpointResume:
    def test_interrupt_and_resume_is_bit_identical(
        self, micro_config, full_run, tmp_path
    ):
        result, _ = full_run
        path = str(tmp_path / "crowd.ckpt")
        partial = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2,
        )
        assert not partial.complete
        assert partial.cohorts_completed == 2
        assert os.path.exists(path)
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path
        )
        assert resumed.complete
        assert resumed.resumed_from_cohort == 2
        expected = dict(result.to_dict(), resumed_from_cohort=2)
        assert resumed.to_dict() == expected

    def test_checkpoint_is_valid_json_with_rng_cursor(
        self, micro_config, tmp_path
    ):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        with open(path) as fp:
            document = json.load(fp)
        assert document["cohorts_done"] == 1
        # The stored cursor equals the parameter stream advanced past
        # exactly the folded cohort's users (2 uniforms per user).
        rng = crowd_param_stream(micro_config)
        plan_users(micro_config, rng, 0, 3)
        assert document["param_rng_state"] == json.loads(
            json.dumps(rng.bit_generator.state)
        )
        restored = CrowdEstimators.from_state(document["estimators"])
        assert restored.users_done == 3

    def test_mismatched_fingerprint_refuses(self, micro_config, tmp_path):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        other = replace(micro_config, user_count=9)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(other, cohort_size=3, checkpoint_path=path)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, "not-the-fingerprint")


class TestCheckpointFiles:
    FINGERPRINT = "f" * 64

    def test_truncated_checkpoint_names_the_path(self, micro_config, tmp_path):
        path = str(tmp_path / "crowd.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        with open(path) as fp:
            text = fp.read()
        with open(path, "w") as fp:
            fp.write(text[: len(text) // 2])
        with pytest.raises(ConfigurationError, match="truncated or not JSON") as info:
            load_checkpoint(path, self.FINGERPRINT)
        assert path in str(info.value)
        # Resuming from it surfaces the same error rather than a
        # raw JSONDecodeError.
        with pytest.raises(ConfigurationError, match="truncated or not JSON"):
            run_streaming_crowd_study(
                micro_config, cohort_size=3, checkpoint_path=path
            )

    @pytest.mark.parametrize("document", [[1, 2, 3], "text", 42, None])
    def test_non_object_checkpoint_names_the_path(self, tmp_path, document):
        path = str(tmp_path / "crowd.ckpt")
        with open(path, "w") as fp:
            json.dump(document, fp)
        with pytest.raises(ConfigurationError, match="not a checkpoint object") as info:
            load_checkpoint(path, self.FINGERPRINT)
        assert path in str(info.value)

    def test_write_fsyncs_the_flushed_file_before_renaming(
        self, tmp_path, durable_write_calls
    ):
        path = str(tmp_path / "crowd.ckpt")
        write_checkpoint(
            path, self.FINGERPRINT, 1, CrowdEstimators(root_seed=1), {"cursor": 0}
        )
        calls = durable_write_calls
        assert [name for name, _ in calls] == ["fsync", "replace"]
        (_, synced), (_, renamed) = calls
        assert synced == renamed  # the fsynced file is the one renamed
        assert load_checkpoint(path, self.FINGERPRINT)["cohorts_done"] == 1


class TestBatteryOverloadDrop:
    """A unit whose battery cannot deliver its load is a drop, not an abort.

    At seed 403 the 228th Nexus 5 user (a leak factor near the 3-sigma
    clamp in a ~35 °C room) runs away thermally in the benchmark pass
    until its load exceeds what its 77%-charged battery can deliver.
    """

    @pytest.fixture(scope="class")
    def config(self):
        return CrowdConfig(
            model="Nexus 5",
            user_count=228,
            protocol=replace(CrowdConfig().protocol, thermal_solver="expm"),
            root_seed=403,
        )

    def test_streamed_campaign_completes_with_the_drop(self, config):
        result = run_streaming_crowd_study(config, cohort_size=256)
        assert result.complete
        assert result.dropped == {"battery_overload": 1}
        assert result.users_simulated == 228
        assert result.submission_count == 227

    def test_serial_and_streamed_agree_per_user(self, config):
        # The serial pipeline over the last few users (the failing one
        # included) against one streamed cohort of the same users.
        users = plan_users(config, crowd_param_stream(config), 0, 228)[-5:]
        bench = Accubench(config.protocol)
        devices = crowd_fleet(config, start=users[0].index, count=len(users))
        serial = [
            run_crowd_user(config, bench, device, user)
            for device, user in zip(devices, users)
        ]
        streamed = execute_cohort(config, 0, users).outcomes
        serial_drops = [o for o in serial if isinstance(o, str)]
        streamed_drops = [o.drop_reason for o in streamed if o.drop_reason]
        assert serial_drops == streamed_drops == ["battery_overload"]
        for expected, outcome in zip(serial, streamed):
            if isinstance(expected, str):
                assert outcome.drop_reason == expected
                assert outcome.submission is None
                continue
            got = outcome.submission
            assert got.score == pytest.approx(expected.score, rel=1e-9)
            assert got.energy_j == pytest.approx(expected.energy_j, rel=1e-9)
            assert (
                got.ambient_estimate.ambient_c
                == pytest.approx(expected.ambient_estimate.ambient_c, rel=1e-9)
            )

    def test_failed_unit_leaves_the_others_untouched(self, config):
        # The failing user under sustained load beside two neighbours:
        # the neighbours must run exactly as they do without it.
        users = plan_users(config, crowd_param_stream(config), 0, 228)[-3:]
        protocol = config.protocol

        def loaded_world(chosen):
            devices = crowd_fleet(config, start=users[0].index, count=3)
            for device, user in zip(devices, users):
                prepare_field_device(device, user)
            world = BatchedWorld(
                [devices[i] for i in chosen],
                room_temp_c=np.array([users[i].ambient_c for i in chosen]),
                dt=protocol.dt,
                trace_decimation=protocol.trace_decimation,
            )
            world.acquire_wakelock()
            world.start_load()
            world.set_phase("load")
            world.run_for(600.0)  # it overloads after ~560 s at full load
            world.close()
            return world

        with_failing = loaded_world([0, 1, 2])
        without = loaded_world([0, 1])
        failures = with_failing.failures
        assert failures[:2] == [None, None]
        assert isinstance(failures[2], BatteryError)
        assert failures[2].reason == "battery_overload"
        assert "exceeds what the battery can deliver" in str(failures[2])
        assert without.failures == [None, None]
        np.testing.assert_allclose(
            with_failing.energy_drawn_j[:2], without.energy_drawn_j, rtol=1e-12
        )
        np.testing.assert_allclose(
            with_failing.ops_total[:2], without.ops_total, rtol=1e-12
        )
        for i in range(2):
            a, b = with_failing.traces[i], without.traces[i]
            np.testing.assert_array_equal(a.times(), b.times())
            np.testing.assert_allclose(a.samples(), b.samples(), atol=2e-9)
        # The failed unit stops drawing from its battery.
        trace = with_failing.traces[2]
        assert trace.column("power")[-1] == 0.0

    def test_fleet_path_still_raises(self, monkeypatch, fast_campaign):
        # A fleet campaign has no drops: a failed unit aborts run_batch.
        from repro.core.batch_runner import run_batch
        from repro.core.experiments import unconstrained
        from repro.device.fleet import synthetic_fleet

        failure = BatteryError("battery_overload", "load 99.0 W exceeds ...")
        monkeypatch.setattr(
            BatchedWorld, "failures", property(lambda w: [None, failure])
        )
        campaign = replace(
            fast_campaign,
            accubench=replace(
                fast_campaign.accubench, thermal_solver="expm", iterations=1
            ),
        )
        fleet = synthetic_fleet("Nexus 5", 2, thermal_solver="expm")
        with pytest.raises(BatteryError) as info:
            run_batch(fleet, unconstrained(), campaign)
        assert info.value is failure


class TestMixedModelResume:
    """Heterogeneous populations checkpoint and resume like uniform ones.

    With ``models`` cycling per user index, every 3-user cohort holds two
    models, so ``execute_cohort`` runs a genuinely mixed
    :class:`~repro.sim.batch.BatchedWorld` — and the checkpoint cursor
    (2 uniforms per user, model choice index-pure) must replay across it.
    """

    def test_mixed_cohorts_resume_bit_identically_for_any_jobs(self, tmp_path):
        config = replace(
            default_crowd_differential_config(user_count=8),
            models=("Nexus 5", "Nexus 6"),
        )
        fleet_models = [device.spec.name for device in crowd_fleet(config)]
        assert fleet_models == ["Nexus 5", "Nexus 6"] * 4

        baseline = run_streaming_crowd_study(config, cohort_size=3)
        assert baseline.complete
        assert baseline.model == "Nexus 5+Nexus 6"

        path = str(tmp_path / "mixed.ckpt")
        partial = run_streaming_crowd_study(
            config, cohort_size=3, checkpoint_path=path, stop_after_cohorts=2
        )
        assert not partial.complete
        assert partial.cohorts_completed == 2
        with open(path) as fp:
            saved = fp.read()

        for jobs in (1, 2, 4):
            job_path = str(tmp_path / f"mixed-jobs{jobs}.ckpt")
            with open(job_path, "w") as fp:
                fp.write(saved)
            resumed = run_streaming_crowd_study(
                config, cohort_size=3, checkpoint_path=job_path, jobs=jobs
            )
            assert resumed.complete
            assert resumed.resumed_from_cohort == 2
            expected = dict(baseline.to_dict(), resumed_from_cohort=2)
            assert resumed.to_dict() == expected


class TestExecutionBackends:
    """The pluggable backend never shows in crowd results or checkpoints."""

    def test_backend_does_not_change_results(self, micro_config, full_run):
        result, _ = full_run
        for backend in ("in-process", "process-pool", "shared-memory"):
            run = run_streaming_crowd_study(
                micro_config, cohort_size=3, jobs=2, backend=backend
            )
            assert run.to_dict() == result.to_dict(), backend

    def test_config_backend_drives_execution(self, micro_config, full_run):
        result, _ = full_run
        configured = replace(micro_config, backend="shared-memory")
        run = run_streaming_crowd_study(configured, cohort_size=3, jobs=2)
        assert run.to_dict() == result.to_dict()

    def test_kill_and_resume_on_shared_memory_backend(
        self, micro_config, full_run, tmp_path
    ):
        # Interrupt a shared-memory campaign mid-flight (the checkpoint
        # idiom for a kill: stop after 2 folded cohorts, worker pool torn
        # down with completions still pending) and resume on the same
        # backend — bit-identical to the uninterrupted serial reference.
        result, _ = full_run
        path = str(tmp_path / "crowd-shm.ckpt")
        partial = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=2, jobs=2, backend="shared-memory",
        )
        assert not partial.complete
        assert partial.cohorts_completed == 2
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            jobs=2, backend="shared-memory",
        )
        assert resumed.complete
        assert resumed.resumed_from_cohort == 2
        expected = dict(result.to_dict(), resumed_from_cohort=2)
        assert resumed.to_dict() == expected

    def test_checkpoint_resumes_across_backends(
        self, micro_config, full_run, tmp_path
    ):
        # The backend is excluded from the checkpoint fingerprint: a
        # checkpoint written under the default backend resumes under
        # shared-memory, because transport cannot change the results.
        result, _ = full_run
        path = str(tmp_path / "cross.ckpt")
        run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            stop_after_cohorts=1,
        )
        resumed = run_streaming_crowd_study(
            micro_config, cohort_size=3, checkpoint_path=path,
            jobs=2, backend="shared-memory",
        )
        assert resumed.complete
        assert resumed.resumed_from_cohort == 1
        expected = dict(result.to_dict(), resumed_from_cohort=1)
        assert resumed.to_dict() == expected

    def test_rejects_unknown_backend(self, micro_config):
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, backend="bogus")
        with pytest.raises(ConfigurationError):
            CrowdConfig(backend="bogus")


class TestDropAccounting:
    def test_short_observe_drops_everyone_like_serial(self, micro_config):
        # 50 s of 5 s polls → 10 samples, 6 after the 40% head skip —
        # below the fit's floor, so every probe fails identically.
        config = replace(micro_config, user_count=4, probe_observe_s=50.0)
        serial = run_crowd_study(config)
        result = run_streaming_crowd_study(config, cohort_size=2)
        assert serial.dropped == {"too_few_samples": 4}
        assert result.dropped == serial.dropped
        assert result.submission_count == len(serial) == 0
        assert result.users_simulated == 4
        assert result.score_quantiles == {}
        assert result.ranking_quality_raw is None


class TestGuards:
    def test_requires_exact_solver(self, micro_config):
        euler = replace(
            micro_config,
            protocol=replace(micro_config.protocol, thermal_solver="euler"),
        )
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(euler)

    def test_rejects_bad_knobs(self, micro_config):
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, cohort_size=0)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, jobs=0)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, checkpoint_every=0)
        with pytest.raises(ConfigurationError):
            run_streaming_crowd_study(micro_config, stop_after_cohorts=0)

    def test_cohort_must_be_contiguous(self, micro_config):
        rng = crowd_param_stream(micro_config)
        users = plan_users(micro_config, rng, 0, 4)
        with pytest.raises(ConfigurationError):
            execute_cohort(
                micro_config, 0, (users[0], users[2], users[3])
            )
        with pytest.raises(ConfigurationError):
            execute_cohort(micro_config, 0, ())


class TestBatchedFieldPhysics:
    """The batched battery bank and asleep probe vs per-unit worlds."""

    def test_probe_temps_and_battery_state_match_serial(self, micro_config):
        config = replace(micro_config, user_count=3)
        rng = crowd_param_stream(config)
        users = plan_users(config, rng, 0, config.user_count)

        serial_temps, serial_soc, serial_energy = [], [], []
        for device, user in zip(crowd_fleet(config), users):
            prepare_field_device(device, user)
            world = World(
                device,
                room=ConstantAmbient(user.ambient_c),
                dt=config.protocol.dt,
                trace_decimation=1,
            )
            device.acquire_wakelock()
            device.start_load()
            world.run_for(config.probe_heat_s)
            device.stop_load()
            device.release_wakelock()
            temps = []
            elapsed = 0.0
            while elapsed < config.probe_observe_s:
                world.run_for(DEFAULT_PROBE_POLL_S)
                elapsed += DEFAULT_PROBE_POLL_S
                temps.append(device.read_cpu_temp())
            serial_temps.append(temps)
            serial_soc.append(device.supply.state_of_charge)
            serial_energy.append(device.supply.energy_drawn_j)

        devices = crowd_fleet(config)
        for device, user in zip(devices, users):
            prepare_field_device(device, user)
        world = BatchedWorld(
            devices,
            room_temp_c=np.array([u.ambient_c for u in users]),
            dt=config.protocol.dt,
            trace_decimation=1,
        )
        world.acquire_wakelock()
        world.start_load()
        world.run_for(config.probe_heat_s)
        world.stop_load()
        world.release_wakelock()
        batched_temps = []
        elapsed = 0.0
        while elapsed < config.probe_observe_s:
            world.run_asleep(DEFAULT_PROBE_POLL_S)
            elapsed += DEFAULT_PROBE_POLL_S
            batched_temps.append(world.read_sensors())
        world.finalize()

        for i, device in enumerate(devices):
            # Quantized sensor reads replay exactly, draw for draw.
            assert [row[i] for row in batched_temps] == serial_temps[i]
            # Battery accounting: the batched probe draws each asleep poll
            # window as one macro draw where the serial engine steps dt by
            # dt — identical up to float summation order.
            assert device.supply.state_of_charge == pytest.approx(
                serial_soc[i], abs=1e-12
            )
            assert device.supply.energy_drawn_j == pytest.approx(
                serial_energy[i], rel=1e-9
            )

    def test_per_unit_rooms_reject_chamber(self, micro_config):
        from repro.instruments.thermabox import (
            BatchedThermabox,
            ThermaboxConfig,
        )
        from repro.errors import SimulationError

        config = replace(micro_config, user_count=2)
        rng = crowd_param_stream(config)
        users = plan_users(config, rng, 0, 2)
        devices = crowd_fleet(config)
        for device, user in zip(devices, users):
            prepare_field_device(device, user)
        chamber = BatchedThermabox(
            ThermaboxConfig(target_c=25.0), count=2, initial_temp_c=25.0
        )
        with pytest.raises(SimulationError):
            BatchedWorld(
                devices,
                room_temp_c=np.array([20.0, 30.0]),
                chamber=chamber,
                dt=0.5,
            )
