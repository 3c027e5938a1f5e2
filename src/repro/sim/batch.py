"""Lock-step batched simulation of many device units, mixed models included.

A fleet experiment runs the *same* protocol over N units; the serial path
builds N worlds and steps them one after another, re-deriving identical
control flow N times per engine step.  :class:`BatchedWorld` instead
advances all units in lock-step through stacked state: units are grouped
by device model into cohort blocks (:class:`_CohortWorld`), and each
cohort shares one ``(N_model, nodes)`` temperature matrix propagated by a
single batched (Φ, Ψ) application per step — the block-diagonal form of
the fleet-wide update — plus vectorized per-unit power evaluation over
stacked silicon parameters and masked cohort updates for the places units
genuinely diverge (throttle polls, cooldown exits).  A homogeneous fleet
is the one-cohort special case and runs exactly the code it always has.

Fidelity contract
-----------------
The batched step mirrors the serial ``World.run_for`` / ``Device.step`` /
``Soc.step`` bodies operation for operation, per unit:

* every per-unit random draw (OS steal resample, background-noise sample,
  sensor read) comes from that unit's own generator in the same order the
  serial path would draw it — so stochastic trajectories are reproducible
  against the serial engine, not merely statistically similar;
* device-local time is *accumulated* (``now += dt``) while clock time is
  *derived* (``steps * dt``), matching ``Device._now_s`` vs ``SimClock``
  exactly;
* throttle polls replay the serial catch-up ``while`` loop under a mask,
  so the burst of missed polls after a long cooldown lands identically.

The only tolerated deviations are ulp-level: the batched thermal update is
a GEMM where the serial path runs per-unit GEMVs, and per-core power sums
collapse behind BLAS summation order.  ``repro.check``'s ``BATCH_SPEC``
pairing budget covers exactly that.

RNG look-ahead
--------------
The OS and sensor streams only ever serve ``Generator.normal(loc, scale)``,
which numpy evaluates as ``loc + scale * z`` from one standard normal
``z``.  Each cohort therefore draws every unit's ``z`` values ahead in
blocks (:class:`_NormalBank`) and applies ``loc + scale * z`` across the
cohort in one vector operation.  While a block is in flight the generators
run ahead of the serial engine; :meth:`_CohortWorld.finalize` rewinds each
one to where the same draws taken one at a time would have left it.
Nothing may draw from those two streams by any other route between
construction and ``finalize``.

Traces
------
Decimated trace rows go into one ``(units, rows, channels + 1)`` array per
cohort (:class:`_TraceStore`); per-unit :class:`Trace` objects are built,
as copies, only when ``traces`` is read.  A campaign that never reads them
(the streamed crowd) never pays for them.

Supply failures
---------------
A battery that cannot deliver a unit's draw does not abort the batch: the
unit is marked failed (``failures``), stops drawing and dissipating, and
rides along untouched by the other units.  The caller decides whether
that is a dropped user or an error.

Divergence handling
-------------------
Units stay in one cohort while they share control flow.  During cooldown,
units that reach their target temperature freeze (their clocks, chambers
and supplies stop advancing — a serial world that simply is not stepped)
while the still-cooling cohort fast-forwards whole poll windows; each
shrink of the active cohort is counted as a *cohort split* for the
observability layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.battery import Battery
from repro.device.phone import Device
from repro.errors import BatteryError, ConfigurationError, SimulationError
from repro.instruments.thermabox import BatchedThermabox
from repro.sim.engine import TRACE_CHANNELS
from repro.sim.events import EventLog
from repro.sim.trace import PhaseSpan, Trace
from repro.soc.throttling import MitigationState

#: Standard normals drawn ahead per unit on the OS stream (one per awake
#: step, plus steal resamples): ``units * 512 * 8`` bytes per cohort.
OS_NORMAL_BLOCK = 512
#: The same for the sensor stream, which draws once per poll.
SENSOR_NORMAL_BLOCK = 64
#: Starting per-unit row capacity of a cohort's trace store (doubles).
TRACE_ROW_CAPACITY = 64


class _NormalBank:
    """Per-unit standard normals drawn ahead in blocks, replayed exactly.

    Row ``i`` holds the next values of ``z`` from unit ``i``'s generator,
    filled by ``standard_normal(block)`` — the same sequence, and the same
    end state, as that many scalar draws.  :meth:`take_all` serves one
    value per unit, :meth:`take` one per listed unit; a row is refilled
    only when its unit has used it up.  :meth:`sync` rewinds each
    generator to the start of its current block and redraws exactly the
    values used, so ``bit_generator.state`` ends where scalar draws leave
    it, and empties the bank so later takes start from there.
    """

    __slots__ = (
        "_rngs", "_block", "_z", "_flat", "_base", "_cursor", "_cursor_hi",
        "_saved", "_index",
    )

    def __init__(
        self, generators: Sequence[np.random.Generator], block: int
    ) -> None:
        count = len(generators)
        self._rngs = list(generators)
        self._block = block
        self._z = np.empty((count, block))
        self._flat = self._z.reshape(-1)
        self._base = np.arange(count, dtype=np.int64) * block
        # Values used from each row; ``block`` means the row is spent.
        self._cursor = np.full(count, block, dtype=np.int64)
        # Upper bound on every cursor: each take adds at most one to any
        # of them, so ``cursor_hi < block`` proves no row needs a refill.
        self._cursor_hi = block
        # Generator state at the start of each unit's current block.
        self._saved: List[Optional[Dict]] = [None] * count
        self._index = np.empty(count, dtype=np.int64)

    def take_all(self) -> np.ndarray:
        """One standard normal per unit, in unit order."""
        if self._cursor_hi >= self._block:
            self._refill(np.flatnonzero(self._cursor >= self._block))
        cursor = self._cursor
        z = self._flat.take(np.add(self._base, cursor, out=self._index))
        cursor += 1
        self._cursor_hi += 1
        return z

    def take(self, units: np.ndarray) -> np.ndarray:
        """One standard normal for each of ``units`` (distinct indices)."""
        cursor = self._cursor[units]
        if self._cursor_hi >= self._block:
            spent = units[cursor >= self._block]
            if spent.size:
                self._refill(spent)
                cursor = self._cursor[units]
        z = self._flat.take(self._base[units] + cursor)
        self._cursor[units] = cursor + 1
        self._cursor_hi += 1
        return z

    def sync(self) -> None:
        """Leave every generator where scalar draws would have left it."""
        block = self._block
        for i, state in enumerate(self._saved):
            if state is None:
                continue
            used = int(self._cursor[i])
            if used < block:
                rng = self._rngs[i]
                rng.bit_generator.state = state
                rng.standard_normal(used)
            self._saved[i] = None
        self._cursor.fill(block)
        self._cursor_hi = block

    def _refill(self, units: np.ndarray) -> None:
        for i in units:
            rng = self._rngs[i]
            self._saved[i] = rng.bit_generator.state
            rng.standard_normal(out=self._z[i])
        self._cursor[units] = 0
        self._cursor_hi = int(self._cursor.max())


class _TraceStore:
    """One cohort's decimated trace rows, phases, and lazily built traces.

    Rows live in a ``(units, capacity, channels + 1)`` array (column 0 is
    time) with a per-unit row count.  :meth:`record` writes one row for
    each listed unit with one vectorized store; a row stamped with its
    unit's previous time overwrites that row — last write wins, exactly as
    :meth:`Trace.append` does.  Phase marks hold one start (and end) time
    per unit.  Per-unit :class:`Trace` objects are built only by
    :meth:`traces`, from copies of the rows, so they never pin the cohort
    array.
    """

    __slots__ = ("_count", "_rows", "_size", "_last", "_closed", "_open", "_built")

    def __init__(self, count: int) -> None:
        self._count = count
        self._rows = np.empty((count, TRACE_ROW_CAPACITY, len(TRACE_CHANNELS) + 1))
        self.reset()

    def reset(self) -> None:
        """Forget every row and phase (the array's capacity is kept)."""
        count = self._count
        self._size = np.zeros(count, dtype=np.int64)
        #: Each unit's latest stamp; ``-inf`` before its first row.
        self._last = np.full(count, -np.inf)
        self._closed: List[Tuple[str, np.ndarray, np.ndarray]] = []
        self._open: Optional[Tuple[str, np.ndarray]] = None
        self._built: Optional[List[Trace]] = None

    def record(self, units: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Store ``block[j]`` (time first) as unit ``units[j]``'s next row.

        Returns which rows were new rather than same-stamp overwrites.
        """
        times = block[:, 0]
        last = self._last[units]
        if (times < last).any():
            raise ConfigurationError("samples must be appended in time order")
        fresh = times > last
        rows = self._size[units] + fresh - 1
        needed = int(rows.max()) + 1
        if needed > self._rows.shape[1]:
            capacity = self._rows.shape[1]
            while capacity < needed:
                capacity *= 2
            grown = np.empty((self._count, capacity, self._rows.shape[2]))
            grown[:, : self._rows.shape[1]] = self._rows
            self._rows = grown
        self._rows[units, rows] = block
        self._size[units] += fresh
        self._last[units] = times
        self._built = None
        return fresh

    def set_phase(self, name: Optional[str], now: np.ndarray) -> None:
        """Close any open phase at ``now`` and open ``name`` (per unit)."""
        if self._open is not None:
            self._closed.append((*self._open, now))
        self._open = (name, now) if name is not None else None
        self._built = None

    def traces(self) -> List[Trace]:
        """Per-unit traces of everything recorded since :meth:`reset`."""
        if self._built is None:
            rows, size, opened = self._rows, self._size, self._open
            self._built = [
                Trace.from_samples(
                    TRACE_CHANNELS,
                    rows[i, : size[i]].copy(),
                    phases=[
                        PhaseSpan(name=name, start_s=start[i], end_s=end[i])
                        for name, start, end in self._closed
                    ],
                    open_phase=(
                        (opened[0], opened[1][i]) if opened is not None else None
                    ),
                )
                for i in range(self._count)
            ]
        return self._built


class _ClusterBatch:
    """Stacked runtime state of one cluster across all units."""

    __slots__ = (
        "spec",
        "ladder",
        "core_count",
        "c_eff",
        "leak_vref",
        "leak_volt_slope",
        "leak_temp_slope",
        "leak_coeff",
        "volt_table",
        "freq",
        "voltage_adjust",
        "fixed_index",
        "external_index",
        "ipc",
        "max_freq",
        "top_rate",
    )

    def __init__(self, devices: Sequence[Device], cluster_index: int) -> None:
        reference = devices[0].soc.clusters[cluster_index]
        spec = reference.spec
        self.spec = spec
        self.ladder = np.asarray(spec.freq_table_mhz, dtype=float)
        self.core_count = spec.core_count
        self.ipc = spec.ipc
        self.c_eff = spec.c_eff_f
        self.max_freq = spec.max_freq_mhz
        # ops_rate(max_freq, ipc) — the memory-stall normalization rate.
        self.top_rate = spec.max_freq_mhz * 1e6 * spec.ipc
        self.leak_vref = spec.leak_ref_voltage_v
        process = devices[0].soc.spec.process
        self.leak_volt_slope = process.leak_volt_slope
        self.leak_temp_slope = process.leak_temp_slope
        # Serial leakage computes ``leak_ref_w * leak_factor`` first every
        # step; hoisting that product keeps the op order (and result) exact.
        self.leak_coeff = np.array(
            [spec.leak_ref_w * dev.profile.leak_factor for dev in devices]
        )
        # Per-unit binned table voltage for every ladder rung, volts.
        self.volt_table = np.array(
            [
                [
                    spec.vf_table.voltage_v(dev.soc.clusters[cluster_index].bin_index, f)
                    for f in spec.freq_table_mhz
                ]
                for dev in devices
            ]
        )
        self.freq = np.array(
            [dev.soc.clusters[cluster_index].freq_mhz for dev in devices]
        )
        self.voltage_adjust = np.array(
            [dev.soc.clusters[cluster_index].voltage_adjust_v for dev in devices]
        )
        #: Userspace pin as a ladder index, or ``None`` for the performance
        #: governor.  Resolving pins/ceilings to *indices* up front turns
        #: the hot loop's frequency choice into pure integer minima.
        self.fixed_index: Optional[int] = None
        #: Nearest-ladder index of the OS input-voltage cap, if any.
        self.external_index: Optional[int] = None

    def nearest_index(self, freq_mhz: float) -> int:
        """Ladder index of ``ClusterSpec.nearest_freq_mhz(freq_mhz)``."""
        index = int(np.searchsorted(self.ladder, freq_mhz, side="right")) - 1
        return max(index, 0)


class _CohortWorld:
    """One same-model cohort of device units advanced in lock-step.

    The single-model engine block behind :class:`BatchedWorld`, which
    groups a (possibly mixed-model) fleet into these cohorts.
    Construction adopts the units' current device state (fresh devices
    start pristine, exactly like the serial runner's); :meth:`finalize`
    writes the evolved state back into the :class:`Device` objects so
    anything inspecting them afterwards sees what a serial run would have
    left behind.  One instance persists across protocol iterations —
    :meth:`begin_iteration` plays the role of the serial path's fresh
    ``World`` per iteration (new traces, clock at zero, chamber retained).
    """

    def __init__(
        self,
        devices: Sequence[Device],
        room_temp_c: Union[float, np.ndarray],
        chamber=None,
        dt: float = 0.1,
        trace_decimation: int = 5,
        check_invariants: bool = False,
    ) -> None:
        if not devices:
            raise SimulationError("a batched world needs at least one unit")
        if trace_decimation < 1:
            raise SimulationError("trace_decimation must be at least 1")
        spec_names = {dev.spec.name for dev in devices}
        if len(spec_names) != 1:
            raise SimulationError(
                f"batched units must share one device model, got {sorted(spec_names)}"
            )
        if chamber is not None and chamber.count != len(devices):
            raise SimulationError("chamber column count must match unit count")
        self.devices = list(devices)
        count = len(devices)
        self._count = count
        self._dt = dt
        self._decimation = trace_decimation
        room = np.asarray(room_temp_c, dtype=float)
        if room.ndim == 0:
            self._room_temp = float(room)
        else:
            # Per-unit room temperatures: every unit cools toward its own
            # uncontrolled ambient (the crowd-study setting).  A chamber
            # regulates all columns toward one exterior, so the two are
            # mutually exclusive.
            if room.shape != (count,):
                raise SimulationError(
                    "room_temp_c array must have one entry per unit"
                )
            if chamber is not None:
                raise SimulationError(
                    "per-unit room temperatures require chamber=None"
                )
            self._room_temp = float(room[0])
        self._chamber = chamber
        spec = devices[0].spec
        self._spec = spec

        reference = devices[0]
        thermal = reference.thermal
        if not thermal.is_exact or thermal.propagator is None:
            raise SimulationError("batched worlds require the expm thermal solver")
        self._propagator = thermal.propagator
        self._node_count = len(thermal.node_names)
        self._idx_ambient = thermal.node_index("ambient")
        self._idx_cpu, self._idx_case, self._idx_pkg = thermal.injection_indices(
            ("cpu", "case", "pkg")
        )
        self._temps = np.array(
            [
                [dev.thermal.temperature_at(i) for i in range(self._node_count)]
                for dev in devices
            ]
        )
        self._power_buf = np.zeros((count, self._node_count))

        # -- per-unit device-persistent state --------------------------------
        self._now_dev = np.array([dev.now_s for dev in devices])
        stepwise = reference.soc.throttle.stepwise
        self._stw_interval = stepwise.poll_interval_s
        self._stw_hot = stepwise.throttle_temp_c
        self._stw_cold = stepwise.clear_temp_c
        self._stw_max = stepwise.max_steps
        self._stw_steps = np.array(
            [dev.soc.throttle.stepwise.steps for dev in devices], dtype=np.int64
        )
        self._stw_next = np.array(
            [dev.soc.throttle.stepwise._next_poll_s for dev in devices]
        )
        shutdown = reference.soc.throttle.shutdown
        self._has_shutdown = shutdown is not None
        if shutdown is not None:
            self._shd_interval = shutdown.poll_interval_s
            self._shd_hot = shutdown.critical_temp_c
            self._shd_cold = shutdown.restore_temp_c
            self._shd_max = shutdown.max_offline
            self._shd_offline = np.array(
                [dev.soc.throttle.shutdown.offline for dev in devices],
                dtype=np.int64,
            )
            self._shd_next = np.array(
                [dev.soc.throttle.shutdown._next_poll_s for dev in devices]
            )
        else:
            self._shd_offline = np.zeros(count, dtype=np.int64)
            self._shd_next = np.zeros(count)

        # Skin-temperature mitigation (slow surface-estimate polls): per-unit
        # step/next-poll state, constants shared cohort-wide from the spec.
        skin = reference.skin_throttle
        self._has_skin = skin is not None
        if skin is not None:
            self._skin_interval = skin.poll_interval_s
            self._skin_hot = skin.throttle_surface_c
            self._skin_cold = skin.clear_surface_c
            self._skin_max = skin.max_steps
            self._skin_contact = skin.skin_model.contact_resistance
            self._skin_steps = np.array(
                [dev.skin_throttle._steps for dev in devices], dtype=np.int64
            )
            self._skin_next = np.array(
                [dev.skin_throttle._next_poll_s for dev in devices]
            )
        else:
            self._skin_steps = np.zeros(count, dtype=np.int64)
            self._skin_next = np.zeros(count)

        os_ref = reference.os
        self._bg_power = os_ref.background_power_w
        self._bg_sigma = os_ref.background_sigma_w
        self._steal_mean = os_ref.steal_mean
        self._steal_sigma = os_ref.steal_sigma
        self._steal_max = os_ref.steal_max
        self._steal_interval = os_ref.steal_interval_s
        self._steal_frac = np.array([dev.os._steal_frac for dev in devices])
        self._steal_until = np.array([dev.os._steal_until_s for dev in devices])
        # The serial OsBehavior draws nothing when its terms are disabled;
        # matching the gates keeps per-unit RNG streams aligned draw-for-draw.
        self._steal_enabled = os_ref.rng is not None and not (
            self._steal_sigma == 0 and self._steal_mean == 0
        )
        self._noise_enabled = self._bg_sigma > 0 and os_ref.rng is not None
        self._os_normals = (
            _NormalBank([dev.os.rng for dev in devices], OS_NORMAL_BLOCK)
            if self._steal_enabled or self._noise_enabled
            else None
        )

        # Scalar poll-skip bounds.  ``_now_max`` is an upper bound on every
        # unit's device-local clock: each advance applied to any unit is
        # also applied to it, and float addition is monotone, so it can
        # never fall below the true max.  The ``*_next_min`` values are
        # lower bounds on the matching next-poll arrays — those only ever
        # grow, and the bound is refreshed whenever the exact vector check
        # runs.  ``now_max < next_min`` therefore proves no unit is due
        # with two Python floats, letting quiet steps skip the per-policy
        # fleet-wide compare-and-any entirely; anything else falls through
        # to the exact check, so replay is untouched.
        self._now_max = float(self._now_dev.max())
        self._stw_next_min = float(self._stw_next.min())
        self._shd_next_min = float(self._shd_next.min())
        self._skin_next_min = float(self._skin_next.min())
        self._steal_next_min = float(self._steal_until.min())
        self._any_offline = bool(self._shd_offline.any())

        sensor = reference.sensor
        self._sensor_quantum = sensor.quantization_c
        self._sensor_sigma = sensor.noise_sigma_c
        self._sensor_offset = sensor.offset_c
        self._sensor_normals = (
            _NormalBank([dev.sensor.rng for dev in devices], SENSOR_NORMAL_BLOCK)
            if self._sensor_sigma > 0 and sensor.rng is not None
            else None
        )

        self._awake_idle = spec.rails.awake_idle_w
        self._asleep_w = spec.rails.asleep_w
        self._efficiency = spec.rails.regulator_efficiency

        batteries = [isinstance(dev.supply, Battery) for dev in devices]
        self._battery_mode = all(batteries)
        if any(batteries) and not self._battery_mode:
            raise SimulationError(
                "batched units must all be battery-powered or all metered"
            )
        self._energy_total = np.array(
            [dev.supply.energy_drawn_j for dev in devices]
        )
        # Per-unit supply failure (see "Supply failures" above).
        self._failed = np.zeros(count, dtype=bool)
        self._any_failed = False
        self._failures: List[Optional[BatteryError]] = [None] * count
        if self._battery_mode:
            # Vectorized battery bank: stacked SoC / last-load state with
            # the serial Battery.draw arithmetic replayed element-wise.
            bat_specs = {dev.supply.spec for dev in devices}
            if len(bat_specs) != 1:
                raise SimulationError(
                    "batched batteries must share one BatterySpec"
                )
            bat_spec = bat_specs.pop()
            self._bat_capacity = bat_spec.energy_capacity_j
            self._bat_resistance = bat_spec.internal_resistance_ohm
            self._bat_curve_soc = np.array(
                [soc for soc, _ in bat_spec.ocv_curve]
            )
            self._bat_curve_v = np.array([v for _, v in bat_spec.ocv_curve])
            self._bat_soc = np.array(
                [dev.supply.state_of_charge for dev in devices]
            )
            self._bat_last_load = np.array(
                [dev.supply._last_load_w for dev in devices]
            )
            self._voltage = None
            self._external_mhz = None
            throttle = reference.os.voltage_throttle
            self._vt_threshold = (
                throttle.threshold_v if throttle is not None else None
            )
            self._vt_ceiling = (
                throttle.ceiling_mhz if throttle is not None else None
            )
            self._capped = np.zeros(count, dtype=bool)
            self._elapsed = np.zeros(count)
            self._energy_win = np.zeros(count)
            self._charge = np.zeros(count)
            self._peak = np.zeros(count)
        else:
            voltages = {dev.supply.output_voltage_v for dev in devices}
            if len(voltages) != 1:
                raise SimulationError(
                    "batched units must share one supply voltage"
                )
            self._voltage = voltages.pop()
            self._external_mhz = reference.os.cpu_ceiling_mhz(self._voltage)
            self._vt_threshold = None
            self._vt_ceiling = None
            self._capped = np.zeros(count, dtype=bool)
            self._elapsed = np.array([dev.supply.elapsed_s for dev in devices])
            self._energy_win = np.array([dev.supply.energy_j for dev in devices])
            self._charge = np.array([dev.supply.charge_c for dev in devices])
            self._peak = np.array(
                [dev.supply.peak_current_a for dev in devices]
            )

        self._rbcpr = reference.soc.rbcpr
        if self._rbcpr is not None:
            block = self._rbcpr
            self._rbcpr_comp = np.array(
                [
                    block.compensation_factor
                    * block.process.volt_per_vth
                    * dev.profile.vth_delta
                    for dev in devices
                ]
            )
        self._clusters = [
            _ClusterBatch(devices, k) for k in range(len(reference.soc.clusters))
        ]
        if self._external_mhz is not None:
            for batch in self._clusters:
                batch.external_index = batch.nearest_index(self._external_mhz)
        elif self._vt_ceiling is not None:
            # Battery-powered units: the cap engages per unit, per step,
            # as each terminal voltage sags past the threshold; the ladder
            # index of the capped frequency is still a batch constant.
            for batch in self._clusters:
                batch.external_index = batch.nearest_index(self._vt_ceiling)
        self._online_big = np.array(
            [dev.soc.clusters[0].online_count for dev in devices], dtype=np.int64
        )
        self._online_big_full = np.full(
            count, self._clusters[0].core_count, dtype=np.int64
        )
        self._other_cores = sum(c.core_count for c in self._clusters[1:])
        # Governor-block replay cache (see _step_awake step 4): frequency
        # choice, voltage, dynamic power and retire rate are pure functions
        # of state that only moves when a mitigation poll fires or a
        # governor knob changes, so quiet steps replay the cached arrays
        # and recompute only the temperature-dependent leakage.  Worlds
        # whose voltage moves every step (battery sag cap, RBCPR margin
        # recovery) never cache.
        self._gov_cacheable = self._rbcpr is None and not self._battery_mode
        self._gov_cache: Optional[tuple] = None
        self._leak_temp_slope = reference.soc.spec.process.leak_temp_slope
        self._rows = np.arange(count)
        self._all_units = np.ones(count, dtype=bool)
        # Hot-loop scratch (one allocation per batch, reused every step).
        self._scr_soc = np.zeros(count)
        self._scr_ops = np.zeros(count)
        self._scr_noise = np.empty(count)
        if room.ndim == 0:
            self._room_ambient = np.full(count, self._room_temp)
        else:
            self._room_ambient = room.astype(float).copy()
        self._noise_const = np.full(count, max(0.0, self._bg_power))

        # -- batch-global benchmark-app state --------------------------------
        self._load_active = False
        self._wakelock = False
        self._utilization = 1.0
        betas = {
            cluster.memory_boundedness
            for dev in devices
            for cluster in dev.soc.clusters
        }
        if len(betas) != 1:
            raise SimulationError(
                "batched units must share one memory_boundedness"
            )
        self._mem_beta = betas.pop()
        self._fixed_mhz: Optional[float] = None
        self._apply_governors()

        # -- per-iteration world state (see begin_iteration) -----------------
        self._trace_store = _TraceStore(count)
        self.event_logs: List[EventLog] = []
        self._clock_steps = np.zeros(count, dtype=np.int64)
        self._last_mit = np.zeros(count, dtype=np.int64)
        self._last_online = self._online_totals()
        self._prev_supply = np.zeros(count)
        self._ops_total = np.zeros(count)
        self._ff_windows = np.zeros(count, dtype=np.int64)
        self._ff_steps = np.zeros(count, dtype=np.int64)
        self._phase: Optional[str] = None
        #: Times the active cohort shrank mid-phase (cooldown divergence).
        self.cohort_splits = 0
        self._check_invariants = check_invariants
        self._invariants = None
        self.begin_iteration()

    # -- protocol surface ---------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units in the batch."""
        return self._count

    @property
    def dt(self) -> float:
        """Engine step, seconds."""
        return self._dt

    @property
    def traces(self) -> List[Trace]:
        """Per-unit iteration traces, built (as copies) on first read."""
        return self._trace_store.traces()

    @property
    def failures(self) -> List[Optional[BatteryError]]:
        """Per-unit supply failure, ``None`` for a unit still running."""
        return list(self._failures)

    @property
    def ops_total(self) -> np.ndarray:
        """Per-unit work retired this iteration, ops."""
        return self._ops_total.copy()

    @property
    def energy_drawn_j(self) -> np.ndarray:
        """Per-unit cumulative supply energy, joules."""
        return self._energy_total.copy()

    @property
    def clock_now(self) -> np.ndarray:
        """Per-unit iteration clock time, seconds."""
        return self._clock_steps * self._dt

    @property
    def looped_steps(self) -> np.ndarray:
        """Per-unit engine steps actually looped (clock minus macro steps)."""
        return self._clock_steps - self._ff_steps

    @property
    def fast_forward_steps(self) -> np.ndarray:
        """Per-unit clock steps covered by macro propagations."""
        return self._ff_steps.copy()

    @property
    def fast_forward_windows(self) -> np.ndarray:
        """Per-unit macro windows taken this iteration."""
        return self._ff_windows.copy()

    def ambient_now(self) -> np.ndarray:
        """Per-unit ambient the devices currently see, °C."""
        if self._chamber is not None:
            return self._chamber.air_temps_c.copy()
        return self._room_ambient.copy()

    def begin_iteration(self) -> None:
        """Reset per-iteration world state (the serial path's fresh World)."""
        count = self._count
        self._trace_store.reset()
        self.event_logs = [EventLog() for _ in range(count)]
        self._clock_steps = np.zeros(count, dtype=np.int64)
        # Serial World.__init__ starts the event edge-detector at zero steps
        # but at the device's *actual* online count.
        self._last_mit = np.zeros(count, dtype=np.int64)
        self._last_online = self._online_totals()
        self._prev_supply = np.zeros(count)
        self._ops_total = np.zeros(count)
        self._ff_windows = np.zeros(count, dtype=np.int64)
        self._ff_steps = np.zeros(count, dtype=np.int64)
        self._phase = None
        if self._check_invariants:
            # Imported lazily, mirroring Accubench._attach_invariants:
            # repro.check depends on the runner, which depends on this
            # module.  Fresh per iteration, like the serial per-World suite.
            from repro.check.invariants import BatchedInvariantSuite

            self._invariants = BatchedInvariantSuite(
                serials=[dev.serial for dev in self.devices],
                node_temps_c=self._temps,
                meter_j=self._energy_total,
                throttle_steps=self._stw_steps,
                throttle_temp_c=self._spec.throttle.throttle_temp_c,
                clear_temp_c=self._spec.throttle.clear_temp_c,
            )

    def acquire_wakelock(self) -> None:
        """Hold every unit awake."""
        self._wakelock = True

    def release_wakelock(self) -> None:
        """Let every unit suspend."""
        self._wakelock = False

    def start_load(
        self, utilization: float = 1.0, memory_boundedness: float = 0.0
    ) -> None:
        """Load every core on every unit (the π loop on all CPUs).

        Mirrors :meth:`Device.start_load`: ``memory_boundedness`` is the
        workload's frequency-independent stall fraction (at top clock).
        """
        if not 0.0 < utilization <= 1.0:
            raise SimulationError("utilization must be within (0, 1]")
        if not 0.0 <= memory_boundedness < 1.0:
            raise SimulationError("memory_boundedness must be within [0, 1)")
        self._load_active = True
        self._utilization = utilization
        self._mem_beta = memory_boundedness
        self._apply_governors()

    def stop_load(self) -> None:
        """Stop the benchmark load on every unit."""
        self._load_active = False
        self._apply_governors()

    def set_fixed_frequency(self, freq_mhz: float) -> None:
        """Pin all clusters at their nearest ladder step below a frequency."""
        self._fixed_mhz = freq_mhz
        self._apply_governors()

    def unconstrain_frequency(self) -> None:
        """Restore the performance governor."""
        self._fixed_mhz = None
        self._apply_governors()

    def set_phase(self, name: Optional[str]) -> None:
        """Annotate every unit's trace with a protocol phase from now on."""
        if name is None and self._phase is None:
            return
        now = self._clock_steps * self._dt
        self._trace_store.set_phase(name, now)
        if name is not None:
            for i in range(self._count):
                self.event_logs[i].log(now[i], "phase", name=name)
        self._phase = name

    def close(self) -> None:
        """End any open phase annotation."""
        self.set_phase(None)

    # -- engine -------------------------------------------------------------

    def run_for(self, duration_s: float) -> None:
        """Advance every unit, awake, for a fixed duration."""
        if duration_s <= 0:
            raise SimulationError("duration_s must be positive")
        steps = round(duration_s / self._dt)
        if steps < 1:
            raise SimulationError("duration shorter than one clock step")
        if not (self._wakelock or self._load_active):
            raise SimulationError(
                "batched run_for requires awake units; use run_cooldown for sleep"
            )
        for _ in range(steps):
            self._step_awake()

    def run_cooldown(
        self, targets_c: np.ndarray, poll_s: float, timeout_s: float
    ) -> np.ndarray:
        """Cooldown every unit to its target; returns per-unit elapsed time.

        The batched mirror of the serial ``run_until(read <= target)`` loop:
        per unit, the sensor is polled first (its noise draw included), then
        the still-cooling cohort fast-forwards one poll window as a single
        exact propagation.  Units that pass freeze in place until the whole
        cohort is done; so do failed units, from the start, with elapsed 0.
        Raises :class:`SimulationError` when any unit's cooldown exceeds
        ``timeout_s``, matching the serial failure mode.
        """
        if poll_s < self._dt:
            raise SimulationError("check_every_s must be at least one clock step")
        if self._wakelock or self._load_active:
            raise SimulationError("cooldown requires suspended units")
        targets_c = np.asarray(targets_c, dtype=float)
        dt = self._dt
        count = self._count
        active = ~self._failed
        started = self._clock_steps * dt
        elapsed = np.zeros(count)
        cohort = count
        while True:
            polled = np.flatnonzero(active)
            cooled = polled[self._read_sensors(polled) <= targets_c[polled]]
            if cooled.size:
                elapsed[cooled] = self._clock_steps[cooled] * dt - started[cooled]
                active[cooled] = False
            remaining = int(active.sum())
            if remaining == 0:
                return elapsed
            if remaining != cohort:
                self.cohort_splits += 1
                cohort = remaining
            overdue = active & (self._clock_steps * dt - started >= timeout_s)
            if overdue.any():
                raise SimulationError(f"run_until timed out after {timeout_s} s")
            self._fast_forward(active, poll_s)

    def run_asleep(self, duration_s: float) -> None:
        """Advance every unit, suspended, as a single exact macro window.

        The batched mirror of the serial per-poll ``world.run_for`` calls
        in :func:`repro.core.ambient_estimation.cooldown_probe`: a
        sleeping unit's power draw is constant and it draws no randomness,
        so a whole observation window collapses into one zero-order-hold
        propagation per unit without perturbing any RNG stream.
        """
        if duration_s <= 0:
            raise SimulationError("duration_s must be positive")
        if self._wakelock or self._load_active:
            raise SimulationError("run_asleep requires suspended units")
        if round(duration_s / self._dt) < 1:
            raise SimulationError("duration shorter than one clock step")
        self._fast_forward(self._all_units, duration_s)

    def read_sensors(self) -> np.ndarray:
        """Poll every unit's CPU temperature sensor, one draw per unit."""
        return self._read_sensors(None)

    def finalize(self) -> None:
        """Write the batched state back into the per-unit Device objects.

        Also rewinds every unit's OS and sensor generator to where the
        serial engine would have left it (see "RNG look-ahead" above).
        """
        for bank in (self._os_normals, self._sensor_normals):
            if bank is not None:
                bank.sync()
        for i, dev in enumerate(self.devices):
            for node in range(self._node_count):
                dev.thermal.set_temperature_at(node, float(self._temps[i, node]))
            dev._now_s = float(self._now_dev[i])
            dev.os._steal_frac = float(self._steal_frac[i])
            dev.os._steal_until_s = float(self._steal_until[i])
            stepwise = dev.soc.throttle.stepwise
            stepwise._steps = int(self._stw_steps[i])
            stepwise._next_poll_s = float(self._stw_next[i])
            if self._has_skin:
                dev.skin_throttle._steps = int(self._skin_steps[i])
                dev.skin_throttle._next_poll_s = float(self._skin_next[i])
                dev.soc.external_ceiling_steps = int(self._skin_steps[i])
            dev.soc.set_memory_boundedness(self._mem_beta)
            if self._has_shutdown:
                shutdown = dev.soc.throttle.shutdown
                shutdown._offline = int(self._shd_offline[i])
                shutdown._next_poll_s = float(self._shd_next[i])
            dev.soc.mitigation = MitigationState(
                ceiling_steps=int(self._stw_steps[i]),
                offline_cores=int(self._shd_offline[i]),
            )
            if self._battery_mode and self._vt_ceiling is not None:
                dev.soc.external_ceiling_mhz = (
                    self._vt_ceiling if self._capped[i] else None
                )
            else:
                dev.soc.external_ceiling_mhz = self._external_mhz
            for k, batch in enumerate(self._clusters):
                cluster = dev.soc.clusters[k]
                cluster.set_frequency(float(batch.freq[i]))
                cluster.voltage_adjust_v = float(batch.voltage_adjust[i])
            dev.soc.clusters[0].set_online_count(int(self._online_big[i]))
            supply = dev.supply
            if self._battery_mode:
                supply._soc = float(self._bat_soc[i])
                supply._last_load_w = float(self._bat_last_load[i])
                supply._energy_drawn_j = float(self._energy_total[i])
            else:
                supply._elapsed_s = float(self._elapsed[i])
                supply._energy_j = float(self._energy_win[i])
                supply._energy_total_j = float(self._energy_total[i])
                supply._charge_c = float(self._charge[i])
                supply._peak_current_a = float(self._peak[i])

    # -- internals ----------------------------------------------------------

    def _apply_governors(self) -> None:
        """Resolve each cluster's pinned target, mirroring Device governors.

        ``None`` means the performance governor (chase the ceiling); an
        index is the userspace pin.  Because the pin and the mitigated
        ceiling are both exact ladder rungs, ``nearest(min(pin, ceiling))``
        collapses to ``ladder[min(pin_index, ceiling_index)]``, so the hot
        loop never needs a searchsorted.
        """
        self._gov_cache = None
        for batch in self._clusters:
            if not self._load_active:
                batch.fixed_index = 0  # UserspaceGovernor(min_freq_mhz)
            elif self._fixed_mhz is not None:
                batch.fixed_index = batch.nearest_index(self._fixed_mhz)
            else:
                batch.fixed_index = None

    def _online_totals(self) -> np.ndarray:
        return self._online_big + self._other_cores

    def _read_sensors(self, units: Optional[np.ndarray]) -> np.ndarray:
        """CPU sensor reads of ``units`` (``None``: all) — the serial
        TemperatureSensor, vectorized; ``np.rint`` rounds half to even
        exactly like Python's ``round``."""
        bank = self._sensor_normals
        if units is None:
            value = self._temps[:, self._idx_cpu] + self._sensor_offset
            if bank is not None:
                value += self._sensor_sigma * bank.take_all()
        else:
            value = self._temps[units, self._idx_cpu] + self._sensor_offset
            if bank is not None:
                value += self._sensor_sigma * bank.take(units)
        if self._sensor_quantum > 0:
            value = np.rint(value / self._sensor_quantum) * self._sensor_quantum
        return value

    # -- battery bank -------------------------------------------------------

    def _battery_ocv(self, soc: np.ndarray) -> np.ndarray:
        """Piecewise-linear OCV, bracket-for-bracket with ``BatterySpec.ocv_v``."""
        xs = self._bat_curve_soc
        ys = self._bat_curve_v
        hi = np.searchsorted(xs, soc, side="left")
        np.maximum(hi, 1, out=hi)
        np.minimum(hi, xs.size - 1, out=hi)
        lo = hi - 1
        frac = (soc - xs[lo]) / (xs[hi] - xs[lo])
        return ys[lo] + frac * (ys[hi] - ys[lo])

    def _battery_terminal_v(
        self, power: np.ndarray, soc: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vector mirror of ``Battery._terminal_voltage``; NaN marks a load
        the battery cannot deliver (where the serial battery raises)."""
        soc = self._bat_soc if soc is None else soc
        ocv = self._battery_ocv(soc)
        r = self._bat_resistance
        if r == 0.0:
            return ocv
        disc = ocv * ocv - 4.0 * power * r
        volts = 0.5 * (ocv + np.sqrt(np.maximum(disc, 0.0)))
        volts[disc <= 0.0] = np.nan
        idle = power == 0.0
        if idle.any():
            volts[idle] = ocv[idle]
        return volts

    def _fail(self, units: np.ndarray, reason: str, load_w: np.ndarray) -> None:
        """Mark ``units`` (a mask) failed with the serial battery's error."""
        for i in np.flatnonzero(units & ~self._failed):
            message = (
                "battery is empty"
                if reason == "battery_empty"
                else f"load {float(load_w[i])} W exceeds what the battery can deliver"
            )
            self._failures[i] = BatteryError(reason, message)
            self._failed[i] = True
            self._any_failed = True

    def _battery_draw_awake(self, supply: np.ndarray, dt: float) -> np.ndarray:
        """Every unit's ``Battery.draw`` for one awake step, vectorized.

        Returns the supply actually drawn: zero for failed units.
        """
        soc = self._bat_soc
        empty = soc <= 0.0
        if empty.any():
            self._fail(empty, "battery_empty", supply)
        overload = np.isnan(self._battery_terminal_v(supply))
        if overload.any():
            self._fail(overload, "battery_overload", supply)
        if self._any_failed:
            supply = np.where(self._failed, 0.0, supply)
        self._bat_last_load = supply.copy()
        self._energy_total += supply * dt
        np.maximum(
            0.0, soc - supply * dt / self._bat_capacity, out=self._bat_soc
        )
        return supply

    def _battery_draw_masked(
        self, active: np.ndarray, power_w: float, duration: float
    ) -> None:
        """The active cohort's ``Battery.draw`` for one sleeping macro window."""
        load = np.full(self._count, power_w)
        empty = active & (self._bat_soc <= 0.0)
        if empty.any():
            self._fail(empty, "battery_empty", load)
        overload = active & np.isnan(self._battery_terminal_v(load))
        if overload.any():
            self._fail(overload, "battery_overload", load)
        active = active & ~self._failed
        soc = self._bat_soc[active]
        self._bat_last_load[active] = power_w
        self._energy_total[active] += power_w * duration
        self._bat_soc[active] = np.maximum(
            0.0, soc - power_w * duration / self._bat_capacity
        )

    @staticmethod
    def _poll_policy(die, now, state, next_poll, interval, hot_t, cold_t, cap):
        """Masked replay of the serial sampled-mitigation ``while`` loop.

        Returns whether any unit's poll fired — when none did, mitigation
        state cannot have changed, which lets the caller skip edge checks.
        """
        due = now >= next_poll
        if not due.any():
            return False
        while True:
            next_poll[due] += interval
            hot = due & (die >= hot_t)
            cold = due & (die <= cold_t)
            state[hot] = np.minimum(state[hot] + 1, cap)
            state[cold] = np.maximum(state[cold] - 1, 0)
            due = now >= next_poll
            if not due.any():
                return True

    def _step_awake(self) -> None:
        """One lock-step awake engine step for every unit."""
        dt = self._dt
        count = self._count
        temps = self._temps
        now = self._now_dev

        # 1. Chamber absorbs last step's waste heat; units see its air.
        if self._chamber is not None:
            self._chamber.step_masked(
                None, self._room_temp, dt, self._prev_supply
            )
            # Read-only view; every consumer below copies what it keeps.
            ambient = self._chamber.air_temps_c
        else:
            ambient = self._room_ambient
        temps[:, self._idx_ambient] = ambient
        die = temps[:, self._idx_cpu]

        # 2. Mitigation polls: skin surface estimate first (the serial
        # Device.step updates it before Soc.step), then the die-temperature
        # stepwise loop and the optional hard-limit hotplug monitor.  Each
        # policy is guarded by its scalar skip bound — when ``now_max``
        # has not reached the policy's next-poll minimum, no unit can be
        # due and the vector check (and its state changes) cannot happen.
        now_max = self._now_max
        if self._has_skin and now_max >= self._skin_next_min:
            case_pre = temps[:, self._idx_case]
            surface = case_pre - (case_pre - ambient) * self._skin_contact
            if self._poll_policy(
                surface, now, self._skin_steps, self._skin_next,
                self._skin_interval, self._skin_hot, self._skin_cold,
                self._skin_max,
            ):
                self._gov_cache = None
            self._skin_next_min = float(self._skin_next.min())
        if now_max >= self._stw_next_min:
            polled = self._poll_policy(
                die, now, self._stw_steps, self._stw_next,
                self._stw_interval, self._stw_hot, self._stw_cold, self._stw_max,
            )
            self._stw_next_min = float(self._stw_next.min())
        else:
            polled = False
        if self._has_shutdown and now_max >= self._shd_next_min:
            if self._poll_policy(
                die, now, self._shd_offline, self._shd_next,
                self._shd_interval, self._shd_hot, self._shd_cold, self._shd_max,
            ):
                polled = True
                self._any_offline = bool(self._shd_offline.any())
            self._shd_next_min = float(self._shd_next.min())
        if polled:
            self._gov_cache = None
        mit_steps = self._stw_steps
        # Soc.step sums die mitigation and the skin-policy external steps
        # before mapping to a ladder ceiling.
        ceiling_steps = (
            mit_steps + self._skin_steps if self._has_skin else mit_steps
        )

        # 3. RBCPR: one evaluation serves every cluster this step.
        if self._rbcpr is not None:
            block = self._rbcpr
            recovered = block.margin_recovery_mv_per_c * np.maximum(
                0.0, die - block.reference_temp_c
            )
            margin = np.maximum(block.min_margin_mv, block.base_margin_mv - recovered)
            adjust = self._rbcpr_comp + margin / 1000.0
        else:
            adjust = None

        # 4. Per-cluster governor, voltage, power and retire rate.  On a
        # quiet step (no poll fired, no governor knob moved since the
        # cache was built) every input except the die temperature is
        # unchanged, so the cached per-cluster arrays are replayed and
        # only the temperature-dependent leakage term is recomputed —
        # float-for-float the same expressions the build step evaluated.
        util = self._utilization if self._load_active else 0.0
        soc_power = self._scr_soc
        soc_power.fill(0.0)
        any_offline = self._any_offline
        temp_term = np.exp(self._leak_temp_slope * (die - 40.0))
        cache = self._gov_cache
        if cache is not None:
            cluster_cache, ops_rate_total, online_big = cache
            self._online_big = online_big
            for dynamic, lv, soc_leak_cores in cluster_cache:
                leak_per_core = lv * temp_term
                soc_power += dynamic + leak_per_core * soc_leak_cores
        else:
            ops_rate_total = self._scr_ops
            ops_rate_total.fill(0.0)
            if self._battery_mode and self._vt_threshold is not None:
                # Serial Device.step consults the supply's terminal voltage
                # (last step's load, current SoC) before Soc.step each step.
                volts = self._battery_terminal_v(self._bat_last_load)
                overload = np.isnan(volts)
                if overload.any():
                    self._fail(overload, "battery_overload", self._bat_last_load)
                self._capped = volts <= self._vt_threshold
            capped = self._capped
            mem_beta = self._mem_beta
            cluster_cache = []
            for k, batch in enumerate(self._clusters):
                ladder = batch.ladder
                # Frequency choice in pure index space (see _apply_governors).
                freq_index = ladder.size - 1 - ceiling_steps
                np.maximum(freq_index, 0, out=freq_index)
                if batch.external_index is not None:
                    if self._battery_mode:
                        binds = capped & (self._vt_ceiling < ladder[freq_index])
                    else:
                        binds = self._external_mhz < ladder[freq_index]
                    freq_index[binds] = batch.external_index
                if batch.fixed_index is not None:
                    np.minimum(freq_index, batch.fixed_index, out=freq_index)
                freq = ladder[freq_index]
                batch.freq = freq
                if adjust is not None:
                    batch.voltage_adjust = adjust
                voltage = (
                    batch.volt_table[self._rows, freq_index] + batch.voltage_adjust
                )
                base = batch.c_eff * voltage * voltage * (freq * 1e6)
                if mem_beta > 0.0:
                    # ClusterState._cpu_time_share / ops_per_second,
                    # element-wise: stall time is fixed at the top clock,
                    # CPU time scales 1/f.
                    ratio = mem_beta / (1.0 - mem_beta)
                    cpu_time = 1.0 / freq
                    mem_time = ratio / batch.max_freq
                    share = cpu_time / (cpu_time + mem_time)
                    per_core_dyn = base * (util * share)
                    per_core_rate = freq * 1e6 * batch.ipc
                    per_core_rate = 1.0 / (
                        1.0 / per_core_rate + ratio / batch.top_rate
                    )
                    per_core_ops = per_core_rate * util
                else:
                    per_core_dyn = base if util == 1.0 else base * util
                    per_core_ops = (freq * 1e6 * batch.ipc) * util
                # Left-to-right per-core accumulation, exactly as the serial
                # cluster sums its online cores (repeated addition, not a
                # multiply — they differ at the last ulp for 3+ cores).
                if k == 0 and any_offline:
                    online = np.maximum(0, batch.core_count - self._shd_offline)
                    self._online_big = online
                    dynamic = np.zeros(count)
                    retire = np.zeros(count)
                    for core in range(batch.core_count):
                        member = core < online
                        dynamic[member] += per_core_dyn[member]
                        retire[member] += per_core_ops[member]
                    soc_leak_cores = online
                else:
                    if k == 0:
                        self._online_big = self._online_big_full
                    dynamic = per_core_dyn.copy()
                    retire = per_core_ops.copy()
                    for _ in range(batch.core_count - 1):
                        dynamic += per_core_dyn
                        retire += per_core_ops
                    soc_leak_cores = batch.core_count
                volt_term = (voltage / batch.leak_vref) * np.exp(
                    batch.leak_volt_slope * (voltage - batch.leak_vref)
                )
                lv = batch.leak_coeff * volt_term
                leak_per_core = lv * temp_term
                soc_power += dynamic + leak_per_core * soc_leak_cores
                ops_rate_total += retire
                cluster_cache.append((dynamic, lv, soc_leak_cores))
            if self._gov_cacheable:
                self._gov_cache = (
                    cluster_cache, ops_rate_total.copy(), self._online_big
                )
        ops = ops_rate_total * dt

        # 5. OS: cycle steal (piecewise-constant, resampled per interval)
        # then residual background noise — one draw per unit per step, in
        # the serial order, from each unit's own stream.
        if self._steal_enabled:
            if now_max >= self._steal_next_min:
                due = np.flatnonzero(now >= self._steal_until)
                if due.size:
                    sampled = self._steal_mean + self._steal_sigma * (
                        self._os_normals.take(due)
                    )
                    self._steal_frac[due] = np.minimum(
                        np.maximum(sampled, 0.0), self._steal_max
                    )
                    self._steal_until[due] = now[due] + self._steal_interval
                self._steal_next_min = float(self._steal_until.min())
            ops *= 1.0 - self._steal_frac
        if self._noise_enabled:
            # ``bg + normal(0, sigma)`` is ``bg + (0.0 + sigma * z)``.
            noise = np.multiply(
                self._os_normals.take_all(), self._bg_sigma, out=self._scr_noise
            )
            noise += self._bg_power
            np.maximum(noise, 0.0, out=noise)
        else:
            noise = self._noise_const

        # 6. Rails, supply metering, thermal injection.
        load = soc_power + self._awake_idle + noise
        supply = load / self._efficiency
        if self._battery_mode:
            supply = self._battery_draw_awake(supply, dt)
        else:
            current = supply / self._voltage
            self._elapsed += dt
            energy = supply * dt
            self._energy_win += energy
            self._energy_total += energy
            self._charge += current * dt
            np.maximum(self._peak, current, out=self._peak)
        power = self._power_buf
        power[:, self._idx_cpu] = soc_power
        power[:, self._idx_case] = 0.0
        power[:, self._idx_pkg] = supply - soc_power
        if self._any_failed:
            power[self._failed] = 0.0
        self._propagator.advance_batch(temps, power, dt)
        self._now_dev = now + dt
        self._now_max = now_max + dt
        self._ops_total += ops

        # 7. Events, decimated trace, tick.  Mitigation and hotplug state
        # only move when a policy poll fired, so the edge detectors (and the
        # clock-time materialisation they need) are skipped on quiet steps.
        clock_now = None
        if polled:
            online_total = self._online_totals()
            if (mit_steps != self._last_mit).any() or (
                online_total != self._last_online
            ).any():
                clock_now = self._clock_steps * dt
                self._record_events(clock_now, mit_steps, online_total)
        rec_mask = self._clock_steps % self._decimation == 0
        if rec_mask.any():
            if clock_now is None:
                clock_now = self._clock_steps * dt
            self._record_traces(
                np.flatnonzero(rec_mask), clock_now, ambient, supply, soc_power, 0.0
            )
        self._clock_steps += 1
        self._prev_supply = supply
        if self._invariants is not None:
            self._invariants.observe_awake(
                self._clock_steps * dt,
                self._phase,
                temps[:, self._idx_cpu],
                temps[:, self._idx_case],
                ambient,
                supply,
                self._energy_total,
                self._stw_steps,
                dt,
            )

    def _fast_forward(self, active: np.ndarray, window_s: float) -> None:
        """Advance the sleeping active cohort one poll window exactly."""
        dt = self._dt
        steps = round(window_s / dt)
        duration = steps * dt
        if self._chamber is not None:
            self._chamber.run_for_masked(
                active, self._room_temp, duration, self._prev_supply
            )
            ambient = self._chamber.air_temps_c
        else:
            ambient = self._room_ambient
        temps = self._temps
        temps[active, self._idx_ambient] = ambient[active]
        supply = self._asleep_w / self._efficiency
        if self._battery_mode:
            self._battery_draw_masked(active, supply, duration)
        else:
            current = supply / self._voltage
            self._elapsed[active] += duration
            energy = supply * duration
            self._energy_win[active] += energy
            self._energy_total[active] += energy
            self._charge[active] += current * duration
            self._peak[active] = np.maximum(self._peak[active], current)
        sub = temps[active]
        power = np.zeros_like(sub)
        power[:, self._idx_pkg] = supply
        if self._any_failed:
            power[self._failed[active]] = 0.0
        self._propagator.advance_batch(sub, power, duration)
        temps[active] = sub
        self._now_dev[active] += duration
        # Upper-bound update: the true max may be inactive and not advance,
        # in which case the bound merely loosens (safe direction).
        self._now_max += duration
        self._clock_steps[active] += steps
        self._ff_windows[active] += 1
        self._ff_steps[active] += steps
        self._prev_supply[active] = supply
        # Macro windows always leave a trace sample at the poll boundary;
        # mitigation and hotplug cannot change while asleep, so no events.
        clock_now = self._clock_steps * dt
        supply_arr = np.full(self._count, supply)
        if self._invariants is not None:
            self._invariants.observe_asleep(
                active,
                clock_now,
                self._phase,
                temps[:, self._idx_cpu],
                ambient,
                supply,
                self._energy_total,
                duration,
            )
        self._record_traces(
            np.flatnonzero(active), clock_now, ambient, supply_arr,
            np.zeros(self._count), 1.0,
        )

    def _record_events(
        self, clock_now: np.ndarray, mit_steps: np.ndarray, online: np.ndarray
    ) -> None:
        for i in np.flatnonzero(mit_steps != self._last_mit):
            kind = (
                "throttle-step"
                if mit_steps[i] > self._last_mit[i]
                else "throttle-clear"
            )
            self.event_logs[i].log(float(clock_now[i]), kind, steps=int(mit_steps[i]))
            self._last_mit[i] = mit_steps[i]
        for i in np.flatnonzero(online != self._last_online):
            kind = "core-offline" if online[i] < self._last_online[i] else "core-online"
            self.event_logs[i].log(float(clock_now[i]), kind, online=int(online[i]))
            self._last_online[i] = online[i]

    def _record_traces(
        self,
        units: np.ndarray,
        clock_now: np.ndarray,
        ambient: np.ndarray,
        supply: np.ndarray,
        soc_power: np.ndarray,
        asleep: float,
    ) -> None:
        temps = self._temps
        block = np.empty((units.size, len(TRACE_CHANNELS) + 1))
        block[:, 0] = clock_now[units]
        block[:, 1] = temps[units, self._idx_cpu]
        block[:, 2] = temps[units, self._idx_case]
        block[:, 3] = ambient[units]
        block[:, 4] = supply[units]
        block[:, 5] = soc_power[units]
        block[:, 6] = self._clusters[0].freq[units]
        block[:, 7] = self._online_totals()[units]
        block[:, 8] = self._stw_steps[units]
        block[:, 9] = asleep
        fresh = self._trace_store.record(units, block)
        if self._invariants is not None:
            # Same-stamp re-records overwrite the previous row (see
            # Trace.append), so only strictly advancing stamps reach the
            # monotone-time checker — mirroring what the serial checker
            # sees, where an overwrite never grows the trace.
            if fresh.all():
                self._invariants.observe_trace(units, block[:, 0])
            elif fresh.any():
                self._invariants.observe_trace(units[fresh], block[fresh, 0])


class _ChamberView:
    """A cohort's private slice of a fleet-wide :class:`BatchedThermabox`.

    Chamber columns are fully independent — every update is elementwise
    per column — so the cohort's columns are detached into a narrow
    chamber at construction (each state array sliced out of the parent)
    and stepped at cohort width.  That is bit-identical to driving the
    cohort's columns through the parent's masked updates, but avoids
    paying full-fleet-width chamber math once per cohort per step.
    :meth:`writeback` scatters the final column state into the parent so
    post-run consumers (duty-cycle counters, elapsed time) see the whole
    fleet in one place again.
    """

    __slots__ = ("_parent", "_indices", "_box")

    _STATE = (
        "_air",
        "_element",
        "_time",
        "_next_control",
        "_heater",
        "_cooler",
        "_off_since",
        "_heater_seconds",
        "_cooler_seconds",
    )

    def __init__(self, parent: BatchedThermabox, indices: np.ndarray) -> None:
        self._parent = parent
        self._indices = indices
        box = BatchedThermabox(parent.config, count=int(indices.size))
        for name in self._STATE:
            setattr(box, name, getattr(parent, name)[indices])
        box._time_max = float(box._time.max())
        box._next_control_min = float(box._next_control.min())
        box._any_heater = bool(box._heater.any())
        box._any_cooler = bool(box._cooler.any())
        self._box = box

    @property
    def count(self) -> int:
        return self._box.count

    @property
    def air_temps_c(self) -> np.ndarray:
        return self._box.air_temps_c

    def step_masked(
        self, mask: np.ndarray, room_temp_c: float, dt: float, load_w: np.ndarray
    ) -> None:
        self._box.step_masked(mask, room_temp_c, dt, load_w)

    def run_for_masked(
        self,
        mask: np.ndarray,
        room_temp_c: float,
        duration_s: float,
        load_w: np.ndarray,
    ) -> None:
        self._box.run_for_masked(mask, room_temp_c, duration_s, load_w)

    def writeback(self) -> None:
        parent = self._parent
        for name in self._STATE:
            getattr(parent, name)[self._indices] = getattr(self._box, name)
        parent._time_max = max(parent._time_max, self._box._time_max)
        parent._next_control_min = float(parent._next_control.min())
        parent._any_heater = bool(parent._heater.any())
        parent._any_cooler = bool(parent._cooler.any())


class BatchedWorld:
    """A whole fleet — mixed device models included — advanced in lock-step.

    Units are grouped by device model into same-model cohort blocks
    (:class:`_CohortWorld`); each block shares one batched (Φ, Ψ)
    propagator application per step, so a mixed fleet advances through a
    block-diagonal update instead of falling back to per-unit worlds.
    Per-unit results come back in fleet order regardless of the cohort
    blocking, and every unit draws from its own serial-keyed RNG streams,
    so results are bit-identical to the serial path (within the BLAS
    summation budget of ``BATCH_SPEC``) for any model mix.

    A homogeneous fleet builds exactly one cohort and passes the chamber
    straight through; a mixed fleet hands each cohort a
    :class:`_ChamberView` over its own chamber columns.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        room_temp_c: Union[float, np.ndarray],
        chamber: Optional[BatchedThermabox] = None,
        dt: float = 0.1,
        trace_decimation: int = 5,
        check_invariants: bool = False,
    ) -> None:
        if not devices:
            raise SimulationError("a batched world needs at least one unit")
        self.devices = list(devices)
        count = len(devices)
        self._count = count
        self._dt = dt
        groups: "dict[str, List[int]]" = {}
        for i, dev in enumerate(devices):
            groups.setdefault(dev.spec.name, []).append(i)
        self._cohorts: List[tuple] = []
        self._chamber_views: List[_ChamberView] = []
        if len(groups) == 1:
            indices = np.arange(count)
            self._cohorts.append(
                (
                    indices,
                    _CohortWorld(
                        self.devices,
                        room_temp_c,
                        chamber=chamber,
                        dt=dt,
                        trace_decimation=trace_decimation,
                        check_invariants=check_invariants,
                    ),
                )
            )
        else:
            room = np.asarray(room_temp_c, dtype=float)
            if room.ndim != 0 and room.shape != (count,):
                raise SimulationError(
                    "room_temp_c array must have one entry per unit"
                )
            if chamber is not None and chamber.count != count:
                raise SimulationError(
                    "chamber column count must match unit count"
                )
            for indices_list in groups.values():
                indices = np.array(indices_list)
                cohort_room = (
                    float(room) if room.ndim == 0 else room[indices]
                )
                cohort_chamber = (
                    _ChamberView(chamber, indices) if chamber is not None else None
                )
                if cohort_chamber is not None:
                    self._chamber_views.append(cohort_chamber)
                self._cohorts.append(
                    (
                        indices,
                        _CohortWorld(
                            [self.devices[i] for i in indices_list],
                            cohort_room,
                            chamber=cohort_chamber,
                            dt=dt,
                            trace_decimation=trace_decimation,
                            check_invariants=check_invariants,
                        ),
                    )
                )

    # -- fleet-order gather helpers -----------------------------------------

    def _gather(self, pull, dtype=float) -> np.ndarray:
        out = np.empty(self._count, dtype=dtype)
        for indices, world in self._cohorts:
            out[indices] = pull(world)
        return out

    def _gather_list(self, pull) -> list:
        out = [None] * self._count
        for indices, world in self._cohorts:
            items = pull(world)
            for j, i in enumerate(indices):
                out[i] = items[j]
        return out

    # -- protocol surface ---------------------------------------------------

    @property
    def count(self) -> int:
        """Number of units in the batch."""
        return self._count

    @property
    def dt(self) -> float:
        """Engine step, seconds."""
        return self._dt

    @property
    def traces(self) -> List[Trace]:
        """Per-unit iteration traces, fleet order."""
        return self._gather_list(lambda w: w.traces)

    @property
    def event_logs(self) -> List[EventLog]:
        """Per-unit iteration event logs, fleet order."""
        return self._gather_list(lambda w: w.event_logs)

    @property
    def failures(self) -> List[Optional[BatteryError]]:
        """Per-unit supply failure, fleet order; ``None`` for a running unit.

        A failed unit stops drawing and dissipating and its later results
        mean nothing; no other unit's results depend on it.  Whether that
        is a dropped user or an aborted campaign is the caller's call.
        """
        return self._gather_list(lambda w: w.failures)

    @property
    def cohort_splits(self) -> int:
        """Times any cohort's active set shrank mid-phase."""
        return sum(world.cohort_splits for _, world in self._cohorts)

    @property
    def ops_total(self) -> np.ndarray:
        """Per-unit work retired this iteration, ops."""
        return self._gather(lambda w: w.ops_total)

    @property
    def energy_drawn_j(self) -> np.ndarray:
        """Per-unit cumulative supply energy, joules."""
        return self._gather(lambda w: w.energy_drawn_j)

    @property
    def clock_now(self) -> np.ndarray:
        """Per-unit iteration clock time, seconds."""
        return self._gather(lambda w: w.clock_now)

    @property
    def looped_steps(self) -> np.ndarray:
        """Per-unit engine steps actually looped (clock minus macro steps)."""
        return self._gather(lambda w: w.looped_steps, dtype=np.int64)

    @property
    def fast_forward_steps(self) -> np.ndarray:
        """Per-unit clock steps covered by macro propagations."""
        return self._gather(lambda w: w.fast_forward_steps, dtype=np.int64)

    @property
    def fast_forward_windows(self) -> np.ndarray:
        """Per-unit macro windows taken this iteration."""
        return self._gather(lambda w: w.fast_forward_windows, dtype=np.int64)

    def ambient_now(self) -> np.ndarray:
        """Per-unit ambient the devices currently see, °C."""
        return self._gather(lambda w: w.ambient_now())

    def begin_iteration(self) -> None:
        """Reset per-iteration world state (the serial path's fresh World)."""
        for _, world in self._cohorts:
            world.begin_iteration()

    def acquire_wakelock(self) -> None:
        """Hold every unit awake."""
        for _, world in self._cohorts:
            world.acquire_wakelock()

    def release_wakelock(self) -> None:
        """Let every unit suspend."""
        for _, world in self._cohorts:
            world.release_wakelock()

    def start_load(
        self, utilization: float = 1.0, memory_boundedness: float = 0.0
    ) -> None:
        """Load every core on every unit (the π loop on all CPUs)."""
        for _, world in self._cohorts:
            world.start_load(utilization, memory_boundedness)

    def stop_load(self) -> None:
        """Stop the benchmark load on every unit."""
        for _, world in self._cohorts:
            world.stop_load()

    def set_fixed_frequency(self, freq_mhz: float) -> None:
        """Pin all clusters at their nearest ladder step below a frequency."""
        for _, world in self._cohorts:
            world.set_fixed_frequency(freq_mhz)

    def unconstrain_frequency(self) -> None:
        """Restore the performance governor."""
        for _, world in self._cohorts:
            world.unconstrain_frequency()

    def set_phase(self, name: Optional[str]) -> None:
        """Annotate every unit's trace with a protocol phase from now on."""
        for _, world in self._cohorts:
            world.set_phase(name)

    def close(self) -> None:
        """End any open phase annotation."""
        for _, world in self._cohorts:
            world.close()

    def run_for(self, duration_s: float) -> None:
        """Advance every unit, awake, for a fixed duration.

        Cohorts run sequentially — units never interact and chamber
        columns are independent, so block order cannot change any unit's
        trajectory.
        """
        for _, world in self._cohorts:
            world.run_for(duration_s)

    def run_cooldown(
        self, targets_c: np.ndarray, poll_s: float, timeout_s: float
    ) -> np.ndarray:
        """Cooldown every unit to its target; returns per-unit elapsed time."""
        targets = np.asarray(targets_c, dtype=float)
        elapsed = np.empty(self._count)
        for indices, world in self._cohorts:
            elapsed[indices] = world.run_cooldown(
                targets[indices], poll_s, timeout_s
            )
        return elapsed

    def run_asleep(self, duration_s: float) -> None:
        """Advance every unit, suspended, as a single exact macro window."""
        for _, world in self._cohorts:
            world.run_asleep(duration_s)

    def read_sensors(self) -> np.ndarray:
        """Poll every unit's CPU temperature sensor, one draw per unit."""
        return self._gather(lambda w: w.read_sensors())

    def finalize(self) -> None:
        """Write the batched state back into the per-unit Device objects."""
        for _, world in self._cohorts:
            world.finalize()
        for view in self._chamber_views:
            view.writeback()
