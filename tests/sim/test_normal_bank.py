"""The batched engine's block-drawn normals against scalar ``normal`` calls.

Each unit's OS stream serves a cycle-steal resample (``normal(mean,
sigma)``) for some units and a background-noise draw (``normal(0,
sigma)``) for all of them, interleaved step by step; its sensor stream
serves polls of all or some units.  The bank must hand out exactly the
values those scalar calls return, across block refills, and after
``sync()`` every generator must sit where the scalar calls left it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import _NormalBank

UNITS = 4
STEAL = (0.010, 0.010)
NOISE = (0.015, 0.004)
SENSOR = 0.3

#: One engine-level draw: steal resample for a subset, background noise
#: for all, a sensor read of a subset or of all, or a mid-run sync.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("steal"), st.lists(st.booleans(), min_size=UNITS, max_size=UNITS)),
        st.tuples(st.just("noise"), st.none()),
        st.tuples(st.just("sensor"), st.lists(st.booleans(), min_size=UNITS, max_size=UNITS)),
        st.tuples(st.just("sensor_all"), st.none()),
        st.tuples(st.just("sync"), st.none()),
    ),
    max_size=60,
)


def streams(seed, kind):
    return [np.random.default_rng([seed, kind, i]) for i in range(UNITS)]


def state(rngs):
    return [rng.bit_generator.state for rng in rngs]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    os_block=st.integers(1, 5),
    sensor_block=st.integers(1, 5),
    ops=operations,
)
def test_bank_replays_scalar_normals_exactly(seed, os_block, sensor_block, ops):
    # Tiny blocks force refills, and rows falling out of step, inside
    # one example.
    os_rngs, sensor_rngs = streams(seed, 0), streams(seed, 1)
    os_ref, sensor_ref = streams(seed, 0), streams(seed, 1)
    os_bank = _NormalBank(os_rngs, os_block)
    sensor_bank = _NormalBank(sensor_rngs, sensor_block)
    for name, mask in ops:
        if name == "steal":
            units = np.flatnonzero(mask)
            if units.size == 0:
                continue
            got = STEAL[0] + STEAL[1] * os_bank.take(units)
            want = [os_ref[i].normal(*STEAL) for i in units]
        elif name == "noise":
            got = NOISE[0] + NOISE[1] * os_bank.take_all()
            want = [NOISE[0] + r.normal(0.0, NOISE[1]) for r in os_ref]
        elif name == "sensor":
            units = np.flatnonzero(mask)
            if units.size == 0:
                continue
            got = 40.0 + SENSOR * sensor_bank.take(units)
            want = [40.0 + sensor_ref[i].normal(0.0, SENSOR) for i in units]
        elif name == "sensor_all":
            got = 40.0 + SENSOR * sensor_bank.take_all()
            want = [40.0 + r.normal(0.0, SENSOR) for r in sensor_ref]
        else:
            os_bank.sync()
            sensor_bank.sync()
            assert state(os_rngs) == state(os_ref)
            assert state(sensor_rngs) == state(sensor_ref)
            continue
        assert got.tolist() == want  # bit-equal, not approximately
    os_bank.sync()
    sensor_bank.sync()
    assert state(os_rngs) == state(os_ref)
    assert state(sensor_rngs) == state(sensor_ref)


def test_sync_is_idempotent_and_untouched_units_never_draw():
    rngs, ref = streams(7, 0), streams(7, 0)
    bank = _NormalBank(rngs, 8)
    bank.take(np.array([1, 3]))
    bank.sync()
    bank.sync()
    for i in (1, 3):
        ref[i].normal()
    assert state(rngs) == state(ref)
    # Units 0 and 2 never drew: their generators were never read either.
    assert state(rngs)[0] == state(streams(7, 0))[0]


def test_spent_block_needs_no_rewind():
    rngs, ref = streams(3, 0), streams(3, 0)
    bank = _NormalBank(rngs, 4)
    for _ in range(8):  # two whole blocks, nothing left over
        bank.take_all()
    bank.sync()
    for r in ref:
        r.standard_normal(8)
    assert state(rngs) == state(ref)
