"""Differential tests: vectorized chunk kernels vs the scalar FSM oracle.

Every coder with a fast path (`TransitionCoder`, `InversionTranscoder`,
`LastValueTranscoder`, `WindowTranscoder`) must produce *bit-identical*
encodes and decodes
to its per-cycle loop on every input — suite traces, synthetic traces,
adversarial hypothesis streams, empty traces, any chunking — and must
leave the FSM in the same state the scalar loop would, so per-cycle
calls (or the next chunk) continue seamlessly after a kernel call.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro._bitops import (
    HAVE_BITWISE_COUNT,
    _popcount_table,
    pair_coupling_counts,
    popcount,
)
from repro.coding import (
    InversionTranscoder,
    LastValueTranscoder,
    TransitionCoder,
    WindowTranscoder,
)
from repro.coding.errors import DesyncError
from repro.coding.predictive import CTRL_CODE, CTRL_RAW
from repro.traces import BusTrace
from repro.workloads import locality_trace, random_trace, suite_traces

WIDTH = 32

CODER_FACTORIES = {
    "transition": lambda w=WIDTH: TransitionCoder(w),
    "last-value": lambda w=WIDTH: LastValueTranscoder(w),
    "invert-k1": lambda w=WIDTH: InversionTranscoder(w, 1),
    "invert-k2": lambda w=WIDTH: InversionTranscoder(w, 2),
    "invert-lam0": lambda w=WIDTH: InversionTranscoder(w, 1, assumed_lambda=0.0),
    "invert-lam2.5": lambda w=WIDTH: InversionTranscoder(w, 2, assumed_lambda=2.5),
    "window1": lambda w=WIDTH: WindowTranscoder(1, w),
    "window2": lambda w=WIDTH: WindowTranscoder(2, w),
    "window8": lambda w=WIDTH: WindowTranscoder(8, w),
    "window16": lambda w=WIDTH: WindowTranscoder(16, w),
}


def assert_differential(make, trace):
    """Fast and scalar paths agree on values, widths and names."""
    fast_coder, scalar_coder = make(trace.width), make(trace.width)
    fast = fast_coder.encode_trace(trace)
    scalar = scalar_coder.encode_trace_scalar(trace)
    assert np.array_equal(fast.values, scalar.values)
    assert fast.width == scalar.width
    assert fast.name == scalar.name

    fast_dec = fast_coder.decode_trace(fast)
    scalar_dec = scalar_coder.decode_trace_scalar(scalar)
    assert np.array_equal(fast_dec.values, scalar_dec.values)
    assert np.array_equal(fast_dec.values, trace.values)
    assert fast_dec.name == scalar_dec.name == trace.name  # satellite: name restored


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
@pytest.mark.parametrize("fixture", ["rand_trace", "local_trace", "gcc_register"])
def test_differential_on_standard_traces(coder_name, fixture, request):
    trace = request.getfixturevalue(fixture)
    assert_differential(CODER_FACTORIES[coder_name], trace)


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
def test_differential_on_full_suite(coder_name):
    """The acceptance check: vectorized == scalar on every suite trace."""
    for trace in suite_traces("register", None, 2500).values():
        assert_differential(CODER_FACTORIES[coder_name], trace)


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
@pytest.mark.parametrize("bus", ["register", "memory", "address", "result"])
def test_differential_across_buses(coder_name, bus):
    trace = suite_traces(bus, ("gcc",), 2000)["gcc"]
    assert_differential(CODER_FACTORIES[coder_name], trace)


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
def test_differential_on_empty_trace(coder_name):
    empty = BusTrace(np.empty(0, dtype=np.uint64), WIDTH, "empty")
    assert_differential(CODER_FACTORIES[coder_name], empty)


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
def test_differential_on_narrow_bus(coder_name, tiny_trace):
    assert_differential(CODER_FACTORIES[coder_name], tiny_trace)


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
def test_fsm_state_matches_after_trace_call(coder_name):
    """Per-cycle calls after a fast trace call continue exactly as they
    would after the scalar loop — the kernel must restore the FSM."""
    trace = locality_trace(700, WIDTH, seed=3)
    tail = [0, 7, 7, 0xDEADBEEF, 0xDEADBEEF, 1 << 31, 0]
    fast_coder = CODER_FACTORIES[coder_name](WIDTH)
    scalar_coder = CODER_FACTORIES[coder_name](WIDTH)
    fast_phys = fast_coder.encode_trace(trace)
    scalar_phys = scalar_coder.encode_trace_scalar(trace)
    assert [fast_coder.encode_value(v) for v in tail] == [
        scalar_coder.encode_value(v) for v in tail
    ]
    # Same for the decoder side.
    fast_coder.decode_trace(fast_phys)
    scalar_coder.decode_trace_scalar(scalar_phys)
    probe = int(scalar_phys.values[-1]) if len(scalar_phys) else 0
    assert fast_coder.decode_state(probe) == scalar_coder.decode_state(probe)


def test_last_value_ablations_fall_back_to_scalar():
    """Non-default LAST configurations take the scalar path (and the
    trace API still matches the oracle bit for bit)."""
    trace = locality_trace(400, WIDTH, seed=5)
    for silent_last, edge_control in ((False, False), (True, True), (False, True)):
        coder = LastValueTranscoder(WIDTH)
        coder.silent_last = silent_last
        coder.edge_control = edge_control
        assert not coder._fast_path_ok()
        oracle = LastValueTranscoder(WIDTH)
        oracle.silent_last = silent_last
        oracle.edge_control = edge_control
        fast = coder.encode_trace(trace)
        scalar = oracle.encode_trace_scalar(trace)
        assert np.array_equal(fast.values, scalar.values)


# -- hypothesis streams ---------------------------------------------------

streams32 = st.lists(
    st.one_of(
        st.integers(0, (1 << WIDTH) - 1),
        st.sampled_from([0, 1, 0xFFFFFFFF, 0xAAAAAAAA, 0x55555555, 0x12345678]),
    ),
    min_size=0,
    max_size=90,
)


@settings(deadline=None, max_examples=60)
@given(values=streams32)
def test_differential_hypothesis(values):
    trace = BusTrace.from_values(values, width=WIDTH, name="hyp")
    for make in CODER_FACTORIES.values():
        assert_differential(make, trace)


# -- chunked kernels vs the scalar oracle ----------------------------------

#: Chunk lengths carving a stream: 0 and 1 are the edge cases a
#: stateful kernel most easily gets wrong at its boundaries.
chunk_sizes = st.lists(st.integers(0, 23), min_size=0, max_size=12)
#: Streams over a tiny alphabet, so repeats and power-on values land on
#: chunk boundaries often (the cases a live-state kernel must get right).
chunk_streams = st.one_of(
    streams32,
    st.lists(st.sampled_from([0, 1, 0xFFFFFFFF, 0xAAAAAAAA]), min_size=0, max_size=60),
)

LAST_ABLATIONS = ((False, False), (True, True), (False, True))


def carve(stream, sizes):
    """``stream`` cut at ``sizes`` (empty chunks kept), plus the tail."""
    parts, pos = [], 0
    for size in sizes:
        parts.append(stream[pos : pos + size])
        pos += size
    parts.append(stream[pos:])
    return parts


def fsm_fields(coder):
    """Every FSM field of a coder, predictor state included."""
    fields = dict(vars(coder))
    predictor = fields.pop("predictor", None)
    if predictor is not None:
        fields["predictor"] = dict(vars(predictor))
    return fields


def assert_chunked_matches_scalar(make, values, sizes):
    trace = BusTrace.from_values(values, width=WIDTH)
    scalar = make(WIDTH)
    scalar_phys = scalar.encode_trace_scalar(trace)
    chunked = make(WIDTH)
    parts = [chunked.encode_chunk(c) for c in carve(trace.values, sizes)]
    assert np.array_equal(np.concatenate(parts), scalar_phys.values)
    assert fsm_fields(chunked) == fsm_fields(scalar)

    scalar_dec = scalar.decode_trace_scalar(scalar_phys)
    decoder = make(WIDTH)
    parts = [decoder.decode_chunk(c) for c in carve(scalar_phys.values, sizes)]
    assert np.array_equal(np.concatenate(parts), scalar_dec.values)
    assert fsm_fields(decoder) == fsm_fields(scalar)


#: Every cycle its own chunk (plus empties): a repeat, a power-on value
#: after a non-zero one and a miss whose polarity depends on the live bus
#: state each straddle a boundary.
BOUNDARY_STREAM = [0xFFFFFFFF, 1, 1, 0, 0xAAAAAAAA, 0xAAAAAAAA, 0x55555555]
BOUNDARY_SIZES = [1, 0, 1, 1, 1, 1, 0, 1, 1]
#: Starts at the power-on LAST value 0: a silent LAST hit that a window
#: still inserts, in a 1-word first chunk.
POWER_ON_STREAM = [0, 0, 5, 0, 5, 5, 9, 0]
POWER_ON_SIZES = [1, 0, 2, 1]


@pytest.mark.parametrize("coder_name", sorted(CODER_FACTORIES))
@settings(deadline=None, max_examples=60)
@given(values=chunk_streams, sizes=chunk_sizes)
@example(values=BOUNDARY_STREAM, sizes=BOUNDARY_SIZES)
@example(values=POWER_ON_STREAM, sizes=POWER_ON_SIZES)
def test_chunked_kernels_match_scalar_oracle(coder_name, values, sizes):
    assert_chunked_matches_scalar(CODER_FACTORIES[coder_name], values, sizes)


@pytest.mark.parametrize("silent_last, edge_control", LAST_ABLATIONS)
@settings(deadline=None, max_examples=20)
@given(values=chunk_streams, sizes=chunk_sizes)
@example(values=BOUNDARY_STREAM, sizes=BOUNDARY_SIZES)
def test_last_value_ablation_chunks_take_the_fallback(
    silent_last, edge_control, values, sizes
):
    def make(width):
        coder = LastValueTranscoder(width)
        coder.silent_last = silent_last
        coder.edge_control = edge_control
        assert not coder._fast_path_ok()
        return coder

    assert_chunked_matches_scalar(make, values, sizes)


@pytest.mark.parametrize("bad_ctrl", [0b10, 0b00])
def test_last_value_malformed_second_chunk_desyncs_like_scalar(bad_ctrl):
    """A malformed control state in the second chunk replays the scalar
    loop from the live state: same message, same cycle annotation."""
    trace = locality_trace(60, WIDTH, seed=9)
    states = LastValueTranscoder(WIDTH).encode_trace(trace).values.copy()
    bad = 25  # inside the second chunk of a 20-word chunking
    data = (int(states[bad - 1]) & 0xFFFFFFFF) ^ 0x5  # loud: data changes
    states[bad] = (bad_ctrl << WIDTH) | data
    phys = BusTrace(states, WIDTH + 2)
    with pytest.raises(DesyncError) as scalar_exc:
        LastValueTranscoder(WIDTH).decode_trace_scalar(phys)
    decoder = LastValueTranscoder(WIDTH)
    decoder.decode_chunk(states[:20])
    with pytest.raises(DesyncError) as chunk_exc:
        decoder.decode_chunk(states[20:40])
    assert str(chunk_exc.value) == str(scalar_exc.value)
    assert chunk_exc.value.cycle == scalar_exc.value.cycle == bad
    assert chunk_exc.value.coder == scalar_exc.value.coder


@pytest.mark.parametrize("size", [1, 8])
@pytest.mark.parametrize("silent_last, edge_control", LAST_ABLATIONS)
@settings(deadline=None, max_examples=20)
@given(values=chunk_streams, sizes=chunk_sizes)
@example(values=POWER_ON_STREAM, sizes=POWER_ON_SIZES)
def test_window_ablation_chunks_take_the_fallback(
    size, silent_last, edge_control, values, sizes
):
    def make(width):
        coder = WindowTranscoder(size, width)
        coder.silent_last = silent_last
        coder.edge_control = edge_control
        assert not coder._fast_path_ok()
        return coder

    assert_chunked_matches_scalar(make, values, sizes)


def _window8_states():
    """A well-formed window8 stream over four values, so four slots stay
    empty; cut into 20-word chunks by the tests below, its second chunk
    inserts two of them before the corrupted cycle 25."""
    values = [0x10, 0x20] * 10 + [0x30, 0x40, 0x30, 0x10, 0x40]
    values += [0x10, 0x20, 0x30, 0x40, 0x40] * 7
    trace = BusTrace.from_values(values, width=WIDTH)
    return WindowTranscoder(8, WIDTH).encode_trace(trace).values.copy()


def _code_state(states, bad, codeword, ctrl=CTRL_CODE):
    """Overwrite cycle ``bad`` with ``codeword`` sent against the bus."""
    data = (int(states[bad - 1]) & 0xFFFFFFFF) ^ codeword
    states[bad] = (ctrl << WIDTH) | data


WINDOW8_CODEWORDS = WindowTranscoder(8, WIDTH)._codewords


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda s, bad: _code_state(s, bad, 0b11), "unassigned codeword"),
        (lambda s, bad: _code_state(s, bad, WINDOW8_CODEWORDS[6]), "is empty"),
        (lambda s, bad: _code_state(s, bad, 0x5, ctrl=0b10), "invalid control"),
    ],
    ids=["unassigned-codeword", "empty-slot", "bad-control"],
)
def test_window_decode_desync_matches_scalar(corrupt, message):
    """Every decode anomaly in the second chunk discards the kernel's
    work and replays the scalar loop from the live state: same message,
    coder and cycle, and the same FSM left behind."""
    states = _window8_states()
    bad = 25
    corrupt(states, bad)
    phys = BusTrace(states, WIDTH + 2)
    scalar = WindowTranscoder(8, WIDTH)
    with pytest.raises(DesyncError) as scalar_exc:
        scalar.decode_trace_scalar(phys)
    decoder = WindowTranscoder(8, WIDTH)
    decoder.decode_chunk(states[:20])
    with pytest.raises(DesyncError) as chunk_exc:
        decoder.decode_chunk(states[20:40])
    assert message in str(scalar_exc.value)
    assert str(chunk_exc.value) == str(scalar_exc.value)
    assert chunk_exc.value.cycle == scalar_exc.value.cycle == bad
    assert chunk_exc.value.coder == scalar_exc.value.coder == "WindowTranscoder"
    assert fsm_fields(decoder) == fsm_fields(scalar)


@settings(deadline=None, max_examples=60)
@given(values=st.lists(st.integers(0, (1 << 64) - 1), min_size=0, max_size=64))
def test_popcount_matches_table_and_python(values):
    arr = np.array(values, dtype=np.uint64)
    fast = popcount(arr)
    table = _popcount_table(arr)
    expected = np.array([bin(v).count("1") for v in values], dtype=np.int64)
    assert np.array_equal(fast, expected)
    assert np.array_equal(table, expected)
    assert fast.dtype == np.int64


def test_popcount_native_path_flag():
    """NumPy >= 2 must use the native ufunc (this environment has it)."""
    if hasattr(np, "bitwise_count"):
        assert HAVE_BITWISE_COUNT


def _kappa_reference(old, new, width):
    """Per-wire-loop equation-3 coupling count (the scalar definition)."""

    def delta(n):
        before, after = (old >> n) & 1, (new >> n) & 1
        return after - before

    return sum(abs(delta(n) - delta(n + 1)) for n in range(width - 1))


@settings(deadline=None, max_examples=80)
@given(
    old=st.integers(0, (1 << 16) - 1),
    new=st.integers(0, (1 << 16) - 1),
    width=st.integers(1, 16),
)
def test_pair_coupling_counts_matches_reference(old, new, width):
    mask = (1 << width) - 1
    old &= mask
    new &= mask
    got = pair_coupling_counts(
        np.array([old], dtype=np.uint64), np.array([new], dtype=np.uint64), width
    )
    assert int(got[0]) == _kappa_reference(old, new, width)
