"""Columnar multi-stream kernels vs the per-stream differential oracle.

The batch API contract (``Transcoder.encode_chunks_batch`` and
friends): a batch call over B homogeneous streams is bit-identical to
B sequential per-stream calls, leaves every FSM in the identical
state, and reports the same ``coder.*`` metrics.  The default base
implementation *is* the sequential loop, so the hypothesis properties
below pin the TransitionCoder's real 2-D kernels against it — and the
generic test keeps the API callable for every registered family.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import _bitops, obs
from repro.coding import CODER_FAMILIES, build_coder
from repro.coding.transition import TransitionCoder
from repro.traces import BusTrace, StreamingDecoder, StreamingEncoder

WIDTH = 16

# B ragged streams of 16-bit words: the columnar kernels must be exact
# for any mix of lengths, including empty rows and empty batches.
stream_batches = st.lists(
    st.lists(st.integers(0, 0xFFFF), min_size=0, max_size=24),
    min_size=1,
    max_size=6,
)
# Per-stream pre-warm lengths (nonzero FSM seeds before the batch wave).
warmups = st.lists(st.integers(0, 8), min_size=6, max_size=6)


def fresh(family):
    return build_coder(family, 4, WIDTH)


class TestBitops:
    @given(rows=stream_batches)
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_round_trip(self, rows):
        arrays = [np.asarray(r, dtype=np.uint64) for r in rows]
        matrix, lengths = _bitops.pack_streams(arrays)
        out = _bitops.unpack_streams(matrix, lengths)
        assert len(out) == len(arrays)
        for a, b in zip(arrays, out):
            assert np.array_equal(a, b)

    @given(rows=stream_batches, seeds=st.lists(st.integers(0, 0xFFFF), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_scan_then_diff_is_identity(self, rows, seeds):
        arrays = [np.asarray(r, dtype=np.uint64) for r in rows]
        seed_arr = np.asarray(seeds[: len(arrays)], dtype=np.uint64)
        matrix, lengths = _bitops.pack_streams(arrays)
        scanned = _bitops.xor_scan_rows(matrix, seed_arr)
        back = _bitops.xor_diff_rows(scanned, seed_arr)
        for a, b in zip(arrays, _bitops.unpack_streams(back, lengths)):
            assert np.array_equal(a, b)


class TestTransitionColumnar:
    """The real 2-D kernels against the sequential per-stream loop."""

    @given(batch=stream_batches, warm=warmups)
    @settings(max_examples=50, deadline=None)
    def test_encode_batch_matches_streams_with_live_state(self, batch, warm):
        solo = [TransitionCoder(WIDTH) for _ in batch]
        cols = [TransitionCoder(WIDTH) for _ in batch]
        # Pre-warm each FSM differently so the batch inherits nonzero,
        # non-uniform seeds.
        for i, (a, b) in enumerate(zip(solo, cols)):
            prefix = list(range(1, 1 + warm[i % len(warm)]))
            a.encode_chunk(prefix)
            b.encode_chunk(prefix)
        expected = [a.encode_chunk(chunk) for a, chunk in zip(solo, batch)]
        got = TransitionCoder.encode_chunks_batch(cols, batch)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)
        for a, b in zip(solo, cols):
            assert a._enc_state == b._enc_state

    @given(batch=stream_batches, warm=warmups)
    @settings(max_examples=50, deadline=None)
    def test_decode_batch_matches_streams_with_live_state(self, batch, warm):
        solo = [TransitionCoder(WIDTH) for _ in batch]
        cols = [TransitionCoder(WIDTH) for _ in batch]
        for i, (a, b) in enumerate(zip(solo, cols)):
            prefix = list(range(1, 1 + warm[i % len(warm)]))
            a.decode_chunk(prefix)
            b.decode_chunk(prefix)
        expected = [a.decode_chunk(chunk) for a, chunk in zip(solo, batch)]
        got = TransitionCoder.decode_chunks_batch(cols, batch)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)
        for a, b in zip(solo, cols):
            assert a._dec_state == b._dec_state

    @given(batch=stream_batches)
    @settings(max_examples=50, deadline=None)
    def test_encode_traces_batch_matches_solo_encodes(self, batch):
        # A batch of whole traces (the serve engine's coalesced
        # encode_trace wave: one fresh coder per trace, one 2-D scan)
        # equals encoding each trace on its own from power-on.
        traces = [BusTrace.from_values(v, width=WIDTH) for v in batch]
        solo = [TransitionCoder(WIDTH) for _ in traces]
        expected = [c.encode_trace(t) for c, t in zip(solo, traces)]
        cols = [TransitionCoder(WIDTH) for _ in traces]
        got = TransitionCoder.encode_chunks_batch(cols, [t.values for t in traces])
        for e, g in zip(expected, got):
            assert np.array_equal(e.values, g)
        # Each batch coder ends exactly where its solo encode_trace did.
        for a, b in zip(solo, cols):
            assert a._enc_state == b._enc_state

    def test_metrics_match_the_sequential_loop(self):
        chunks = [[1, 2, 3], [4, 5], []]
        reg = obs.get_registry()

        def stream_counters(run):
            before = reg.snapshot()
            run()
            delta = reg.diff(before)["counters"]
            return {
                k: v
                for k, v in delta.items()
                if k.startswith("coder.stream")
            }

        def solo():
            coders = [TransitionCoder(WIDTH) for _ in chunks]
            for coder, chunk in zip(coders, chunks):
                coder.encode_chunk(chunk)

        def batch():
            coders = [TransitionCoder(WIDTH) for _ in chunks]
            TransitionCoder.encode_chunks_batch(coders, chunks)

        assert stream_counters(solo) == stream_counters(batch)


@pytest.mark.parametrize("family", CODER_FAMILIES)
class TestBatchApiEveryFamily:
    """The batch API is callable for every family; non-columnar
    families fall back to the sequential loop bit-identically."""

    @given(batch=stream_batches)
    @settings(max_examples=10, deadline=None)
    def test_feed_many_equals_sequential_feeds(self, family, batch):
        seq = [StreamingEncoder(fresh(family)) for _ in batch]
        col = [StreamingEncoder(fresh(family)) for _ in batch]
        expected = [s.feed(chunk) for s, chunk in zip(seq, batch)]
        got = StreamingEncoder.feed_many(col, batch)
        for e, g in zip(expected, got):
            assert np.array_equal(e, g)
        for s, c in zip(seq, col):
            assert s.cycles == c.cycles
            assert s._last_state == c._last_state

    @given(batch=stream_batches)
    @settings(max_examples=10, deadline=None)
    def test_decode_feed_many_round_trips(self, family, batch):
        encoders = [StreamingEncoder(fresh(family)) for _ in batch]
        wire = [enc.feed(chunk) for enc, chunk in zip(encoders, batch)]
        decoders = [StreamingDecoder(fresh(family)) for _ in batch]
        got = StreamingDecoder.feed_many(decoders, wire)
        for original, decoded in zip(batch, got):
            assert np.array_equal(
                np.asarray(original, dtype=np.uint64), decoded
            )

    def test_columnar_flag_marks_the_overriding_family(self, family):
        coder = fresh(family)
        assert coder.columnar_batch is (family == "transition")
