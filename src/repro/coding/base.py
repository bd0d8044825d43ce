"""Transcoder interfaces (paper Figures 1-2).

A *bus transcoder* is a pair of synchronous FSMs at either end of a
long bus.  The encoder maps each W_B-bit input value to a W_C-bit
physical wire state; the decoder recovers the value from the wire
state.  Both sides may hold arbitrary internal state as long as it is
a function of the value stream itself — the encoder updates from its
inputs, the decoder from its (identical) outputs, so the two stay in
lock step without side channels.  That symmetry is the correctness
contract of every scheme here, and it is what the round-trip property
tests in ``tests/`` check.

Subclasses implement the per-cycle :meth:`Transcoder.encode_value` /
:meth:`Transcoder.decode_state` plus :meth:`Transcoder.reset`.  A family
with a vectorized kernel overrides exactly one more pair: the stateful
chunk kernels ``_encode_chunk_fast``/``_decode_chunk_fast``, which
advance the live FSM over an array of cycles.  Whole traces, streamed
chunks and batches of streams all run through that pair, so a kernel
serves every caller once written.
"""

from __future__ import annotations

import copy
import time
from abc import ABC, abstractmethod
from typing import Any, Dict, List

import numpy as np

from .. import obs
from ..traces.trace import BusTrace

__all__ = ["Transcoder", "IdentityTranscoder"]


class Transcoder(ABC):
    """Base class for all bus transcoders.

    Subclasses must set :attr:`input_width` and :attr:`output_width`
    (number of physical wires, including any control wires) and
    implement the per-cycle methods.  Instances are stateful; call
    :meth:`reset` (or use the trace-level methods, which reset first)
    before reusing one on a new trace.
    """

    input_width: int
    output_width: int

    @abstractmethod
    def reset(self) -> None:
        """Return all internal state to the power-on configuration."""

    @abstractmethod
    def encode_value(self, value: int) -> int:
        """Encode one input value; returns the next physical wire state."""

    @abstractmethod
    def decode_state(self, state: int) -> int:
        """Decode one physical wire state; returns the recovered value."""

    # -- the kernel contract --------------------------------------------
    #
    # Each family has ONE fast path: the stateful chunk kernel pair
    # ``_encode_chunk_fast``/``_decode_chunk_fast``, which advances the
    # *live* FSM over a 1-D array of cycles and leaves it exactly where
    # the per-cycle loop would.  The base versions below ARE that loop,
    # so a family without a kernel of its own (the context, stride and
    # FCM predictors, the related-work coders, the context design's
    # hardware audit) is correct by definition.  The window coder's
    # kernel also yields the window hardware audit's operation counts.
    # Every public entry point routes through the pair:
    #
    # * ``encode_trace``/``decode_trace``: width check + ``reset()`` +
    #   kernel + ``BusTrace`` wrap (``coder.encodes``/``decodes`` metrics);
    # * ``encode_chunk``/``decode_chunk``: no reset — successive calls
    #   continue one stream (``coder.stream_*`` metrics);
    # * ``encode_chunks_batch``/``decode_chunks_batch``: B live streams
    #   at once; only families with a 2-D kernel override them.
    #
    # ``encode_trace_scalar``/``decode_trace_scalar`` always run the
    # base loop and are the differential-testing oracle for every
    # kernel (tests/test_vectorized_kernels.py).

    def _encode_chunk_fast(self, values: np.ndarray) -> np.ndarray:
        """Encode masked ``values`` from the live FSM state (override point)."""
        out = np.empty(len(values), dtype=np.uint64)
        encode = self.encode_value
        for i, value in enumerate(values):
            out[i] = encode(int(value))
        return out

    def _decode_chunk_fast(self, states: np.ndarray) -> np.ndarray:
        """Decode masked ``states`` from the live FSM state (override point)."""
        out = np.empty(len(states), dtype=np.uint64)
        decode = self.decode_state
        for i, state in enumerate(states):
            out[i] = decode(int(state))
        return out

    def _check_encode_width(self, trace: BusTrace) -> None:
        if trace.width != self.input_width:
            raise ValueError(
                f"trace width {trace.width} != transcoder input width {self.input_width}"
            )

    def _check_decode_width(self, phys: BusTrace) -> None:
        if phys.width != self.output_width:
            raise ValueError(
                f"trace width {phys.width} != transcoder output width {self.output_width}"
            )

    def _encoded_name(self, trace: BusTrace) -> str:
        """``"logical|CoderName"`` label for the physical trace."""
        return f"{trace.name}|{type(self).__name__}" if trace.name else type(self).__name__

    def _decoded_name(self, phys: BusTrace) -> str:
        """Restore the logical trace name by stripping our own suffix.

        ``encode_trace`` labels the physical trace ``"name|CoderName"``;
        decoding recovers the value stream, so the decoded trace gets
        the logical ``"name"`` back.  Foreign names pass through as-is.
        """
        suffix = f"|{type(self).__name__}"
        if phys.name.endswith(suffix):
            return phys.name[: -len(suffix)]
        return phys.name

    def encode_trace_scalar(self, trace: BusTrace) -> BusTrace:
        """Encode a whole trace through the per-cycle FSM loop.

        The encoder is reset first, so the result is a pure function of
        the input trace.  The output trace's ``initial`` is 0: the bus
        powers on quiescent, matching the accounting of the input side.
        """
        self._check_encode_width(trace)
        self.reset()
        out = Transcoder._encode_chunk_fast(self, trace.values)
        return BusTrace(out, self.output_width, self._encoded_name(trace))

    def decode_trace_scalar(self, phys: BusTrace) -> BusTrace:
        """Decode a physical trace through the per-cycle FSM loop."""
        self._check_decode_width(phys)
        self.reset()
        out = Transcoder._decode_chunk_fast(self, phys.values)
        return BusTrace(out, self.input_width, self._decoded_name(phys))

    def encode_trace(self, trace: BusTrace) -> BusTrace:
        """Encode a whole trace; returns the physical wire-state trace.

        Resets the encoder and runs the family's chunk kernel over the
        whole trace.  When observability is enabled, records per-coder
        encode counts, cycle throughput and latency (``coder.encodes``,
        ``coder.encoded_cycles``, ``coder.encode_s``).
        """
        self._check_encode_width(trace)
        t0 = time.perf_counter()
        self.reset()
        out = self._encode_chunk_fast(trace.values)
        if obs.is_enabled():
            name = type(self).__name__
            obs.inc("coder.encodes", coder=name)
            obs.inc("coder.encoded_cycles", len(trace), coder=name)
            obs.observe("coder.encode_s", time.perf_counter() - t0, coder=name)
        return BusTrace(out, self.output_width, self._encoded_name(trace))

    def decode_trace(self, phys: BusTrace) -> BusTrace:
        """Decode a physical wire-state trace back to the value stream."""
        self._check_decode_width(phys)
        t0 = time.perf_counter()
        self.reset()
        out = self._decode_chunk_fast(phys.values)
        if obs.is_enabled():
            name = type(self).__name__
            obs.inc("coder.decodes", coder=name)
            obs.inc("coder.decoded_cycles", len(phys), coder=name)
            obs.observe("coder.decode_s", time.perf_counter() - t0, coder=name)
        return BusTrace(out, self.input_width, self._decoded_name(phys))

    # -- incremental (streaming) API ----------------------------------
    #
    # The contract (asserted property-style in
    # tests/test_streaming_properties.py): after ``reset()``, feeding a
    # trace through ``encode_chunk`` in any chunking is bit-identical
    # to one ``encode_trace`` call, and likewise for decode.

    def save_state(self) -> Dict[str, Any]:
        """Checkpoint the FSM: an opaque deep copy of all mutable state.

        The default covers every coder in this library (their state
        lives entirely in instance attributes).  Pair with
        :meth:`restore_state`; the copy is independent of the live
        instance, so a checkpoint taken mid-stream stays valid however
        far the stream advances.
        """
        return copy.deepcopy(self.__dict__)

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore a checkpoint taken by :meth:`save_state`."""
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))

    def _chunk_array(self, chunk: Any, direction: str) -> np.ndarray:
        """Validate one chunk: a contiguous 1-D uint64 array masked to the
        input (``"encode"``) or output (``"decode"``) width."""
        arr = np.ascontiguousarray(np.asarray(chunk, dtype=np.uint64))
        if arr.ndim != 1:
            what = "values" if direction == "encode" else "states"
            raise ValueError(f"chunk {what} must be 1-D, got shape {arr.shape}")
        width = self.input_width if direction == "encode" else self.output_width
        return arr & np.uint64((1 << width) - 1)

    def _count_chunk(self, direction: str, cycles: int) -> None:
        """Record one streamed chunk in the ``coder.stream_*`` metrics."""
        if obs.is_enabled():
            name = type(self).__name__
            obs.inc("coder.stream_chunks", coder=name, dir=direction)
            obs.inc("coder.stream_cycles", cycles, coder=name, dir=direction)

    def encode_chunk(self, values: Any) -> np.ndarray:
        """Encode one chunk of values *without* resetting the FSM.

        Accepts anything convertible to a 1-D uint64 array; returns the
        encoded wire states.  Unlike :meth:`encode_trace` this advances
        the live encoder state, so successive calls continue the same
        stream.  Call :meth:`reset` (or use a fresh coder) to start a
        new stream.
        """
        arr = self._chunk_array(values, "encode")
        result = self._encode_chunk_fast(arr)
        self._count_chunk("encode", len(arr))
        return result

    def decode_chunk(self, states: Any) -> np.ndarray:
        """Decode one chunk of wire states *without* resetting the FSM."""
        arr = self._chunk_array(states, "decode")
        result = self._decode_chunk_fast(arr)
        self._count_chunk("decode", len(arr))
        return result

    # -- columnar batch API -------------------------------------------
    #
    # B homogeneous streams (same coder family and widths) can advance
    # in ONE kernel call when the family's transform vectorizes across
    # streams (``columnar_batch = True``; see TransitionCoder's 2-D
    # kernels).  The default implementations below simply loop the
    # per-stream chunk methods — that loop IS the differential oracle
    # the columnar overrides are tested against, and it makes the batch
    # API safe to call for every family unconditionally.  Contract
    # (pinned by tests/test_columnar_kernels.py): batch calls are
    # bit-identical to per-stream calls, advance each coder's FSM
    # identically, and report the same ``coder.*`` metrics.

    #: True when this family overrides the batch methods with real
    #: columnar (2-D) kernels worth coalescing for.
    columnar_batch = False

    @classmethod
    def encode_chunks_batch(
        cls, coders: List["Transcoder"], chunks: List[Any]
    ) -> List[np.ndarray]:
        """Advance B live encoder FSMs by one chunk each.

        ``coders[i]`` consumes ``chunks[i]``; returns the B wire-state
        arrays.  The default is the sequential per-stream loop.
        """
        return [coder.encode_chunk(chunk) for coder, chunk in zip(coders, chunks)]

    @classmethod
    def decode_chunks_batch(
        cls, coders: List["Transcoder"], chunks: List[Any]
    ) -> List[np.ndarray]:
        """Advance B live decoder FSMs by one chunk each."""
        return [coder.decode_chunk(chunk) for coder, chunk in zip(coders, chunks)]

    def roundtrip(self, trace: BusTrace) -> BusTrace:
        """``decode_trace(encode_trace(trace))`` — must equal ``trace``."""
        return self.decode_trace(self.encode_trace(trace))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(W_B={self.input_width}, W_C={self.output_width})"


class IdentityTranscoder(Transcoder):
    """The un-encoded baseline: wire states are the values themselves."""

    def __init__(self, width: int = 32):
        self.input_width = width
        self.output_width = width

    def reset(self) -> None:
        pass

    def encode_value(self, value: int) -> int:
        return value

    def decode_state(self, state: int) -> int:
        return state
