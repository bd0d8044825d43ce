"""Transition coding (the optional XOR layer of paper Figure 1).

With transition coding, the word handed to the bus represents *wire
changes* rather than an absolute value: a 1 bit toggles its wire, a 0
bit leaves it alone.  The encoder therefore accumulates
``state_t = state_{t-1} XOR input_t`` and the decoder recovers
``input_t = state_t XOR state_{t-1}``.

This reduces the energy-minimisation problem to minimising the Hamming
weight of the words presented to the coder — which is why the
prediction transcoders assign low-weight codewords to high-confidence
predictions and send them *through* this layer.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from .._bitops import pack_streams, unpack_streams, xor_diff_rows, xor_scan_rows
from .base import Transcoder

__all__ = ["TransitionCoder"]


class TransitionCoder(Transcoder):
    """Pure XOR transition coder: input bits select which wires toggle.

    The chunk kernels are vectorized: the encoder state is the running
    XOR of all inputs, so a chunk encodes as one
    ``np.bitwise_xor.accumulate`` and decodes as one shifted XOR.  The
    per-cycle :meth:`encode_value`/:meth:`decode_state` remain the
    scalar oracle (and what the fault-injection co-simulation drives).
    """

    def __init__(self, width: int = 32):
        self.input_width = width
        self.output_width = width
        self._mask = (1 << width) - 1
        self.reset()

    def reset(self) -> None:
        self._enc_state = 0
        self._dec_state = 0

    def encode_value(self, value: int) -> int:
        self._enc_state ^= value & self._mask
        return self._enc_state

    def decode_state(self, state: int) -> int:
        value = (state ^ self._dec_state) & self._mask
        self._dec_state = state
        return value

    # -- vectorized chunk kernels ------------------------------------

    def _encode_chunk_fast(self, values: np.ndarray) -> np.ndarray:
        """Streaming chunk kernel: XOR accumulation from the live state.

        ``state_t = enc_state ^ (v_0 ^ ... ^ v_t)``, so a chunk encodes
        as one accumulate XORed with the carried-in encoder state —
        bit-identical to calling :meth:`encode_value` per cycle, and
        what makes ``repro.serve`` streaming sessions fast for this
        coder.
        """
        if not len(values):
            return values
        out = np.bitwise_xor.accumulate(values) ^ np.uint64(self._enc_state)
        self._enc_state = int(out[-1])
        return out

    def _decode_chunk_fast(self, states: np.ndarray) -> np.ndarray:
        """Streaming chunk kernel: shifted XOR seeded by the live state."""
        if not len(states):
            return states
        prev = np.empty_like(states)
        prev[0] = np.uint64(self._dec_state)
        prev[1:] = states[:-1]
        self._dec_state = int(states[-1])
        return states ^ prev

    # -- columnar multi-stream kernels ---------------------------------
    #
    # XOR is associative with identity 0, so B independent transition
    # streams advance in ONE 2-D pass over a zero-padded (B, T_max)
    # matrix (repro._bitops.pack_streams): padding columns can never
    # perturb a row's live prefix.  These overrides must stay
    # bit-identical to the per-stream loop in Transcoder — the batch
    # default IS the differential oracle (tests/test_columnar_kernels).

    columnar_batch = True

    @classmethod
    def encode_chunks_batch(
        cls, coders: List["TransitionCoder"], chunks: List[Any]
    ) -> List[np.ndarray]:
        """Advance B live encoders by one chunk each, in one 2-D scan."""
        arrs = [coder._chunk_array(chunk, "encode") for coder, chunk in zip(coders, chunks)]
        seeds = np.array([coder._enc_state for coder in coders], dtype=np.uint64)
        matrix, lengths = pack_streams(arrs)
        outs = unpack_streams(xor_scan_rows(matrix, seeds), lengths)
        for coder, out in zip(coders, outs):
            if len(out):
                coder._enc_state = int(out[-1])
            coder._count_chunk("encode", len(out))
        return outs

    @classmethod
    def decode_chunks_batch(
        cls, coders: List["TransitionCoder"], chunks: List[Any]
    ) -> List[np.ndarray]:
        """Advance B live decoders by one chunk each, in one 2-D pass."""
        arrs = [coder._chunk_array(chunk, "decode") for coder, chunk in zip(coders, chunks)]
        seeds = np.array([coder._dec_state for coder in coders], dtype=np.uint64)
        matrix, lengths = pack_streams(arrs)
        outs = unpack_streams(xor_diff_rows(matrix, seeds), lengths)
        for coder, arr, out in zip(coders, arrs, outs):
            if len(arr):
                coder._dec_state = int(arr[-1])
            coder._count_chunk("decode", len(out))
        return outs
