"""LAST-value prediction (paper Section 4.3, after [Lipasti et al.]).

The simplest stateful predictor: the next value is the previous one.
The paper never evaluates it alone but folds it into every other
scheme, assigning it code "0" so that strings of repeated values cost
no transitions — exactly like the un-encoded bus.  It is exposed here
both as the slot-0 building block of richer predictors and as a
standalone scheme for baselines and tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._bitops import popcount
from .predictive import (
    CTRL_RAW,
    CTRL_RAW_INVERTED,
    Predictor,
    PredictiveTranscoder,
)

__all__ = ["LastValuePredictor", "LastValueTranscoder"]


class LastValuePredictor(Predictor):
    """Predicts a repeat of the previous value; one code slot."""

    num_codes = 1

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.last = 0

    def match(self, value: int) -> Optional[int]:
        return 0 if value == self.last else None

    def lookup(self, index: int) -> int:
        if index != 0:
            raise IndexError(f"LAST predictor has only slot 0, got {index}")
        return self.last

    def update(self, value: int) -> None:
        self.last = value


def _forward_fill(values: np.ndarray, present: np.ndarray, initial: int) -> np.ndarray:
    """Carry each present element forward over the absent positions.

    ``values[t]`` is used where ``present[t]``; other positions repeat
    the most recent present value, or ``initial`` before the first one.
    """
    cycles = len(values)
    positions = np.where(present, np.arange(cycles), -1)
    np.maximum.accumulate(positions, out=positions)
    filled = np.where(
        positions >= 0, values[np.maximum(positions, 0)], np.uint64(initial)
    )
    return filled.astype(np.uint64, copy=False)


class LastValueTranscoder(PredictiveTranscoder):
    """Standalone LAST-value transcoder over a ``width``-bit bus.

    The chunk kernels are vectorized.  LAST has a single code
    slot whose codeword is 0, so every cycle is either *silent* (the
    value repeats and the bus does not move) or a *raw* cycle whose
    polarity (raw vs. inverted) is a greedy choice against the previous
    raw cycle's state — a two-state chain the kernel precomputes with
    popcounts and then walks in O(misses).  The per-cycle methods
    remain the scalar differential-testing oracle.
    """

    def __init__(self, width: int = 32):
        super().__init__(LastValuePredictor(), width)

    # -- vectorized chunk kernels -----------------------------------------

    def _encode_chunk_fast(self, values: np.ndarray) -> np.ndarray:
        if not self._fast_path_ok():
            return super()._encode_chunk_fast(values)
        cycles = len(values)
        if cycles == 0:
            return np.empty(0, dtype=np.uint64)
        width = self.input_width
        mask = np.uint64(self._mask)
        shift = np.uint64(width)
        # A cycle is a LAST hit when its value repeats the previous one
        # (the first against the predictor's live LAST value).
        hits = np.empty(cycles, dtype=bool)
        hits[0] = values[0] == np.uint64(self.predictor.last)
        hits[1:] = values[1:] == values[:-1]
        miss_idx = np.flatnonzero(~hits)
        out_states = np.empty(len(miss_idx), dtype=np.uint64)
        if len(miss_idx):
            mv = values[miss_idx]
            # Chain state after each miss: 0 = raw (data=value, RAW),
            # 1 = inverted (data=~value, RAW_INVERTED).  Between misses
            # the bus is silent, so the previous miss's value *is* the
            # predictor's LAST value, and a miss means mv[m] != mv[m-1];
            # hence the scalar loop's same-state collision rewrite can
            # never trigger (not at the chunk's first miss either: a
            # miss never repeats the LAST value) and the choice depends
            # only on a = popcount(prev_value ^ value):
            #   from raw:      cost_raw = a,       cost_inv = (W - a) + 1
            #   from inverted: cost_raw = (W-a)+1, cost_inv = a
            # (the +1 is the single Gray-coded control-wire toggle).
            a = popcount(mv[1:] ^ mv[:-1])
            inv_from_raw = ((width - a) + 1 < a).tolist()
            inv_from_inv = (a < (width - a) + 1).tolist()
            # First miss: costed from the live bus state.
            first = int(mv[0])
            inverted = ~first & self._mask
            cost_raw = bin(self._data_state ^ first).count("1") + self._ctrl_cost(CTRL_RAW)
            cost_inv = bin(self._data_state ^ inverted).count("1") + self._ctrl_cost(
                CTRL_RAW_INVERTED
            )
            state = 1 if cost_inv < cost_raw else 0
            chain = np.empty(len(miss_idx), dtype=bool)
            chain[0] = bool(state)
            for m in range(1, len(miss_idx)):
                state = inv_from_inv[m - 1] if state else inv_from_raw[m - 1]
                chain[m] = bool(state)
            data = np.where(chain, ~mv & mask, mv)
            ctrl = np.where(
                chain, np.uint64(CTRL_RAW_INVERTED), np.uint64(CTRL_RAW)
            )
            out_states = (ctrl << shift) | data
        out = np.zeros(cycles, dtype=np.uint64)
        out[miss_idx] = out_states
        out = _forward_fill(out, ~hits, self._pack(self._data_state, self._ctrl_state))
        # Leave the FSM exactly as the scalar loop would.
        self.predictor.last = int(values[-1])
        if len(miss_idx):
            final = int(out[-1])
            self._data_state = final & self._mask
            self._ctrl_state = final >> width
        return out

    def _decode_chunk_fast(self, states: np.ndarray) -> np.ndarray:
        if not self._fast_path_ok():
            return super()._decode_chunk_fast(states)
        cycles = len(states)
        if cycles == 0:
            return np.empty(0, dtype=np.uint64)
        mask = np.uint64(self._mask)
        shift = np.uint64(self.input_width)
        prev = np.empty_like(states)
        prev[0] = np.uint64(self._pack(self._data_state, self._ctrl_state))
        prev[1:] = states[:-1]
        silent = states == prev
        ctrl = states >> shift
        # Well-formed LAST streams only ever show RAW/RAW_INVERTED on
        # non-silent cycles; anything else desyncs — replay the scalar
        # loop so the error (message, cycle annotation) is identical.
        loud_ctrl = ctrl[~silent]
        if len(loud_ctrl) and not np.all(
            (loud_ctrl == np.uint64(CTRL_RAW)) | (loud_ctrl == np.uint64(CTRL_RAW_INVERTED))
        ):
            return super()._decode_chunk_fast(states)
        data = states & mask
        decoded = np.where(ctrl == np.uint64(CTRL_RAW), data, ~data & mask)
        out = _forward_fill(decoded, ~silent, self.predictor.last)
        self.predictor.last = int(out[-1])
        self._data_state = int(data[-1])
        self._ctrl_state = int(ctrl[-1])
        self._decode_cycle += cycles
        return out
