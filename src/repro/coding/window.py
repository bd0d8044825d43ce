"""Window-based transcoding (paper Figures 18-19 and the Section 5 layout).

The predictor is a dictionary of the last ``size`` *unique* bus values,
held in a pointer-based shift register: a miss overwrites the slot at
the head pointer (the oldest entry), so resident entries never move and
each keeps a stable codeword — exactly the energy-saving layout trick
of the paper's Figure 30.  A hit sends the slot's codeword; repeats of
the previous value ride the LAST slot (code 0).

This is the scheme the paper ultimately builds in silicon (the 8-entry
0.13 um layout of Figure 33): nearly all of the context-based design's
savings at a fraction of the complexity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import CodeIndexError, DesyncError
from .predictive import (
    CTRL_CODE,
    CTRL_RAW,
    CTRL_RAW_INVERTED,
    Predictor,
    PredictiveTranscoder,
)

__all__ = ["WindowPredictor", "WindowTranscoder"]

#: Population count of a Python int (``int.bit_count`` from CPython 3.10).
_bit_count = getattr(int, "bit_count", None) or (lambda word: bin(word).count("1"))
#: Control-wire toggles from each 2-bit control state to RAW / RAW_INVERTED.
_RAW_CTRL_COST = tuple(_bit_count(ctrl ^ CTRL_RAW) for ctrl in range(4))
_INVERTED_CTRL_COST = tuple(_bit_count(ctrl ^ CTRL_RAW_INVERTED) for ctrl in range(4))


class WindowPredictor(Predictor):
    """Pointer-based shift register of the last ``size`` unique values."""

    def __init__(self, size: int, width: int = 32):
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self.width = width
        self.num_codes = 1 + size
        self.reset()

    def reset(self) -> None:
        self.last = 0
        # Slot contents; None marks a never-written slot (power-on).
        self._slots: List[Optional[int]] = [None] * self.size
        self._head = 0  # next slot to overwrite on a miss
        self._index: Dict[int, int] = {}  # value -> slot

    def match(self, value: int) -> Optional[int]:
        if value == self.last:
            return 0
        slot = self._index.get(value)
        return None if slot is None else 1 + slot

    def lookup(self, index: int) -> int:
        if index == 0:
            return self.last
        slot = index - 1
        if not 0 <= slot < self.size:
            raise CodeIndexError(f"window slot {slot} out of range 0..{self.size - 1}")
        value = self._slots[slot]
        if value is None:
            raise DesyncError(f"window slot {slot} is empty; streams out of sync")
        return value

    def update(self, value: int) -> None:
        self.last = value
        if value in self._index:
            return
        old = self._slots[self._head]
        if old is not None:
            del self._index[old]
        self._slots[self._head] = value
        self._index[value] = self._head
        self._head = (self._head + 1) % self.size

    @property
    def contents(self) -> List[Optional[int]]:
        """Current slot contents (for inspection and tests)."""
        return list(self._slots)


class WindowTranscoder(PredictiveTranscoder):
    """The paper's Window-based transcoder over a ``width``-bit bus.

    The chunk kernels run the FSM in one tight loop over plain Python
    ints, holding the predictor's slots, index, head and LAST value and
    the bus state in locals; they start from the live FSM and leave it
    exactly where the per-cycle methods (the differential oracle) would.
    """

    def __init__(self, size: int = 8, width: int = 32):
        super().__init__(WindowPredictor(size, width), width)

    # -- chunk kernels ------------------------------------------------------

    def _encode_chunk_fast(self, values: np.ndarray) -> np.ndarray:
        if not self._fast_path_ok():
            return super()._encode_chunk_fast(values)
        return self._encode_window_chunk(values, 0)[0]

    def _encode_window_chunk(
        self, values: np.ndarray, low_mask: int
    ) -> Tuple[np.ndarray, int, int, int]:
        """Encode ``values`` from the live FSM; returns the wire states
        and the CAM tallies the hardware audit prices.

        The tallies, over the cycles whose value is not the LAST value:
        ``probes`` sums the filled slots (one low-bits probe each),
        ``low_matches`` the slots whose ``low_mask`` bits equal the
        value's (each completes a full-width compare), and ``misses``
        counts the cycles that insert into the window.
        """
        pred = self.predictor
        if len(values) and int(values[0]) == pred.last and pred.last not in pred._index:
            # Power-on: a first value equal to the initial LAST value is a
            # silent LAST hit that still enters the window.
            pred.update(pred.last)
        slots, index = pred._slots, pred._index
        size, head, last = pred.size, pred._head, pred.last
        mask, width = self._mask, self.input_width
        slot_codes = self._codewords[1:]
        data, ctrl = self._data_state, self._ctrl_state
        filled = len(index)
        low_occupancy: Dict[int, int] = {}
        for value in index:
            low = value & low_mask
            low_occupancy[low] = low_occupancy.get(low, 0) + 1
        probes = low_matches = misses = 0
        packed = (ctrl << width) | data
        out: List[int] = []
        append = out.append
        for value in values.tolist():
            if value == last:
                # Silent LAST repeat: the whole bus holds still.
                append(packed)
                continue
            probes += filled
            low = value & low_mask
            low_matches += low_occupancy.get(low, 0)
            slot = index.get(value)
            if slot is not None:
                data ^= slot_codes[slot]
                ctrl = CTRL_CODE
            else:
                misses += 1
                inverted = value ^ mask
                toggles = _bit_count(data ^ value)
                cost_raw = toggles + _RAW_CTRL_COST[ctrl]
                cost_inv = width - toggles + _INVERTED_CTRL_COST[ctrl]
                if cost_inv < cost_raw:
                    new_data, new_ctrl = inverted, CTRL_RAW_INVERTED
                else:
                    new_data, new_ctrl = value, CTRL_RAW
                if new_data == data and new_ctrl == ctrl:
                    # Never mimic the silent LAST code: flip polarity.
                    if new_ctrl == CTRL_RAW:
                        new_data, new_ctrl = inverted, CTRL_RAW_INVERTED
                    else:
                        new_data, new_ctrl = value, CTRL_RAW
                data, ctrl = new_data, new_ctrl
                old = slots[head]
                if old is None:
                    filled += 1
                else:
                    del index[old]
                    low_occupancy[old & low_mask] -= 1
                slots[head] = value
                index[value] = head
                low_occupancy[low] = low_occupancy.get(low, 0) + 1
                head = head + 1 if head + 1 < size else 0
            last = value
            packed = (ctrl << width) | data
            append(packed)
        pred._head, pred.last = head, last
        self._data_state, self._ctrl_state = data, ctrl
        return np.array(out, dtype=np.uint64), probes, low_matches, misses

    def _decode_chunk_fast(self, states: np.ndarray) -> np.ndarray:
        if not self._fast_path_ok():
            return super()._decode_chunk_fast(states)
        pred = self.predictor
        # Work on copies and commit only on success: any anomaly replays
        # the per-cycle loop from the untouched live state, so the
        # DesyncError (message, coder, cycle) is the scalar loop's.
        slots, index = list(pred._slots), dict(pred._index)
        size, head, last = pred.size, pred._head, pred.last
        mask, width = self._mask, self.input_width
        code_to_index = self._code_to_index
        data, ctrl = self._data_state, self._ctrl_state
        out: List[int] = []
        append = out.append
        for state in states.tolist():
            new_data, new_ctrl = state & mask, state >> width
            if new_data == data and new_ctrl == ctrl:
                value = last
            elif new_ctrl == CTRL_CODE:
                code = code_to_index.get(new_data ^ data)
                if code is None:
                    return super()._decode_chunk_fast(states)  # unassigned codeword
                if code:
                    value = slots[code - 1]
                    if value is None:
                        return super()._decode_chunk_fast(states)  # empty slot
                else:
                    value = last
            elif new_ctrl == CTRL_RAW:
                value = new_data
            elif new_ctrl == CTRL_RAW_INVERTED:
                value = new_data ^ mask
            else:
                return super()._decode_chunk_fast(states)  # invalid control
            if value not in index:
                old = slots[head]
                if old is not None:
                    del index[old]
                slots[head] = value
                index[value] = head
                head = head + 1 if head + 1 < size else 0
            last = value
            data, ctrl = new_data, new_ctrl
            append(value)
        pred._slots, pred._index, pred._head, pred.last = slots, index, head, last
        self._data_state, self._ctrl_state = data, ctrl
        self._decode_cycle += len(out)
        return np.array(out, dtype=np.uint64)
