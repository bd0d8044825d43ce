"""Generalized inversion coding (paper Figure 10 and Figure 15).

The classic bus-invert code [Stan & Burleson] sends a value or its
complement, whichever toggles fewer wires, plus one polarity wire.  The
paper generalises this two ways:

* **more patterns** — the value is XORed with one of ``2**k`` constant
  bit patterns (identified by ``k`` control wires), chosen to minimise
  the cost of the resulting bus transition;
* **coupling-aware cost** — the pattern choice can weight coupling
  events by an *assumed* coupling ratio.  Figure 15's three coders are
  the special cases:

  - ``assumed_lambda = 0``   ("lambda-0"): count only self transitions —
    equivalent to the original bus-invert decision rule;
  - ``assumed_lambda = 1``   ("lambda-1"): weigh coupling equal to self;
  - ``assumed_lambda = actual`` ("lambda-N"): the oracle that knows the
    wire's true ratio.

Following Section 5.2, the minimised quantity is the cost of the *bus
state change* (old state XOR candidate state), not the codeword weight
alone, so strings of repeated values stay free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .._bitops import pair_coupling_counts, popcount
from .base import Transcoder

__all__ = ["InversionTranscoder", "default_patterns"]

#: Cycles per block of the vectorized kernel: bounds the temporary
#: (block, P, P) cost tensors to a few MB even on million-cycle traces.
_BLOCK = 1 << 15


def default_patterns(num_control_bits: int, width: int) -> List[int]:
    """The constant XOR patterns for ``num_control_bits`` control wires.

    Pattern 0 is always the identity.  One control bit gives classic
    bus-invert {0, ~0}; further bits add alternating-bit and
    half/quarter-word inversions, a deterministic family that mirrors
    the codebooks of the adaptive-codebook literature the paper cites.
    """
    mask = (1 << width) - 1
    alternating = 0
    for bit in range(0, width, 2):
        alternating |= 1 << bit
    halves = 0
    for bit in range(width // 2):
        halves |= 1 << bit
    bytes_lo = 0
    for bit in range(width):
        if (bit // 8) % 2 == 0:
            bytes_lo |= 1 << bit
    candidates = [
        0,
        mask,
        alternating & mask,
        ~alternating & mask,
        halves & mask,
        ~halves & mask,
        bytes_lo & mask,
        ~bytes_lo & mask,
    ]
    count = 1 << num_control_bits
    if count > len(candidates):
        raise ValueError(
            f"no default pattern family for {num_control_bits} control bits; "
            f"pass explicit patterns"
        )
    return candidates[:count]


class InversionTranscoder(Transcoder):
    """Generalized inversion coder with a coupling-aware cost function.

    Parameters
    ----------
    width:
        Data bus width W_B.
    num_control_bits:
        Number of pattern-select wires k; the physical bus has
        ``width + k`` wires and ``2**k`` patterns are available.
    assumed_lambda:
        The coupling ratio the *encoder believes* when choosing
        patterns.  Figure 15 evaluates coders whose belief differs from
        the wire's actual ratio.
    patterns:
        Optional explicit pattern list (length ``2**num_control_bits``,
        first entry must be 0).  Defaults to :func:`default_patterns`.
    """

    def __init__(
        self,
        width: int = 32,
        num_control_bits: int = 1,
        assumed_lambda: float = 1.0,
        patterns: Optional[Sequence[int]] = None,
    ):
        if num_control_bits < 1:
            raise ValueError("need at least one control bit")
        if assumed_lambda < 0:
            raise ValueError(f"assumed_lambda must be >= 0, got {assumed_lambda}")
        self.input_width = width
        self.output_width = width + num_control_bits
        self.num_control_bits = num_control_bits
        self.assumed_lambda = float(assumed_lambda)
        self._mask = (1 << width) - 1
        if patterns is None:
            patterns = default_patterns(num_control_bits, width)
        patterns = [p & self._mask for p in patterns]
        if len(patterns) != (1 << num_control_bits):
            raise ValueError(
                f"{num_control_bits} control bits need {1 << num_control_bits} "
                f"patterns, got {len(patterns)}"
            )
        if patterns[0] != 0:
            raise ValueError("pattern 0 must be the identity (0)")
        if len(set(patterns)) != len(patterns):
            raise ValueError("patterns must be distinct")
        self.patterns = list(patterns)
        self.reset()

    def reset(self) -> None:
        self._state = 0  # full W_C-bit physical bus state

    # -- cost model ------------------------------------------------------

    def _step_cost(self, old: int, new: int) -> float:
        """tau + assumed_lambda * kappa for one bus state change."""
        width = self.output_width
        toggled = old ^ new
        tau = bin(toggled).count("1")
        if self.assumed_lambda == 0.0:
            return float(tau)
        kappa = 0
        for n in range(width - 1):
            delta_n = ((new >> n) & 1) - ((old >> n) & 1)
            delta_m = ((new >> (n + 1)) & 1) - ((old >> (n + 1)) & 1)
            kappa += abs(delta_n - delta_m)
        return tau + self.assumed_lambda * kappa

    # -- codec -----------------------------------------------------------

    def encode_value(self, value: int) -> int:
        value &= self._mask
        best_state = None
        best_cost = None
        for index, pattern in enumerate(self.patterns):
            candidate = (index << self.input_width) | (value ^ pattern)
            cost = self._step_cost(self._state, candidate)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_state = candidate
        assert best_state is not None
        self._state = best_state
        return best_state

    def decode_state(self, state: int) -> int:
        index = state >> self.input_width
        data = state & self._mask
        self._state = state
        return data ^ self.patterns[index]

    # -- vectorized chunk kernels -----------------------------------------
    #
    # The encoder is a greedy chain: the pattern picked at cycle t
    # depends on the physical state left by cycle t-1, which is itself
    # one of the P candidate states of cycle t-1.  So the kernel
    # precomputes, fully vectorized, the (P, P) step-cost matrix of
    # every consecutive cycle pair — tau via popcount, kappa via the
    # bitwise pair-coupling identity — and then walks the chain with a
    # trivial argmin per cycle.  Ties break toward the lowest pattern
    # index, exactly like the scalar loop's strict ``<`` comparison, and
    # the costs are the same float64 expression, so decisions are
    # bit-identical.

    def _candidate_states(self, values: np.ndarray) -> np.ndarray:
        """(cycles, P) physical candidate states for each input value."""
        shift = np.uint64(self.input_width)
        pats = np.array(self.patterns, dtype=np.uint64)
        indices = np.arange(len(pats), dtype=np.uint64) << shift
        return (values[:, None] ^ pats[None, :]) | indices[None, :]

    def _step_costs(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Vectorized ``tau + assumed_lambda * kappa`` (matches _step_cost)."""
        tau = popcount(old ^ new)
        if self.assumed_lambda == 0.0:
            return tau.astype(np.float64)
        kappa = pair_coupling_counts(old, new, self.output_width)
        return tau + self.assumed_lambda * kappa

    def _encode_chunk_fast(self, values: np.ndarray) -> np.ndarray:
        cycles = len(values)
        if cycles == 0:
            return np.empty(0, dtype=np.uint64)
        cand = self._candidate_states(values)
        choices = np.empty(cycles, dtype=np.intp)
        # First cycle: costs from the live bus state.
        first = self._step_costs(np.uint64(self._state), cand[0])
        prev_choice = int(np.argmin(first))
        choices[0] = prev_choice
        # Remaining cycles, blockwise: costs[t, i, j] is the cost of
        # moving from candidate i of cycle t-1 to candidate j of cycle t.
        for start in range(1, cycles, _BLOCK):
            stop = min(start + _BLOCK, cycles)
            costs = self._step_costs(
                cand[start - 1 : stop - 1, :, None], cand[start:stop, None, :]
            ).tolist()
            block_choices = []
            for row in costs:
                options = row[prev_choice]
                best = 0
                best_cost = options[0]
                for j in range(1, len(options)):
                    if options[j] < best_cost:
                        best_cost = options[j]
                        best = j
                block_choices.append(best)
                prev_choice = best
            choices[start:stop] = block_choices
        out = cand[np.arange(cycles), choices]
        self._state = int(out[-1])  # leave the FSM as the loop would
        return out

    def _decode_chunk_fast(self, states: np.ndarray) -> np.ndarray:
        pats = np.array(self.patterns, dtype=np.uint64)
        indices = (states >> np.uint64(self.input_width)).astype(np.intp)
        out = (states & np.uint64(self._mask)) ^ pats[indices]
        if len(states):
            self._state = int(states[-1])
        return out
