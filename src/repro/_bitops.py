"""Vectorized bit-level primitives shared by the coding fast paths.

Every chunk kernel in :mod:`repro.coding` and the activity
accounting in :mod:`repro.energy` reduces to the same two primitives on
``uint64`` arrays:

* :func:`popcount` — per-element population count.  NumPy >= 2 ships a
  native ``np.bitwise_count`` ufunc (single pass, SIMD-friendly); on
  older NumPy the classic 16-bit-table lookup (four shifted table
  probes per word) is used instead.  Both return ``int64`` so callers
  can sum without overflow.
* :func:`pair_coupling_counts` — the paper's equation-3 coupling count
  ``kappa`` of one bus state change, computed purely bitwise.  With
  signed per-wire transition indicators ``delta in {-1, 0, +1}``,

      kappa = sum_n |delta_n - delta_{n+1}|
            = sum_n (t_n + t_{n+1} - 2 * same_n)

  where ``t`` marks toggled wires (``old ^ new``) and ``same`` marks
  adjacent pairs toggling in the *same direction* (both rising or both
  falling: ``(up & up>>1) | (down & down>>1)``).  That turns the
  per-wire Python loop of the scalar cost model into three popcounts.

The serving hot path adds a third family: **columnar multi-stream
kernels**.  B homogeneous word streams (same coder spec, possibly
ragged lengths) pack into one zero-padded ``(B, T_max)`` matrix
(:func:`pack_streams` / :func:`unpack_streams`) so a whole batch
encodes or decodes in a single 2-D ``np.bitwise_*`` pass
(:func:`xor_scan_rows` / :func:`xor_diff_rows`).  Zero is the XOR
identity, so the padding columns never perturb the live prefix of any
row — the unpacked results are bit-identical to running each stream
alone.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "popcount",
    "pair_coupling_counts",
    "pack_streams",
    "unpack_streams",
    "xor_scan_rows",
    "xor_diff_rows",
    "HAVE_BITWISE_COUNT",
]

#: True when the native NumPy >= 2 ``bitwise_count`` ufunc is available.
HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Population count of every 16-bit word (the portable fallback).
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int64)


def _popcount_table(values: np.ndarray) -> np.ndarray:
    total = np.zeros(values.shape, dtype=np.int64)
    for shift in (0, 16, 32, 48):
        total += _POPCOUNT_TABLE[
            ((values >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)
        ]
    return total


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array (``int64`` result).

    Uses the native ``np.bitwise_count`` ufunc when NumPy provides it
    (NumPy >= 2), falling back to the 16-bit-table method otherwise.
    Scalars and lists are accepted and promoted like any ufunc input.
    """
    v = np.asarray(values, dtype=np.uint64)
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(v).astype(np.int64)
    return _popcount_table(v)


def pair_coupling_counts(old: np.ndarray, new: np.ndarray, width: int) -> np.ndarray:
    """Equation-3 coupling counts for bus state changes ``old -> new``.

    ``old`` and ``new`` are broadcastable uint64 arrays of physical bus
    states on a ``width``-wire bus; the result is the per-element
    ``kappa = sum_n |delta_n - delta_{n+1}|`` over adjacent wire pairs
    ``n = 0 .. width-2``, as ``int64``.
    """
    if width < 2:
        o = np.asarray(old, dtype=np.uint64)
        n = np.asarray(new, dtype=np.uint64)
        return np.zeros(np.broadcast(o, n).shape, dtype=np.int64)
    o = np.asarray(old, dtype=np.uint64)
    n = np.asarray(new, dtype=np.uint64)
    low = np.uint64((1 << (width - 1)) - 1)
    toggled = o ^ n
    up = n & ~o  # wires rising 0 -> 1
    down = o & ~n  # wires falling 1 -> 0
    same = (up & (up >> np.uint64(1))) | (down & (down >> np.uint64(1)))
    return (
        popcount(toggled & low)
        + popcount((toggled >> np.uint64(1)) & low)
        - 2 * popcount(same & low)
    )


# -- columnar multi-stream kernels ------------------------------------


def pack_streams(streams: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack B ragged 1-D uint64 streams into a zero-padded matrix.

    Returns ``(matrix, lengths)`` where ``matrix`` is ``(B, T_max)``
    uint64 with row ``i`` holding ``streams[i]`` left-aligned and
    zero-padded, and ``lengths[i] == len(streams[i])``.  Zero padding
    is the XOR identity, so row-wise XOR kernels never leak padding
    into the live prefix.
    """
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    width = int(lengths.max()) if len(lengths) else 0
    matrix = np.zeros((len(streams), width), dtype=np.uint64)
    for i, stream in enumerate(streams):
        matrix[i, : lengths[i]] = stream
    return matrix, lengths


def unpack_streams(matrix: np.ndarray, lengths: np.ndarray) -> List[np.ndarray]:
    """Slice a packed matrix back into per-stream 1-D arrays."""
    return [
        np.ascontiguousarray(matrix[i, : int(n)]) for i, n in enumerate(lengths)
    ]


def xor_scan_rows(matrix: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Row-wise XOR prefix scan seeded per row (transition *encode*).

    Row ``i`` of the result is ``seeds[i] ^ (m[i,0] ^ ... ^ m[i,t])``
    at column ``t`` — B transition-coder encoders advanced in one 2-D
    ``np.bitwise_xor.accumulate`` pass.
    """
    if not matrix.size:
        return matrix.copy()
    return np.bitwise_xor.accumulate(matrix, axis=1) ^ np.asarray(
        seeds, dtype=np.uint64
    ).reshape(-1, 1)


def xor_diff_rows(matrix: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Row-wise adjacent XOR seeded per row (transition *decode*).

    Column 0 of row ``i`` is ``m[i,0] ^ seeds[i]``; column ``t>0`` is
    ``m[i,t] ^ m[i,t-1]`` — the exact inverse of :func:`xor_scan_rows`.
    """
    if not matrix.size:
        return matrix.copy()
    prev = np.empty_like(matrix)
    prev[:, 0] = np.asarray(seeds, dtype=np.uint64)
    prev[:, 1:] = matrix[:, :-1]
    return matrix ^ prev
