"""Unit tests for the hardware-instrumented transcoders (Figure 34)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hardware import (
    LOW_BITS,
    HardwareContextTranscoder,
    HardwareWindowTranscoder,
    Op,
    encoder_energy_per_cycle,
    inversion_energy_per_cycle,
    table2_summaries,
)
from repro.traces import BusTrace
from repro.wires import TECH_007, TECH_013
from repro.workloads import locality_trace, suite_traces

from .test_vectorized_kernels import (
    LAST_ABLATIONS,
    POWER_ON_SIZES,
    POWER_ON_STREAM,
    carve,
    chunk_sizes,
    chunk_streams,
)


class TestHardwareWindow:
    def test_same_coding_as_functional_parent(self, gcc_register):
        from repro.coding import WindowTranscoder

        hw = HardwareWindowTranscoder(TECH_013, 8, 32)
        functional = WindowTranscoder(8, 32)
        assert np.array_equal(
            hw.encode_trace(gcc_register).values,
            functional.encode_trace(gcc_register).values,
        )

    def test_roundtrip(self, gcc_register):
        hw = HardwareWindowTranscoder(TECH_013, 8, 32)
        assert np.array_equal(
            hw.roundtrip(gcc_register).values, gcc_register.values
        )

    def test_ops_counted_every_cycle(self, local_trace):
        hw = HardwareWindowTranscoder(TECH_013, 8, 32)
        hw.encode_trace(local_trace)
        assert hw.ops[Op.CYCLE] == len(local_trace)

    def test_repeats_skip_the_cam(self):
        hw = HardwareWindowTranscoder(TECH_013, 8, 32)
        trace = BusTrace.from_values([7] * 100, width=32)
        hw.encode_trace(trace)
        assert hw.ops[Op.MATCH_LOW] == 0

    def test_misses_shift(self):
        hw = HardwareWindowTranscoder(TECH_013, 8, 32)
        trace = BusTrace.from_values(range(100, 150), width=32)
        hw.encode_trace(trace)
        assert hw.ops[Op.SHIFT] == 50

    def test_energy_positive_and_reasonable(self, gcc_register):
        energy = encoder_energy_per_cycle(TECH_013, gcc_register, size=8)
        assert 0.1e-12 < energy < 5e-12

    def test_smaller_node_cheaper(self, gcc_register):
        e13 = encoder_energy_per_cycle(TECH_013, gcc_register, size=8)
        e07 = encoder_energy_per_cycle(TECH_007, gcc_register, size=8)
        assert e07 < e13

    def test_reset_clears_ops(self, local_trace):
        hw = HardwareWindowTranscoder(TECH_013, 8, 32)
        hw.encode_trace(local_trace)
        hw.reset()
        assert hw.ops.total == 0


def audit_state(hw):
    """The audited encoder's ops and FSM (predictor included)."""
    pred = hw.predictor
    return (
        hw.ops.as_dict(),
        hw._data_state,
        hw._ctrl_state,
        (list(pred._slots), dict(pred._index), pred._head, pred.last),
    )


class TestDerivedWindowAudit:
    """The chunk kernel's derived operation counts equal the per-cycle
    audit of :meth:`HardwareWindowTranscoder.encode_value`."""

    @pytest.mark.parametrize("size", [1, 2, 8, 16])
    @pytest.mark.parametrize("low_bits", [1, LOW_BITS, 32])
    @settings(deadline=None, max_examples=25)
    @given(values=chunk_streams, sizes=chunk_sizes)
    @example(values=POWER_ON_STREAM, sizes=POWER_ON_SIZES)
    def test_chunked_audit_matches_per_cycle_oracle(self, size, low_bits, values, sizes):
        trace = BusTrace.from_values(values, width=32)
        oracle = HardwareWindowTranscoder(TECH_013, size, 32, low_bits=low_bits)
        expected = oracle.encode_trace_scalar(trace)
        hw = HardwareWindowTranscoder(TECH_013, size, 32, low_bits=low_bits)
        # ops accumulate across chunks: no reset between them.
        parts = [hw.encode_chunk(chunk) for chunk in carve(trace.values, sizes)]
        assert np.array_equal(np.concatenate(parts), expected.values)
        assert audit_state(hw) == audit_state(oracle)

    @pytest.mark.parametrize("silent_last, edge_control", LAST_ABLATIONS)
    @settings(deadline=None, max_examples=15)
    @given(values=chunk_streams, sizes=chunk_sizes)
    def test_ablations_audit_through_the_per_cycle_loop(
        self, silent_last, edge_control, values, sizes
    ):
        def make():
            hw = HardwareWindowTranscoder(TECH_013, 8, 32)
            hw.silent_last = silent_last
            hw.edge_control = edge_control
            assert not hw._fast_path_ok()
            return hw

        trace = BusTrace.from_values(values, width=32)
        oracle = make()
        expected = oracle.encode_trace_scalar(trace)
        hw = make()
        parts = [hw.encode_chunk(chunk) for chunk in carve(trace.values, sizes)]
        assert np.array_equal(np.concatenate(parts), expected.values)
        assert audit_state(hw) == audit_state(oracle)

    @pytest.mark.parametrize("size", [8, 16])
    def test_suite_audits_match_per_cycle_oracle(self, size):
        """Every Table 3 audit input: all suite kernels, 2000 cycles."""
        traces = suite_traces("register", None, 2000)
        assert len(traces) == 17
        for name, trace in traces.items():
            oracle = HardwareWindowTranscoder(TECH_013, size, trace.width)
            hw = HardwareWindowTranscoder(TECH_013, size, trace.width)
            expected = oracle.encode_trace_scalar(trace)
            got = hw.encode_trace(trace)
            assert np.array_equal(got.values, expected.values), name
            assert hw.ops.as_dict() == oracle.ops.as_dict(), name


class TestHardwareContext:
    def test_same_coding_as_functional_parent(self, gcc_register):
        from repro.coding import ContextTranscoder

        hw = HardwareContextTranscoder(TECH_013, 16, 8)
        functional = ContextTranscoder(16, 8)
        assert np.array_equal(
            hw.encode_trace(gcc_register).values,
            functional.encode_trace(gcc_register).values,
        )

    def test_roundtrip(self, gcc_register):
        hw = HardwareContextTranscoder(TECH_013, 16, 8)
        assert np.array_equal(
            hw.roundtrip(gcc_register).values, gcc_register.values
        )

    def test_counts_swaps_and_counters(self):
        hw = HardwareContextTranscoder(TECH_013, 8, 4, divide_period=128)
        trace = locality_trace(
            2000, repeat_fraction=0.1, reuse_fraction=0.6, stride_fraction=0.1,
            working_set=6, seed=4,
        )
        hw.encode_trace(trace)
        assert hw.ops[Op.COUNT] > 0
        assert hw.ops[Op.DIVIDE] == len(trace) // 128

    def test_costs_more_than_window(self, gcc_register):
        window = encoder_energy_per_cycle(TECH_013, gcc_register, size=8)
        context = encoder_energy_per_cycle(
            TECH_013, gcc_register, size=8, table_size=28
        )
        assert context > window


class TestInversionEnergy:
    def test_tracks_trace_activity(self):
        quiet = BusTrace.from_values([0] * 500, width=32)
        busy = BusTrace.from_values([0, 0xFFFFFFFF] * 250, width=32)
        assert inversion_energy_per_cycle(TECH_013, busy) > inversion_energy_per_cycle(
            TECH_013, quiet
        )

    def test_empty_trace(self):
        assert inversion_energy_per_cycle(TECH_013, BusTrace.from_values([], width=32)) == 0.0


class TestTable2:
    def test_rows_and_calibration(self, gcc_register):
        rows = table2_summaries(gcc_register)
        assert [r.technology.name for r in rows[:3]] == ["0.13um", "0.10um", "0.07um"]
        assert rows[3].name == "InvertCoder"
        # Energy decreases with technology for the window design.
        assert rows[0].op_energy_pj > rows[1].op_energy_pj > rows[2].op_energy_pj
        # Leakage increases with technology shrink (Table 2's trend).
        assert rows[0].leakage_pj < rows[1].leakage_pj < rows[2].leakage_pj
