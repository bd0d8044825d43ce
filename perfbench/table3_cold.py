"""``table3-cold``: regenerate the paper's Table 3 from nothing.

Every repetition runs ``repro table3 --jobs 1`` against a fresh, empty
trace-cache directory, so the CPU simulation, the hardware-audited window
encodes, activity counting and crossover bisection all do real work.  It
runs serially, so the traced run's layer times add up to its wall time.
The suite kernels are fixed by the paper's benchmark set: this workload
takes no seed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import (
    REFERENCE_CALIBRATION_S,
    BenchError,
    Outcome,
    Tracer,
    at_reference_speed,
    calibration_s,
    child_env,
    fresh_dir,
    mcycles_per_s,
    median,
    percentile,
    remove_tree,
    window8_miss_share,
    repro_cmd,
    run_child,
    traced_and_overhead,
)

SIZES = (8, 16)

Row = Tuple[str, int, str, str]


def parse_table(stdout: str) -> List[Row]:
    """The rows of ``repro table3``'s printed table, values as printed."""
    rows: List[Row] = []
    lines = stdout.strip().splitlines()
    for line in lines[2:]:
        tech, entries, suite, value = line.split()
        rows.append((tech, int(entries), suite, value))
    return rows


def check_rows(rows: List[Row], reference: Dict[str, Any], outcome: Outcome, where: str) -> None:
    """Each printed cell must equal the reference at the printed precision."""
    expected = [tuple(r) for r in reference["rows"]]
    if len(rows) != len(expected):
        outcome.fail(f"{where}: {len(rows)} rows, expected {len(expected)}", len(expected))
        return
    for got, want in zip(rows, expected):
        got_key, want_key = got[:3], (want[0], int(want[1]), want[2])
        outcome.check(
            got_key == want_key and got[3] == want[3],
            f"{where}: cell {got_key} = {got[3]}, expected {want_key} = {want[3]}",
        )


def paper_error_mm(rows: List[Row], paper: Dict[str, float]) -> float:
    """Median over the cells of |measured - paper Table 3| (mm)."""
    errors = [abs(float(value) - paper[f"{tech}/{entries}/{suite}"]) for tech, entries, suite, value in rows]
    return median(errors)


def setup(cfg: Dict[str, Any], times: int, calibrations: List[float]) -> Tuple[float, float, int]:
    """A fresh cache directory and a warm interpreter, ``times`` over,
    each followed by a calibration pass appended to ``calibrations``.

    Returns the median raw and scaled set-up times and the number of
    suite kernels, as ``repro workloads`` lists them (rows of class
    ``int`` or ``fp``).
    """
    walls, scaled, kernels = [], [], 0
    for _ in range(times):
        start = time.perf_counter()
        cache = fresh_dir("t3-setup")
        done = run_child(repro_cmd("workloads"), child_env(REPRO_TRACE_CACHE_DIR=str(cache))).check("repro workloads")
        remove_tree(cache)
        walls.append(time.perf_counter() - start)
        calibrations.append(calibration_s())
        scaled.append(at_reference_speed(walls[-1], calibrations[-2:]))
        kernels = sum(1 for line in done.stdout.splitlines() if line.split()[1:2] in (["int"], ["fp"]))
    if not kernels:
        raise BenchError("repro workloads listed no suite kernel")
    return median(walls), median(scaled), kernels


def run_cold(cfg: Dict[str, Any]):
    """One cold ``repro table3`` in its own empty trace cache."""
    cache = fresh_dir("t3-cache")
    try:
        done = run_child(
            repro_cmd("table3", "--jobs", "1", "--cycles", str(cfg["cycles"])),
            child_env(REPRO_TRACE_CACHE_DIR=str(cache)),
        ).check("repro table3")
    finally:
        remove_tree(cache)
    return done


def end_to_end(cfg: Dict[str, Any], seconds: float, reference: Dict[str, Any], outcome: Outcome):
    """Times are scaled to the reference host speed: each set-up and
    repetition by the calibration passes timed just before and after it
    (see ``common.calibration_s``).  The report prints the raw medians."""
    calibrations = [calibration_s()]
    raw_setup_s, setup_s, kernels = setup(cfg, cfg["setup_repeats"], calibrations)
    raw_walls, walls, rss, printed = [], [], [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start < seconds and len(walls) < cfg["max_reps"]):
        done = run_cold(cfg)
        calibrations.append(calibration_s())
        raw_walls.append(done.wall_s)
        walls.append(at_reference_speed(done.wall_s, calibrations[-2:]))
        rss.append(done.maxrss_mb)
        printed.append(done.stdout)
    for i, stdout in enumerate(printed):
        rows = parse_table(stdout)
        check_rows(rows, reference, outcome, f"repetition {i}")
    cycles = kernels * cfg["cycles"] * len(SIZES)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": percentile(walls, 99) * 1e3,
        "mcycles_per_s": mcycles_per_s(cycles, median(walls)),
        "peak_rss_mb": max(rss),
    }
    report = {
        "table3_cold_s": f"{median(walls):.3f} s at reference speed (median of {len(walls)})",
        "table3_cold_s raw": f"{median(raw_walls):.3f} s, set-up {raw_setup_s:.3f} s",
        "calibration_s": f"{median(calibrations):.3f} s (reference {REFERENCE_CALIBRATION_S} s)",
        "table3_paper_err_mm": f"{paper_error_mm(parse_table(printed[0]), reference['paper']):.2f} mm",
        "cycles": cfg["cycles"],
    }
    return metrics, report


# -- the traced run ----------------------------------------------------


def replay(cfg: Dict[str, Any], tracer: Tracer, cache_dir: str):
    """``crossover_table`` re-enacted call by call, each layer timed.

    The calls and their order are those of ``repro table3 --jobs 1``:
    per kernel a cache probe, a simulation and the four bus traces
    stored; per (kernel, size) a probe for the audit artifacts, the
    hardware-audited window encode and its store; per (node, size) the
    crossover analyses and the bisections.
    """
    from repro.analysis import crossover as crossover_mod
    from repro.analysis.crossover import CrossoverAnalysis, median_crossover
    from repro.hardware.cam import LOW_BITS
    from repro.hardware.transcoder_hw import HardwareWindowTranscoder
    from repro.traces.cache import TraceCache
    from repro.wires import TECHNOLOGIES
    from repro.workloads.programs import FP_WORKLOADS, INT_WORKLOADS
    from repro.workloads.suite import BUS_NAMES, program_hash, run_workload

    run_workload.cache_clear()
    cache = TraceCache(cache_dir)
    cycles, bus = cfg["cycles"], "register"
    int_names, fp_names = tuple(INT_WORKLOADS), tuple(FP_WORKLOADS)
    names = int_names + fp_names
    audits: Dict[Tuple[str, int], Any] = {}
    traces = {}
    with tracer.span("workload"):
        for name in names:
            phash = program_hash(name)
            key = cache.key("trace", name, bus, cycles, phash)
            with tracer.span("traces.cache_load"):
                trace = cache.load(key)
            if trace is None:
                with tracer.span("cpu.simulate", work=cycles):
                    result = run_workload(name, cycles)
                with tracer.span("traces.cache_store"):
                    for other in BUS_NAMES:
                        cache.store(cache.key("trace", name, other, cycles, phash), getattr(result, f"{other}_trace"))
                trace = result.register_trace
            traces[name] = trace
        for name in names:
            for size in SIZES:
                phash = program_hash(name)
                ops_key = cache.key("winops", name, bus, cycles, phash, size, LOW_BITS)
                coded_key = cache.key("wincoded", name, bus, cycles, phash, size, LOW_BITS)
                with tracer.span("traces.cache_load"):
                    blob, coded = cache.load_json(ops_key), cache.load(coded_key)
                if blob is not None or coded is not None:
                    raise RuntimeError("table3-cold found audit artifacts in an empty cache")
                with tracer.span("hardware.audit", work=len(traces[name])):
                    hw = HardwareWindowTranscoder(TECHNOLOGIES[0], size, traces[name].width)
                    coded = hw.encode_trace(traces[name])
                with tracer.span("traces.cache_store"):
                    cache.store_json(ops_key, {op.value: n for op, n in hw.ops.as_dict().items()})
                    cache.store(coded_key, coded)
                audits[(name, size)] = (hw.ops, coded)
        cells = []
        with tracer.wrapping(crossover_mod, "count_activity", "energy.count_activity"):
            for tech in TECHNOLOGIES:
                for size in SIZES:
                    with tracer.span("analysis.crossover_build"):
                        analyses = {
                            name: CrossoverAnalysis(
                                traces[name], tech, size, ops=audits[(name, size)][0], coded=audits[(name, size)][1]
                            )
                            for name in names
                        }
                    groups = {
                        "SPECint": [analyses[n] for n in int_names],
                        "SPECfp": [analyses[n] for n in fp_names],
                        "ALL": [analyses[n] for n in names],
                    }
                    for suite, group in groups.items():
                        with tracer.span("analysis.bisect"):
                            value = median_crossover(group)
                        cells.append((tech.name, size, suite, f"{round(value, 1):.2f}"))
    return cells, traces


def traced(cfg: Dict[str, Any], reference: Dict[str, Any], outcome: Outcome):
    def once(tracer: Tracer):
        cache = fresh_dir("t3-traced")
        try:
            return replay(cfg, tracer, str(cache))
        finally:
            remove_tree(cache)

    tracer, (cells, traces), overhead = traced_and_overhead(once)
    check_rows(cells, reference, outcome, "traced replay")

    metrics = {
        "cpu.simulate_s": tracer.self_s("cpu.simulate"),
        "cpu.simulate_mcycles_per_s": tracer.rate("cpu.simulate"),
        "traces.cache_store_s": tracer.self_s("traces.cache_store"),
        "traces.cache_stores": tracer.count("traces.cache_store"),
        "traces.cache_load_s": tracer.self_s("traces.cache_load"),
        "traces.cache_loads": tracer.count("traces.cache_load"),
        "traces.cache_hit_ratio": 0.0,
        "hardware.audit_s": tracer.self_s("hardware.audit"),
        "hardware.audit_mcycles_per_s": tracer.rate("hardware.audit"),
        "hardware.audits": tracer.count("hardware.audit"),
        "energy.count_activity_s": tracer.self_s("energy.count_activity"),
        "energy.count_activity_mcycles_per_s": tracer.rate("energy.count_activity"),
        "energy.count_activity_calls": tracer.count("energy.count_activity"),
        "analysis.crossover_build_s": tracer.self_s("analysis.crossover_build"),
        "analysis.bisect_s": tracer.self_s("analysis.bisect"),
        "coding.window8_miss_share": window8_miss_share(list(traces.values())),
        "trace.unattributed_frac": tracer.unattributed_frac("workload"),
        "obs.tracing_overhead_frac": overhead,
    }
    layers = ("cpu.simulate", "hardware.audit", "traces.cache_load", "traces.cache_store",
              "energy.count_activity", "analysis.crossover_build", "analysis.bisect")
    total = sum(tracer.self_s(n) for n in layers) + tracer.self_s("workload")
    report = {
        f"share {name}": f"{100 * tracer.self_s(name) / total:5.1f}%  {tracer.self_s(name):.3f} s"
        for name in layers
    }
    assemble = sum(tracer.self_s(n) for n in ("analysis.crossover_build", "energy.count_activity", "analysis.bisect"))
    report["audit/assemble/simulate split"] = " / ".join(
        f"{100 * t / total:.0f}%" for t in (tracer.self_s("hardware.audit"), assemble, tracer.self_s("cpu.simulate"))
    )
    report["table3_paper_err_mm"] = f"{paper_error_mm(cells, reference['paper']):.2f} mm"
    return metrics, report
