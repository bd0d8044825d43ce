"""``sweep-families``: the savings ledger over every coder family.

``repro run savings --bus memory --jobs 2`` over the 17 suite kernels and
the nine coder families, the engine behind Figs 16-25.  The trace cache is
filled during set-up, so CPU simulation and the hardware audit do no work
in the timed region: this is the bypass workload for those two layers.
Every repetition gets a fresh ``--runs-dir``, because ledger resume would
otherwise turn the second repetition into a no-op.  The suite kernels are
fixed by the paper's benchmark set: this workload takes no seed.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Any, Dict, Tuple

from common import (
    FAMILIES,
    Outcome,
    Tracer,
    child_env,
    fresh_dir,
    mcycles_per_s,
    median,
    percentile,
    remove_tree,
    repro_cmd,
    run_child,
    traced_and_overhead,
    window8_miss_share,
)

_SUMMARY_RE = re.compile(
    r"^run (?P<run_id>\S+): (?P<status>\S+) \| (?P<done>\d+)/(?P<total>\d+) cells "
    r"\((?P<skipped>\d+) skipped, (?P<retried>\d+) retried, (?P<quarantined>\d+) quarantined\)"
)


def run_args(cfg: Dict[str, Any], runs_dir: Path, coders: str, jobs: int) -> list:
    return repro_cmd(
        "run", "savings", "--bus", "memory", "--jobs", str(jobs), "--cycles", str(cfg["cycles"]),
        "--coders", coders, "--runs-dir", str(runs_dir),
    )


def setup(cfg: Dict[str, Any], times: int) -> Tuple[Path, float]:
    """Fill a fresh trace cache by simulating the suite, ``times`` over;
    returns the last cache and the median set-up time."""
    walls, cache = [], None
    for _ in range(times):
        if cache is not None:
            remove_tree(cache)
        start = time.perf_counter()
        cache = fresh_dir("sweep-cache")
        runs = fresh_dir("sweep-setup-runs")
        try:
            run_child(
                run_args(cfg, runs, "last", 2), child_env(REPRO_TRACE_CACHE_DIR=str(cache))
            ).check("repro run savings (cache fill)")
        finally:
            remove_tree(runs)
        walls.append(time.perf_counter() - start)
    return cache, median(walls)


def run_sweep(cfg: Dict[str, Any], cache: Path, jobs: int = 2):
    """One ``repro run savings`` in a fresh runs directory.

    Returns the finished child, the parsed summary line and the cell
    values ``{"kernel/bus|coder": savings_pct}``.
    """
    runs = fresh_dir("sweep-runs")
    try:
        done = run_child(
            run_args(cfg, runs, ",".join(FAMILIES), jobs), child_env(REPRO_TRACE_CACHE_DIR=str(cache))
        ).check("repro run savings")
        summary_line = done.stdout.strip().splitlines()[-1]
        match = _SUMMARY_RE.match(summary_line)
        values: Dict[str, float] = {}
        if match is not None:
            summary = json.loads((Path(runs) / match["run_id"] / "summary.json").read_text())
            values = {
                f"{cell['workload']}|{cell['coder']}": cell["value"]["savings_pct"] for cell in summary["cells"]
            }
    finally:
        remove_tree(runs)
    return done, match, values


def check_run(match, values: Dict[str, float], reference: Dict[str, Any], outcome: Outcome, where: str) -> None:
    """A complete run, no skipped cell, every savings value as recorded."""
    expected = reference["cells"]
    if match is None:
        outcome.fail(f"{where}: no run summary line", len(expected) + 1)
        return
    outcome.check(
        match["status"] == "complete" and match["skipped"] == "0" and int(match["done"]) == len(expected),
        f"{where}: {match.group(0)} (want complete, 0 skipped, {len(expected)} cells)",
    )
    for key, want in expected.items():
        got = values.get(key)
        outcome.check(
            got is not None and round(got, 4) == want,
            f"{where}: savings {key} = {got}, expected {want}",
        )


def end_to_end(cfg: Dict[str, Any], seconds: float, reference: Dict[str, Any], outcome: Outcome):
    cache, setup_s = setup(cfg, cfg["setup_repeats"])
    walls, rss, results = [], [], []
    try:
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start < seconds and len(walls) < cfg["max_reps"]):
            done, match, values = run_sweep(cfg, cache)
            walls.append(done.wall_s)
            rss.append(done.maxrss_mb)
            results.append((match, values))
    finally:
        remove_tree(cache)
    for i, (match, values) in enumerate(results):
        check_run(match, values, reference, outcome, f"repetition {i}")
    cells = len(reference["cells"])
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": median(walls) * 1e3,
        "latency_p99_ms": percentile(walls, 99) * 1e3,
        "mcycles_per_s": mcycles_per_s(cells * cfg["cycles"], median(walls)),
        "peak_rss_mb": max(rss),
    }
    report = {
        "sweep_s": f"{median(walls):.3f} s (median of {len(walls)})",
        "cells": cells,
        "cycles": cfg["cycles"],
    }
    return metrics, report


# -- the traced run ----------------------------------------------------


def replay(cfg: Dict[str, Any], tracer: Tracer, cache_dir: str) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The savings cells re-enacted call by call, each layer timed.

    Per cell, in the matrix's order (kernel-major, then coder), as
    ``make_cell_fn`` does it: the memory-bus trace from the trace cache,
    the coder's ``encode_trace`` and ``normalized_energy_removed`` (two
    ``count_activity`` calls).  The ledger's own work is what the
    ``repro run`` wall time holds beyond these.
    """
    from repro.coding.specs import parse_coder_spec
    from repro.energy import accounting
    from repro.traces.cache import TraceCache
    from repro.workloads.programs import WORKLOADS
    from repro.workloads.suite import program_hash

    cache = TraceCache(cache_dir)
    cycles, bus = cfg["cycles"], "memory"
    values: Dict[str, float] = {}
    traces: Dict[str, Any] = {}
    with tracer.span("workload"), tracer.wrapping(accounting, "count_activity", "energy.count_activity"):
        for name in sorted(WORKLOADS):
            key = cache.key("trace", name, bus, cycles, program_hash(name))
            for coder_spec in FAMILIES:
                with tracer.span("traces.cache_load"):
                    trace = cache.load(key)
                if trace is None:
                    raise RuntimeError(f"trace cache has no {name}/{bus}@{cycles}")
                traces[name] = trace
                coder = parse_coder_spec(coder_spec, trace.width)
                with tracer.span(f"coding.{coder_spec}.encode", work=len(trace)):
                    coded = coder.encode_trace(trace)
                savings = accounting.normalized_energy_removed(trace, coded, 1.0)
                values[f"{name}/{bus}|{coder_spec}"] = float(savings)
    return values, {"hits": cache.hits, "misses": cache.misses, "traces": traces}


def traced(cfg: Dict[str, Any], reference: Dict[str, Any], outcome: Outcome):
    cache, _setup_s = setup(cfg, 1)
    try:
        # The ledger's per-cell cost: a serial run's wall time minus the
        # cell work the replay below times.
        done, match, values = run_sweep(cfg, cache, jobs=1)
        check_run(match, values, reference, outcome, "traced serial run")

        tracer, (replayed, stats), overhead = traced_and_overhead(lambda t: replay(cfg, t, str(cache)))
    finally:
        remove_tree(cache)
    for key, want in reference["cells"].items():
        got = replayed.get(key)
        outcome.check(got is not None and round(got, 4) == want, f"traced replay: savings {key} = {got}, expected {want}")

    cells = len(reference["cells"])
    cell_layers = ["traces.cache_load", "energy.count_activity"] + [f"coding.{f}.encode" for f in FAMILIES]
    cell_s = sum(tracer.self_s(name) for name in cell_layers)
    loads = tracer.count("traces.cache_load")
    metrics = {
        "traces.cache_load_s": tracer.self_s("traces.cache_load"),
        "traces.cache_loads": loads,
        "traces.cache_hit_ratio": stats["hits"] / loads if loads else 0.0,
        "energy.count_activity_s": tracer.self_s("energy.count_activity"),
        "energy.count_activity_mcycles_per_s": tracer.rate("energy.count_activity"),
        "energy.count_activity_calls": tracer.count("energy.count_activity"),
        "coding.window8_miss_share": window8_miss_share(list(stats["traces"].values())),
        "runs.overhead_per_cell_ms": (done.wall_s - cell_s) / cells * 1e3,
        "runs.cells": int(match["done"]) if match else 0,
        "trace.unattributed_frac": tracer.unattributed_frac("workload"),
        "obs.tracing_overhead_frac": overhead,
    }
    for family in FAMILIES:
        metrics[f"coding.{family}.encode_mcycles_per_s"] = tracer.rate(f"coding.{family}.encode")
    report = {
        "serial repro run": f"{done.wall_s:.3f} s",
        "summed cell layers": f"{cell_s:.3f} s",
    }
    return metrics, report
