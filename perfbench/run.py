"""Benchmark harness for the bus-transcoding reproduction.

    python3 perfbench/run.py --workload table3-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/METRICS.json``):

* ``table3-cold``    cold ``repro table3 --jobs 1`` (no seed);
* ``sweep-families`` ``repro run savings`` over 17 kernels x 9 families (no seed);
* ``serve-stream``   ``repro cluster`` + a two-connection round-trip client
  (``--seed`` picks the ``gen:mixed`` population).

``--trace 0`` measures the end-to-end metrics from the command line with
tracing off; ``--trace 1`` is the separate traced run that calls each
layer itself and prints the per-layer metrics.  ``--workload all`` runs
every workload in turn.  The last line of the output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import BenchError, Outcome, emit, load_json, remove_tree  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table3-cold", "sweep-families", "serve-stream")

#: Sizes per workload.  ``full`` is what the benchmark measures; ``smoke``
#: is the small size the harness's own tests run.  serve-stream's traffic
#: shape is ``repro loadgen``'s default scenario: 8 streams of 50 chunks of
#: 64 cycles each.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "table3-cold": {"cycles": 10_000, "setup_repeats": 7, "max_reps": 50},
        "sweep-families": {"cycles": 10_000, "setup_repeats": 5, "max_reps": 50},
        "serve-stream": {
            "population": 8, "stream_cycles": 3200, "chunk": 64, "setup_repeats": 5,
            "frame_reps": 2000, "traced_seconds": 3.0, "overhead_pairs": 3, "coding_streams": 8,
        },
    },
    "smoke": {
        "table3-cold": {"cycles": 1500, "setup_repeats": 1, "max_reps": 1},
        "sweep-families": {"cycles": 1500, "setup_repeats": 1, "max_reps": 1},
        "serve-stream": {
            "population": 2, "stream_cycles": 640, "chunk": 64, "setup_repeats": 1,
            "frame_reps": 20, "traced_seconds": 0.5, "overhead_pairs": 1, "coding_streams": 2,
        },
    },
}


def metric_catalogue(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = load_json(common.ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def required_layers(workload: str) -> Dict[str, bool]:
    """The per-layer metrics ``workload`` must exercise, from the map in
    ``METRICS.json``: name -> whether the metric may read 0."""
    required: Dict[str, bool] = {}
    for row in load_json(HERE / "METRICS.json")["per_layer"]:
        if workload not in row["on"]:
            continue
        for pattern in row["metrics"]:
            for family in common.FAMILIES if "<family>" in pattern else ("",):
                name = pattern.replace("<family>", family)
                required[name] = name in row.get("may_be_zero", ())
    return required


def check_layers(workload: str, measured: Dict[str, Any], outcome: Outcome) -> None:
    """A per-layer metric the workload exercises that reads 0 or was not
    measured means its layer's instrumentation broke: a failure."""
    for name, may_be_zero in required_layers(workload).items():
        value = measured.get(name)
        outcome.check(
            value is not None and (may_be_zero or value != 0),
            f"{workload} exercises {name}, but the traced run measured {value}",
        )


def run_workload(name: str, args: argparse.Namespace, outcome: Outcome) -> Tuple[Dict[str, float], Dict[str, Any]]:
    cfg = SCALES[args.scale][name]
    reference = load_json(args.reference)
    if name == "table3-cold":
        import table3_cold as mod

        ref = {"rows": reference["table3"][str(cfg["cycles"])], "paper": reference["paper_table3"]}
        if args.trace:
            common.import_program()
            return mod.traced(cfg, ref, outcome)
        return mod.end_to_end(cfg, args.seconds, ref, outcome)
    if name == "sweep-families":
        import sweep_families as mod

        ref = {"cells": reference["sweep"][str(cfg["cycles"])]}
        if args.trace:
            common.import_program()
            return mod.traced(cfg, ref, outcome)
        return mod.end_to_end(cfg, args.seconds, ref, outcome)
    import serve_stream as mod

    if args.trace:
        common.import_program()
        return mod.traced(cfg, args.seed, outcome)
    return mod.end_to_end(cfg, args.seconds, args.seed, outcome)


def run_one(name: str, args: argparse.Namespace) -> int:
    print(f"== {name} ({'traced, per-layer' if args.trace else 'end-to-end'}, seed {args.seed})", flush=True)
    catalogue = metric_catalogue(bool(args.trace))
    outcome = Outcome()
    measured, report = run_workload(name, args, outcome)
    unknown = set(measured) - set(catalogue)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not args.trace:
        missing = set(catalogue) - set(measured)
        if missing:
            raise BenchError(f"{name} did not measure {sorted(missing)}")
    else:
        check_layers(name, measured, outcome)
    # Per-layer metrics of a layer the workload does not exercise read 0.
    metrics = {m: (float(measured.get(m) or 0.0), unit) for m, unit in catalogue.items()}
    for m, (value, unit) in metrics.items():
        report.setdefault(m, f"{value:.6g} {unit}")
    return emit(outcome, metrics, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        codes = [run_one(name, args) for name in names]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        traceback.print_exc()
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_tree(common.WORK)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
