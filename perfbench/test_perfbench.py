"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench -q

Each workload runs once at the small ``smoke`` size, end to end and
traced; every metric ``BENCHMARK.json`` names must come out with its
unit.  A deliberately wrong reference value must fail the output check,
and a checkout without the program must fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import REFERENCE_CALIBRATION_S, Outcome, at_reference_speed  # noqa: E402
import run  # noqa: E402
import serve_stream  # noqa: E402

WORKLOADS = ("table3-cold", "sweep-families", "serve-stream")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke", *extra)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        required = run.required_layers(workload)
        assert required
        zero = [name for name, may_be_zero in required.items()
                if not may_be_zero and result["metrics"][name]["value"] == 0]
        assert not zero


def test_a_missing_or_zero_layer_metric_is_a_failure():
    required = run.required_layers("serve-stream")
    assert "serve.kernel_p50_ms.transition" in required and required["serve.coalesced_frac"]
    measured = {name: 1.0 for name in required}
    outcome = Outcome()
    run.check_layers("serve-stream", measured, outcome)
    assert outcome.failed == 0
    measured["serve.request_p50_ms"] = None
    measured["serve.kernel_p50_ms.fcm"] = 0.0
    measured["serve.coalesced_frac"] = 0.0
    del measured["coding.last.decode_mcycles_per_s"]
    outcome = Outcome()
    run.check_layers("serve-stream", measured, outcome)
    assert outcome.failed == 3


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("table3-cold", lambda ref: ref["table3"]["1500"][0].__setitem__(3, "99.90")),
        ("sweep-families", lambda ref: ref["sweep"]["1500"].__setitem__("gcc/memory|window8", 12.3456)),
    ],
)
def test_a_wrong_reference_fails_the_output_check(workload, corrupt, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    corrupt(reference)
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference))
    proc = smoke(workload, 0, "--reference", str(wrong))
    assert proc.returncode == 1
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_times_scale_by_the_calibration_passes_around_them():
    ref = REFERENCE_CALIBRATION_S
    assert at_reference_speed(4.0, [ref, ref]) == pytest.approx(4.0)
    # A host running at half speed doubles both the wall and the calibration.
    assert at_reference_speed(8.0, [1.5 * ref, 2.5 * ref]) == pytest.approx(4.0)


def test_serve_mismatches_count_as_failures():
    outcome = Outcome()
    serve_stream.check(
        {
            "errors": [],
            "chunks": 10,
            "sessions": 2,
            "decode_mismatches": ["fcm on stream 0"],
            "state_mismatches": ["last on stream 1"],
        },
        outcome,
    )
    assert (outcome.attempted, outcome.failed) == (12, 2)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table3-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_keeps_to_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
