"""Record the output references the benchmark checks against.

    python3 perfbench/record_reference.py

Runs ``repro table3`` and ``repro run savings`` at every scale the
harness knows and writes ``perfbench/reference.json``: the Table 3 rows
as printed and each savings cell at the ledger's four-decimal precision.
Run it only on a commit whose outputs are known good; the benchmark then
fails any later commit whose outputs differ.  The paper's own Table 3
(``benchmarks/test_table3_crossover.py``) is kept beside them for the
``table3_paper_err_mm`` figure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sweep_families  # noqa: E402
import table3_cold  # noqa: E402
from common import remove_tree, WORK  # noqa: E402
from run import HERE, SCALES  # noqa: E402

PAPER_TABLE3 = {
    "0.13um": {8: (12.7, 9.4, 11.5), 16: (9.5, 6.9, 7.0)},
    "0.10um": {8: (9.5, 6.9, 8.0), 16: (7.1, 5.0, 6.4)},
    "0.07um": {8: (4.5, 2.9, 4.1), 16: (3.2, 2.4, 2.7)},
}


def main() -> int:
    reference = {
        "paper_table3": {
            f"{tech}/{entries}/{suite}": value
            for tech, sizes in PAPER_TABLE3.items()
            for entries, values in sizes.items()
            for suite, value in zip(("SPECint", "SPECfp", "ALL"), values)
        },
        "table3": {},
        "sweep": {},
    }
    try:
        for scale in SCALES.values():
            cfg = scale["table3-cold"]
            rows = table3_cold.parse_table(table3_cold.run_cold(cfg).stdout)
            reference["table3"][str(cfg["cycles"])] = [list(row) for row in rows]
            cfg = scale["sweep-families"]
            cache, _ = sweep_families.setup(cfg, 1)
            _done, match, values = sweep_families.run_sweep(cfg, cache)
            remove_tree(cache)
            if match is None or match["status"] != "complete":
                raise RuntimeError("savings run did not complete")
            reference["sweep"][str(cfg["cycles"])] = {k: round(v, 4) for k, v in sorted(values.items())}
    finally:
        remove_tree(WORK)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
