"""Seconds-long smoke check of the benchmark at the tiny shape.

    python3 bench/smoke.py

Runs every workload with tracing off and on, and asserts that each metric
``BENCHMARK.json`` names is emitted with its unit, that every output check
ran and passed, and that the result has exactly the contract's keys.
"""

from __future__ import annotations

import json
import sys

import run

EXPECTED_CHECKS = {
    "icews14-train": {"train.steps_finite", "train.loss_falls", "train.fits_agree",
                      "train.reference_loss"},
    "icews14-eval": {"eval.rounds_agree", "eval.oracle_rank"},
    "icews14-remix": {"remix.full@1==copy-only", "remix.full@0==gen-only",
                      "remix.full@0.8==full", "remix.rounds_agree",
                      "remix.rows_full@1==copy-only", "remix.rows_full@0==gen-only"},
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(EXPECTED_CHECKS)
    problems = []
    for workload, checks in EXPECTED_CHECKS.items():
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, lines, record = run.run(workload, 0, 0.5, trace, shape_name="tiny")
            where = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {record['checks']}")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics {got} != {units}")
            if set(record["checks"]) != checks:
                problems.append(f"{where}: checks {sorted(record['checks'])}")
            if not any(line.startswith("metric failed_fraction=") for line in lines):
                problems.append(f"{where}: no failed_fraction line")
            print(f"{where}: {len(result['metrics'])} metrics, "
                  f"{len(record['checks'])} checks", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
