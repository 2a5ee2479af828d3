"""Committed benchmark records (`BENCH_*.json` at the repository root).

Each record compares runs of `bench/run.py` at a parent commit and at a
change.  It may name only workloads and end-to-end metrics that
`BENCHMARK.json` declares, and each summary must be the one its runs give.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    assert record["run_seconds"] == SPEC["run_seconds"]
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for name, w in record["workloads"].items():
        assert w["metrics"] and set(w["metrics"]) <= set(metrics), name
        for m, entry in w["metrics"].items():
            assert entry["unit"] == metrics[m]["unit"], (name, m)
            assert len(entry["parent"]["runs"]) == len(entry["change"]["runs"]) == len(w["seeds"])
            for side in ("parent", "change"):
                s = entry[side]
                q1, _, q3 = statistics.quantiles(s["runs"], n=4)
                assert (s["median"], s["q1"], s["q3"]) == (statistics.median(s["runs"]), q1, q3), \
                    (name, m, side)
            sign = 1 if metrics[m]["better"] == "higher" else -1
            pairs = zip(entry["parent"]["runs"], entry["change"]["runs"])
            assert entry["change_wins"] == sum(sign * (c - p) > 0 for p, c in pairs), (name, m)
