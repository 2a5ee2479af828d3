"""Run workloads over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--trace 1] [--out FILE] wide deep

Each run lasts `run_seconds` from `BENCHMARK.json`.  For every workload
and metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread: the distance
between the quartiles as a share of the median.  `--out` also writes
the summary as JSON.  Runs are sequential, so they never compete for
the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="+")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", default="0")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    seconds = str(json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"])

    report: dict[str, dict] = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True, timeout=180)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect run\n{done.stderr}", file=sys.stderr)
                return 1
            runs.append(result)
        metrics = {}
        for m, v in runs[0]["metrics"].items():
            values = [r["metrics"][m]["value"] for r in runs]
            metrics[m] = {"unit": v["unit"], **summary(values), "values": values}
        report[workload] = {"seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
                            "metrics": metrics}
        print(f"{workload}: ops attempted per run {report[workload]['attempted']}")
        for m, s in metrics.items():
            print(f"  {m:34s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
