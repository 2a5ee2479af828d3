"""Run one catq benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; catq is imported from its `src/`.  Each
workload is one process and one thread running a closed loop, one op at
a time.  With `--trace 0` the last line holds the end-to-end metrics;
with `--trace 1` every input runs twice, once untraced and once traced,
and the run prints the per-layer metrics, then writes the spans under
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
# a p90 needs ten samples beyond it; a run with fewer ops reports no p90
MIN_OPS_FOR_P90 = 100

# name -> unit of every end-to-end metric
END_TO_END = {
    "op_s.p90": "s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# set-up in a fresh interpreter: import catq and, for laws, elaborate the
# corpus; the child times itself, leaving out the interpreter's own start-up,
# which is no code of catq's and swings most with the host's load
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import catq.cli
if sys.argv[2]:
    import catq
    with open(sys.argv[2], encoding="utf-8") as fh:
        env, diags = catq.elaborate(catq.parse(fh.read())[0])
    if diags:
        raise SystemExit(1)
print(time.perf_counter() - start)
"""


def load_catq() -> None:
    """Put the checkout's `src/` first on the path and import catq from it."""
    src = ROOT / "src"
    if not (src / "catq" / "__init__.py").is_file():
        print(f"error: no catq sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import catq
    if Path(catq.__file__).resolve().parent != (src / "catq").resolve():
        print(f"error: imported catq from {catq.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def setup_once(corpus: str) -> float:
    """Seconds a fresh interpreter takes to get ready for an op."""
    child = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(ROOT / "src"), corpus],
                           capture_output=True, text=True, timeout=60, check=True)
    return float(child.stdout)


class Loop:
    """Closed-loop op runner that counts attempts and failures."""

    def __init__(self, workload, state):
        self.wl = workload
        self.state = state
        self.attempted = 0
        self.failed = 0

    def one(self, k: int, run=None):
        """Run and check op k; return (seconds, rows), or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = (run or self.wl.run)(self.state, k)
            elapsed = time.perf_counter() - start
            return elapsed, self.wl.check(self.state, k, result)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None

    def measure(self, seconds: float, corpus: str):
        """Ops for `seconds`, with SETUP_RUNS set-up children spread evenly among them.

        Spreading the children over the window exposes them to the same
        phases of the host's speed as the ops.  Returns the ops'
        (seconds, rows) and the set-up times.
        """
        done, setups = [], []
        start = time.perf_counter()
        k = 0
        while (now := time.perf_counter()) < start + seconds:
            if now >= start + (len(setups) + 0.5) * seconds / SETUP_RUNS:
                setups.append(setup_once(corpus))
                continue
            got = self.one(k)
            k += 1
            if got is not None:
                done.append(got)
        while len(setups) < SETUP_RUNS:
            setups.append(setup_once(corpus))
        return done, setups

    def measure_paired(self, seconds: float, tracer: Tracer) -> list[tuple[float, int]]:
        """Run every input untraced and traced; return the untraced ops.

        The order within a pair flips with every pass over the inputs, so
        neither side always runs first on an input, and the two sides share
        every phase of the host's speed.
        """
        untraced = []
        traced_run = tracer.root(self.wl.run)
        end = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < end:
            for traced in ((True, False) if (k // self.state.cycle) % 2 else (False, True)):
                if not traced:
                    got = self.one(k)
                    if got is not None:
                        untraced.append(got)
                    continue
                tracer.install()
                try:
                    self.one(k, traced_run)
                finally:
                    tracer.uninstall()
            k += 1
        return untraced


def end_to_end(done: list[tuple[float, int]], setups: list[float]) -> dict[str, float]:
    times = [t for t, _ in done]
    out = {
        "rows_per_s": sum(r for _, r in done) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if len(times) >= MIN_OPS_FOR_P90:
        out["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    load_catq()
    wl = WORKLOADS[args.workload]
    state = wl.prepare(args.seed, OUT)
    loop = Loop(wl, state)
    for k in range(state.cycle):  # warm-up: lazy set-up and caches, untimed
        loop.one(k)
    gc.collect()

    if args.trace:
        tracer = Tracer()
        untraced = loop.measure_paired(args.seconds, tracer)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = {}
        if untraced and tracer.ops:
            values = tracer.metrics(sum(t for t, _ in untraced) / len(untraced))
            metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER.items()}
        ops = len(untraced)
    else:
        done, setups = loop.measure(args.seconds, str(state.path) if args.workload == "laws" else "")
        values = end_to_end(done, setups) if done else {}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items() if m in values}
        ops = len(done)
        if done:
            print(f"median op {statistics.median(t for t, _ in done):.6f} s", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {ops} timed ops, "
          f"{loop.attempted} attempted, {loop.failed} failed", file=sys.stderr)
    if not args.trace and ops < MIN_OPS_FOR_P90:
        print(f"error: {ops} ops are too few for a p90 (at least {MIN_OPS_FOR_P90})", file=sys.stderr)
    correct = loop.failed == 0 and len(metrics) == (len(PER_LAYER) if args.trace else len(END_TO_END))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
