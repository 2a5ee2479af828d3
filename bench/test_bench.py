"""Tests of the benchmark itself: run with `python3 -m pytest bench` from the root."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from catq.cli import main as catq_main  # noqa: E402

SMALL = {
    "wide": lambda seed: gen.wide(seed, n=12).text,
    "deep": lambda seed: gen.deep(seed, k=4, gens=5).text,
    "dedup": lambda seed: gen.dedup(seed, n=12, m=4).text,
    "laws": lambda seed: gen.laws(seed, workloads.SIZES["laws"]["cases"])[0],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 7])
def test_generated_programs_pass_catq_check(tmp_path, capsys, workload, seed):
    path = tmp_path / f"{workload}.catq"
    path.write_text(SMALL[workload](seed), encoding="utf-8")
    assert catq_main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_same_seed_same_inputs():
    for make in SMALL.values():
        assert make(3) == make(3)
        assert make(3) != make(4)


# per workload: its size for the test, and a corruption of a correct output
CORRUPT = {
    "wide": ({"n": 12}, lambda out, facts: out.replace(facts.rows[0][0], "Nobody")),
    "deep": ({"k": 4, "gens": 5}, lambda out, facts: out.replace("a0(1) ", "a0(2) ")),
    "dedup": ({"n": 12, "m": 4}, lambda out, facts: out.replace(",p0,", ",p1,")),
}


@pytest.mark.parametrize("workload", sorted(CORRUPT))
def test_checks_accept_the_output_and_reject_a_corrupted_one(tmp_path, monkeypatch, workload):
    size, corrupt = CORRUPT[workload]
    monkeypatch.setitem(workloads.SIZES, workload, size)
    wl = workloads.WORKLOADS[workload]
    state = wl.prepare(1, tmp_path)
    code, out, err = wl.run(state, 0)
    assert wl.check(state, 0, (code, out, err)) > 0
    broken = corrupt(out, state.facts)
    assert broken != out
    with pytest.raises(workloads.WrongOutput):
        wl.check(state, 0, (code, broken, err))
    with pytest.raises(workloads.WrongOutput):
        wl.check(state, 0, (1, out, err))


def test_laws_op_checks_every_case(tmp_path):
    wl = workloads.WORKLOADS["laws"]
    state = wl.prepare(5, tmp_path)
    for k in range(state.cycle):
        assert wl.check(state, k, wl.run(state, k)) > 0


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # op 1: a [0, 10] with children b [1, 4] and c [5, 9]; c has child d [6, 8]
    tree = [
        (1, 2, 1, "b", 1.0, 4.0),
        (1, 4, 3, "d", 6.0, 8.0),
        (1, 3, 1, "c", 5.0, 9.0),
        (1, 1, 0, "a", 0.0, 10.0),
    ]
    own = spans.self_times(tree)
    assert own == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0}
    assert sum(own.values()) == 10.0  # self times partition the root span


def _current(path, attr):
    return vars(spans._owner(path))[attr]


def test_untraced_run_after_a_traced_one_sees_the_original_functions(tmp_path, monkeypatch):
    originals = {(p, a): _current(p, a) for p, a, _ in spans.TARGETS}
    monkeypatch.setitem(workloads.SIZES, "wide", {"n": 6})
    wl = workloads.WORKLOADS["wide"]
    state = wl.prepare(1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_current(p, a) is not originals[(p, a)] for p, a, _ in spans.TARGETS)
        wl.check(state, 0, tracer.root(wl.run)(state, 0))
    finally:
        tracer.uninstall()
    traced = len(tracer.spans)
    assert {name for *_, name, _, _ in tracer.spans} >= {
        "bench.op", "cli.main", "parser.parse", "elaborate.elaborate", "model.build",
        "model.freeze", "migrate.sigma", "migrate.delta", "migrate.pi", "render.render"}
    assert all(_current(p, a) is originals[(p, a)] for p, a, _ in spans.TARGETS)
    wl.check(state, 1, wl.run(state, 1))
    assert len(tracer.spans) == traced
    assert importlib.import_module("catq.cli").main is catq_main


def test_paired_trace_runs_every_input_both_ways_in_alternating_order():
    calls = []

    def run_op(state, k):
        calls.append((k, importlib.import_module("catq.cli").main is not catq_main))

    wl = workloads.Workload(prepare=None, run=run_op, check=lambda state, k, result: 1)
    state = type("State", (), {"cycle": 2})()
    tracer = spans.Tracer()
    untraced = run.Loop(wl, state).measure_paired(0.05, tracer)
    assert calls[:8] == [(0, False), (0, True), (1, False), (1, True),
                         (2, True), (2, False), (3, True), (3, False)]
    assert sorted(calls) == sorted((k, traced) for k in range(len(calls) // 2)
                                   for traced in (False, True))
    assert len(untraced) == tracer.ops == len(calls) // 2
    assert importlib.import_module("catq.cli").main is catq_main


def test_a_run_too_short_for_a_p90_is_not_correct(capsys):
    assert run.main(["--workload", "laws", "--seed", "1", "--seconds", "0.3"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < result["attempted"] < run.MIN_OPS_FOR_P90 and result["failed"] == 0
    assert "op_s.p90" not in result["metrics"] and "setup_s" in result["metrics"]
    assert result["correct"] is False


def test_traced_self_times_add_up_to_the_op_time(tmp_path):
    wl = workloads.WORKLOADS["laws"]
    state = wl.prepare(2, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        op = tracer.root(wl.run)
        for k in range(3):
            op(state, k)
    finally:
        tracer.uninstall()
    m = tracer.metrics(untraced_op_s=1.0)
    layers = sum(m[name] for name in dict.fromkeys(spans.SELF_TIME_METRIC.values()))
    assert layers == pytest.approx(m["trace.op_s"], rel=1e-9)
    assert m["migrate.morphisms_found"] > 0 and m["migrate.delta_calls"] > 0
    assert set(m) == set(spans.PER_LAYER)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
