"""Per-layer spans for catq, recorded by wrapping its functions from outside.

`from .x import f` binds `f` separately in every importing module, so a
function is wrapped at each module that calls it, not only where it is
defined.  Calls between functions of one module go through that
module's globals and see the wrapper too.  The modules are reached
through `importlib`, because the attribute `catq.elaborate` is the
function of that name, not the module.

Spans stay in memory as (op, span, parent, name, start, end) tuples and
are written out when the run ends.  A span's self time is its duration
minus the durations of its children; spans of one thread nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> the per-layer metric its self time is added to
SELF_TIME_METRIC = {
    "bench.op": "bench.self_s",
    "cli.main": "cli.self_s",
    "parser.parse": "parser.parse_s",
    "elaborate.elaborate": "elaborate.self_s",
    "schema.validate": "schema.validate_s",
    "mappings.validate": "mappings.validate_s",
    "mappings.open_terms_equal": "mappings.open_terms_equal_s",
    "mappings.probe": "mappings.probe_s",
    "model.build": "model.saturate_s",
    "model.freeze": "model.freeze_s",
    "migrate.sigma": "migrate.sigma_s",
    "migrate.delta": "migrate.delta_s",
    "migrate.pi": "migrate.pi_s",
    "migrate.paths": "migrate.paths_s",
    "migrate.search": "migrate.morphism_search_s",
    "migrate.adjunction": "migrate.adjunction_s",
    "migrate.invert": "migrate.invert_s",
    "matcher.match": "matcher.match_s",
    "render.render": "render.render_s",
}

ADJUNCTION = ("unit_sigma", "counit_sigma", "unit_pi", "counit_pi",
              "transpose_sigma_down", "transpose_sigma_up",
              "transpose_pi_down", "transpose_pi_up")

# (module, attribute, span name): every call site that gets a span
TARGETS = [
    ("catq.cli", "main", "cli.main"),
    ("catq.cli", "parse", "parser.parse"),
    ("catq.cli", "elaborate", "elaborate.elaborate"),
    ("catq.cli", "render_model", "render.render"),
    ("catq.cli", "invert_mapping", "migrate.invert"),
    ("catq.cli", "match_mapping", "matcher.match"),
    ("catq.elaborate", "build_term_model", "model.build"),
    ("catq.elaborate", "sigma", "migrate.sigma"),
    ("catq.elaborate", "delta", "migrate.delta"),
    ("catq.elaborate", "pi", "migrate.pi"),
    ("catq.elaborate", "validate_typeside", "schema.validate"),
    ("catq.elaborate", "validate_schema", "schema.validate"),
    ("catq.elaborate", "validate_instance", "schema.validate"),
    ("catq.elaborate", "validate_mapping", "mappings.validate"),
    ("catq.migrate", "build_term_model", "model.build"),
    ("catq.migrate", "sigma", "migrate.sigma"),
    ("catq.migrate", "delta", "migrate.delta"),
    ("catq.migrate", "pi", "migrate.pi"),
    ("catq.migrate", "enumerate_paths", "migrate.paths"),
    ("catq.migrate", "open_terms_equal", "mappings.open_terms_equal"),
    ("catq.migrate", "validate_mapping", "mappings.validate"),
    ("catq.migrate", "_search_morphisms", "migrate.search"),
    ("catq.migrate", "invert_mapping", "migrate.invert"),
    *(("catq.migrate", name, "migrate.adjunction") for name in ADJUNCTION),
    ("catq.mappings", "build_term_model", "model.build"),
    ("catq.mappings", "probe_model", "mappings.probe"),
    ("catq.mappings", "open_terms_equal", "mappings.open_terms_equal"),
    ("catq.matcher", "match_mapping", "matcher.match"),
    ("catq.matcher", "enumerate_paths", "migrate.paths"),
    ("catq.matcher", "validate_mapping", "mappings.validate"),
    ("catq.model.TermModel", "__init__", "model.freeze"),
]

OTHER_METRICS = [
    "parser.input_bytes", "render.output_bytes",
    "mappings.open_terms_equal_calls", "mappings.probe_calls", "mappings.probe_hit_ratio",
    "model.builds", "model.classes",
    "migrate.sigma_calls", "migrate.delta_calls", "migrate.pi_calls",
    "migrate.recompute_ratio", "migrate.pi_families",
    "migrate.enumerate_paths_calls", "migrate.morphisms_found",
    "trace.op_s", "trace.overhead_ratio",
]


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# name -> unit of every per-layer metric, all per-op means over the traced ops
PER_LAYER = {m: _unit(m) for m in [*dict.fromkeys(SELF_TIME_METRIC.values()), *OTHER_METRICS]}


def _owner(path: str):
    """The module, or a class inside a module, that holds a wrapped attribute."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its children's durations."""
    out = {sid: end - start for _, sid, _, _, start, end in spans}
    for _, _, parent, _, start, end in spans:
        if parent in out:
            out[parent] -= end - start
    return out


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.ops = 0
        self._stack: list[int] = [0]
        self._next = 1
        self._saved: list[tuple[object, str, object]] = []
        self._inputs: dict[tuple, object] = {}  # keeps inputs alive so ids stay distinct
        self._distinct_inputs = 0

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, start, end))
            if note is not None:
                note(args, result)
            return result

        return traced

    def _note_parser_parse(self, args, result):
        self.counts["parser.input_bytes"] += len(args[0].encode())

    def _note_render_render(self, args, result):
        self.counts["render.output_bytes"] += len(result.encode())

    def _note_model_freeze(self, args, result):
        self.counts["model.classes"] += sum(len(cs) for cs in args[0].carriers.values())

    def _note_migrate_search(self, args, result):
        self.counts["migrate.morphisms_found"] += len(result)

    def _note_input(self, kind, args):
        key = (kind, id(args[0]), id(args[1]))
        if key not in self._inputs:
            self._inputs[key] = args
            self._distinct_inputs += 1

    def _note_migrate_sigma(self, args, result):
        self._note_input("sigma", args)

    def _note_migrate_delta(self, args, result):
        self._note_input("delta", args)

    def _note_migrate_pi(self, args, result):
        self._note_input("pi", args)
        self.counts["migrate.pi_families"] += sum(len(f) for f in result.families.values())

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name in TARGETS:
            owner = _owner(path)
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def root(self, fn):
        """`fn` wrapped so that every call is one traced op under a `bench.op` span."""
        traced = self._wrap("bench.op", fn)

        def op(*args):
            self.ops += 1
            self.op = self.ops
            self._inputs.clear()
            return traced(*args)

        return op

    # -- reporting -----------------------------------------------------

    def metrics(self, untraced_op_s: float) -> dict[str, float]:
        """Per-op means of every per-layer metric over the traced ops."""
        ops = max(self.ops, 1)
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        has_build_child: set[int] = set()
        op_time = 0.0
        for _, sid, parent, name, start, end in self.spans:
            calls[name] += 1
            if name == "model.build":
                has_build_child.add(parent)
            if name == "bench.op":
                op_time += end - start
        own = self_times(self.spans)
        for _, sid, _, name, _, _ in self.spans:
            totals[SELF_TIME_METRIC[name]] += own[sid]
        probes = [sid for _, sid, _, name, _, _ in self.spans if name == "mappings.probe"]
        hits = sum(1 for sid in probes if sid not in has_build_child)
        migrations = calls["migrate.sigma"] + calls["migrate.delta"] + calls["migrate.pi"]
        out = {m: totals[m] / ops for m in dict.fromkeys(SELF_TIME_METRIC.values())}
        out.update({
            "parser.input_bytes": self.counts["parser.input_bytes"] / ops,
            "render.output_bytes": self.counts["render.output_bytes"] / ops,
            "mappings.open_terms_equal_calls": calls["mappings.open_terms_equal"] / ops,
            "mappings.probe_calls": len(probes) / ops,
            "mappings.probe_hit_ratio": hits / len(probes) if probes else 0.0,
            "model.builds": calls["model.build"] / ops,
            "model.classes": self.counts["model.classes"] / ops,
            "migrate.sigma_calls": calls["migrate.sigma"] / ops,
            "migrate.delta_calls": calls["migrate.delta"] / ops,
            "migrate.pi_calls": calls["migrate.pi"] / ops,
            "migrate.recompute_ratio":
                migrations / self._distinct_inputs if self._distinct_inputs else 0.0,
            "migrate.pi_families": self.counts["migrate.pi_families"] / ops,
            "migrate.enumerate_paths_calls": calls["migrate.paths"] / ops,
            "migrate.morphisms_found": self.counts["migrate.morphisms_found"] / ops,
            "trace.op_s": op_time / ops,
            "trace.overhead_ratio": (op_time / ops) / untraced_op_s,
        })
        return out

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
