"""The four workloads: one op each, and known-answer checks of its output.

`wide`, `deep` and `dedup` run `catq eval` in-process on a generated
program; `laws` checks the adjunction laws on one triple of a generated
corpus.  Ops call catq through module attributes looked up at call
time, so the tracer's wrappers see them.  Each check compares the output
with facts the generator knows and raises `WrongOutput` on a miss.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import gen

# op sizes: an op takes 0.02-0.2 s on a 2-core x86-64 VM under CPython 3.11,
# so a 30 s run holds well over 100 ops and its p90 has ten samples beyond it
SIZES = {
    "wide": {"n": 80},
    "deep": {"k": 10, "gens": 50},
    "dedup": {"n": 200, "m": 25},
    # one op per case, cycled; two thirds of the cases have 16-element
    # hom-sets, so the median and the p90 both fall among them
    "laws": {"cases": [("F", 2), ("F", 3), ("F", 4), ("F0", 3), ("F", 4), ("F0", 3)]},
}

FORMAT = {"wide": "json", "deep": "markdown", "dedup": "csv"}


class WrongOutput(Exception):
    """An op finished but its output contradicts the generated facts."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _mod(name: str):
    return importlib.import_module(name)


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass
class CliState:
    workload: str
    path: Path  # the generated program
    facts: object
    cycle = 1  # ops before the inputs repeat


def prepare_cli(workload: str, seed: int, out_dir: Path) -> CliState:
    facts = getattr(gen, workload)(seed, **SIZES[workload])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-{seed}.catq"
    path.write_text(facts.text, encoding="utf-8")
    return CliState(workload, path, facts)


def run_cli(state: CliState, k: int):
    """One `catq eval`; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _mod("catq.cli").main(["eval", str(state.path), "--format", FORMAT[state.workload]])
    return code, out.getvalue(), err.getvalue()


def _blocks(stdout: str) -> dict[str, str]:
    """Split `catq eval` output into {instance name: rendered tables}."""
    out: dict[str, str] = {}
    name = None
    for line in stdout.splitlines(keepends=True):
        if line.startswith("# instance "):
            name = line[len("# instance "):].strip()
            out[name] = ""
        elif name is not None:
            out[name] += line
    return out


def _markdown_tables(text: str) -> dict[str, list[list[str]]]:
    tables: dict[str, list[list[str]]] = {}
    rows = None
    for line in text.splitlines():
        if line.startswith("## "):
            rows = tables.setdefault(line[3:].strip(), [])
        elif line.startswith("| ") and rows is not None:
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
    return {e: rs[1:] for e, rs in tables.items()}  # drop the header row


def _csv_tables(text: str) -> dict[str, list[list[str]]]:
    tables: dict[str, list[list[str]]] = {}
    for block in text.strip().split("\n\n"):
        lines = block.splitlines()
        tables[lines[0][2:].strip()] = list(csv.reader(lines[2:]))
    return tables


def check_wide(facts: gen.Wide, stdout: str) -> int:
    blocks = _blocks(stdout)
    expect(list(blocks) == ["I", "J", "K", "P"], f"instances {list(blocks)}")
    n = len(facts.rows)
    want = Counter(facts.rows)
    rows = 0
    for inst, text in blocks.items():
        tables = json.loads(text)["entities"]
        for entity, table in tables.items():
            expect(len(table) == n, f"{inst}.{entity} has {len(table)} rows, expected {n}")
            rows += len(table)
        if inst in ("J", "P"):
            got = Counter((r["name"], r["salary"], r["age"]) for r in tables["N"])
            expect(got == want, f"{inst} rows differ from the generated employees")
    return rows


def check_deep(facts: gen.Deep, stdout: str) -> int:
    blocks = _blocks(stdout)
    expect(list(blocks) == ["I"], f"instances {list(blocks)}")
    tables = _markdown_tables(blocks["I"])
    expect(list(tables) == facts.entities, "entity tables differ from the chain")
    nulls = []
    for att, (entity, table) in zip(facts.attributes, tables.items()):
        expect(len(table) == facts.gens, f"{entity} has {len(table)} rows, expected {facts.gens}")
        cells = [row[1] for row in table]  # attribute columns come first
        expect(all(c.startswith(att + "(") for c in cells), f"{entity}.{att} holds non-nulls")
        nulls += cells
    expect(len(set(nulls)) == len(nulls), "labeled nulls are not pairwise distinct")
    return len(nulls)


def check_dedup(facts: gen.Dedup, stdout: str) -> int:
    blocks = _blocks(stdout)
    expect(list(blocks) == ["I"], f"instances {list(blocks)}")
    tables = _csv_tables(blocks["I"])
    groups = len(facts.people)
    for entity in ("N1", "N2"):
        expect(len(tables[entity]) == groups,
               f"{entity} has {len(tables[entity])} rows, expected {groups}")
    expect(sorted(r[1] for r in tables["N1"]) == sorted(facts.people), "N1 names differ")
    return sum(len(t) for t in tables.values())


CHECK = {"wide": check_wide, "deep": check_deep, "dedup": check_dedup}


def check_cli(state: CliState, k: int, result) -> int:
    """Rows rendered by a correct op; raises WrongOutput otherwise."""
    code, stdout, stderr = result
    expect(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
    return CHECK[state.workload](state.facts, stdout)


# ---------------------------------------------------------------------------
# The adjunction-law workload


@dataclass
class LawState:
    path: Path  # the generated corpus
    cases: list[gen.LawCase]
    env: object

    @property
    def cycle(self) -> int:
        return len(self.cases)


def prepare_laws(seed: int, out_dir: Path) -> LawState:
    text, cases = gen.laws(seed, SIZES["laws"]["cases"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"laws-{seed}.catq"
    path.write_text(text, encoding="utf-8")
    catq = _mod("catq")
    env, diags = catq.elaborate(catq.parse(text)[0])
    if diags:
        raise WrongOutput(f"law corpus does not elaborate: {diags[0]}")
    return LawState(path, cases, env)


def _rows(model) -> int:
    return sum(len(model.carrier(e)) for e in model.schema.entities)


def run_laws(state: LawState, k: int) -> int:
    """Criterion-3 check on case k (cyclic); returns the migrated rows."""
    mig, mat = _mod("catq.migrate"), _mod("catq.matcher")
    case = state.cases[k % len(state.cases)]
    f_map = state.env.mappings[case.mapping]
    im, jm = state.env.models[case.source], state.env.models[case.target]

    sres, dres, pires = mig.sigma(f_map, im.instance), mig.delta(f_map, jm), mig.pi(f_map, im)
    up = mig.enumerate_morphisms(sres.model, jm)
    down = mig.enumerate_morphisms(im, dres.model)
    expect(len(up) == len(down) == case.homs,
           f"Hom(sigma I, J)={len(up)}, Hom(I, delta J)={len(down)}, expected {case.homs}")
    expect({mig.transpose_sigma_down(f_map, im, h) for h in up} == set(down),
           "sigma transpose is not a bijection")
    down2 = mig.enumerate_morphisms(dres.model, im)
    up2 = mig.enumerate_morphisms(jm, pires.model)
    expect(len(down2) == len(up2) == case.homs,
           f"Hom(delta J, I)={len(down2)}, Hom(J, pi I)={len(up2)}, expected {case.homs}")
    expect({mig.transpose_pi_down(f_map, jm, h) for h in down2} == set(up2),
           "pi transpose is not a bijection")

    unit_s, counit_s = mig.unit_sigma(f_map, im), mig.counit_sigma(f_map, jm)
    unit_p, counit_p = mig.unit_pi(f_map, jm), mig.counit_pi(f_map, im)
    for name, m in (("unit_sigma", unit_s), ("counit_sigma", counit_s),
                    ("unit_pi", unit_p), ("counit_pi", counit_p)):
        expect(m.violations() == [], f"{name} is not a morphism")
    expect(mig.transpose_sigma_up(f_map, unit_s, sres.model).is_identity(),
           "triangle identity fails at the sigma unit")
    expect(mig.transpose_sigma_down(f_map, dres.model, counit_s).is_identity(),
           "triangle identity fails at the sigma counit")
    expect(mig.transpose_pi_up(f_map, unit_p, dres.model).is_identity(),
           "triangle identity fails at the pi unit")
    expect(mig.transpose_pi_down(f_map, pires.model, counit_p).is_identity(),
           "triangle identity fails at the pi counit")
    expect(mig.instances_isomorphic(dres.model, im) is not None, "delta(J) is not isomorphic to I")

    expect(mig.invert_mapping(f_map, mig.InversionBounds(depth=2)) is None,
           f"{case.mapping} collapses two entities and cannot have an inverse")
    matched = mat.match_mapping(f_map.source, f_map.target)
    expect(matched.validated and _mod("catq.mappings").mappings_equal(matched.mapping, f_map),
           f"matcher does not reproduce {case.mapping}")
    return _rows(sres.model) + _rows(dres.model) + _rows(pires.model)


def check_laws(state: LawState, k: int, result) -> int:
    return result  # run_laws checks as it goes: the checks are the op


@dataclass
class Workload:
    prepare: object  # (seed, output directory) -> state
    run: object      # (state, op number) -> result; this is the timed op
    check: object    # (state, op number, result) -> rows; raises WrongOutput


WORKLOADS = {
    name: Workload(lambda seed, d, name=name: prepare_cli(name, seed, d), run_cli, check_cli)
    for name in ("wide", "deep", "dedup")
}
WORKLOADS["laws"] = Workload(prepare_laws, run_laws, check_laws)
