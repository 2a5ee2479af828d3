"""Seeded generators for the benchmark's `.catq` programs and law corpus.

Every generator returns the program text together with the facts the
output checks need, so correctness is judged against what was generated,
never against the program's own answers.  The seed chooses values and
names; the structure (row counts, chain length, group sizes) is fixed by
the size arguments, so the work per operation does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TYPESIDE = "typeside Ty = literal {\n}\n"

SCHEMA_S = """\
schema S = literal : Ty {
    entities
        N1 N2
    foreign_keys
        f : N1 -> N2
    attributes
        name : N1 -> String
        salary : N1 -> Int
        age : N2 -> Int
}
"""

SCHEMA_S0 = """\
schema S0 = literal : Ty {
    entities
        N1 N2
    attributes
        name : N1 -> String
        salary : N1 -> Int
        age : N2 -> Int
}
"""

SCHEMA_T = """\
schema T = literal : Ty {
    entities
        N
    attributes
        name : N -> String
        salary : N -> Int
        age : N -> Int
}
"""

# the join mapping: both entities collapse onto N and f becomes the identity
MAPPING_F = """\
mapping F = literal : S -> T {
    entities
        N1 -> N
        N2 -> N
    foreign_keys
        f -> lambda x:N. x
    attributes
        name -> lambda x:N. name(x)
        salary -> lambda x:N. salary(x)
        age -> lambda x:N. age(x)
}
"""

# the product-shaped mapping: no foreign key, so pi builds N1 x N2
MAPPING_F0 = """\
mapping F0 = literal : S0 -> T {
    entities
        N1 -> N
        N2 -> N
    attributes
        name -> lambda x:N. name(x)
        salary -> lambda x:N. salary(x)
        age -> lambda x:N. age(x)
}
"""


def _names(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct identifiers, seeded, none a keyword or a number."""
    out: set[str] = set()
    while len(out) < n:
        out.add(f"{prefix}{rng.randrange(16 ** 6):06x}")
    names = sorted(out)
    rng.shuffle(names)
    return names


@dataclass
class Wide:
    text: str
    rows: list[tuple[str, str, str]]  # (name, salary, age) per employee


def wide(seed: int, n: int) -> Wide:
    """n employees over S, ten distinct ages, migrated by sigma, delta and pi."""
    rng = random.Random(seed)
    gens = _names(rng, n, "e")
    people = _names(rng, n, "P")
    ages = rng.sample(range(18, 80), 10)
    rows = [(people[k], str(rng.randrange(1000, 100000)), str(ages[k % 10]))
            for k in range(n)]
    lines = [TYPESIDE, SCHEMA_S, SCHEMA_T,
             "instance I = literal : S {", "    generators",
             "        " + " ".join(gens) + " : N1", "    equations"]
    for g, (who, pay, yrs) in zip(gens, rows):
        lines.append(f"        name({g}) = {who}  salary({g}) = {pay}  age(f({g})) = {yrs}")
    lines += ["}", MAPPING_F,
              "instance J = sigma F I", "instance K = delta F J", "instance P = pi F I", ""]
    return Wide("\n".join(lines), rows)


@dataclass
class Deep:
    text: str
    entities: list[str]
    attributes: list[str]
    gens: int


def deep(seed: int, k: int, gens: int = 50) -> Deep:
    """A foreign-key chain E0 -> ... -> Ek, one Int attribute each, free generators at E0."""
    rng = random.Random(seed)
    ents = [f"E{i}" for i in range(k + 1)]
    atts = [f"a{i}" for i in range(k + 1)]
    fks = [f"h{i}" for i in range(1, k + 1)]
    lines = [TYPESIDE, "schema D = literal : Ty {", "    entities",
             "        " + " ".join(ents), "    foreign_keys"]
    lines += [f"        {h} : {ents[i]} -> {ents[i + 1]}" for i, h in enumerate(fks)]
    lines.append("    attributes")
    lines += [f"        {a} : {e} -> Int" for a, e in zip(atts, ents)]
    lines += ["}", "instance I = literal : D {", "    generators",
              "        " + " ".join(_names(rng, gens, "g")) + " : E0", "}", ""]
    return Deep("\n".join(lines), ents, atts, gens)


@dataclass
class Dedup:
    text: str
    people: list[str]  # the expected names, one per group


def dedup(seed: int, n: int, m: int) -> Dedup:
    """n records over S in n/m groups; each group is declared equal after its attributes."""
    if n % m:
        raise ValueError("group size must divide the record count")
    rng = random.Random(seed)
    groups = n // m
    gens = _names(rng, n, "r")
    people = [f"p{g}" for g in range(groups)]
    values = [(str(rng.randrange(1000, 100000)), str(rng.randrange(18, 80)))
              for _ in range(groups)]
    member = [k % groups for k in range(n)]
    rng.shuffle(member)
    lines = [TYPESIDE, SCHEMA_S, "instance I = literal : S {", "    generators",
             "        " + " ".join(gens) + " : N1", "    equations"]
    for g, grp in zip(gens, member):
        pay, yrs = values[grp]
        lines.append(f"        name({g}) = {people[grp]}  salary({g}) = {pay}  age(f({g})) = {yrs}")
    chains: list[list[str]] = [[] for _ in range(groups)]
    for g, grp in zip(gens, member):
        chains[grp].append(g)
    for chain in chains:
        lines += [f"        {a} = {b}" for a, b in zip(chain, chain[1:])]
    lines += ["}", ""]
    return Dedup("\n".join(lines), people)


@dataclass
class LawCase:
    mapping: str  # F or F0
    source: str   # instance name over the mapping's source schema
    target: str   # instance name over T
    rows: int
    # expected size of Hom(sigma I, J), Hom(I, delta J), Hom(delta J, I) and Hom(J, pi I)
    homs: int


def laws(seed: int, shapes: list[tuple[str, int]]):
    """A `.catq` corpus of (mapping, I, J) triples, one per (mapping, rows) shape.

    Row i of every instance takes the (i mod 2)-th of two seeded names,
    salaries and ages, so rows i and i+2 are equal and morphisms have
    choices.  J holds the same rows joined over T, which makes delta(J)
    isomorphic to I.  The seed picks the values only, so the hom-set
    sizes, and with them the work, are the same for every seed.
    """
    rng = random.Random(seed)
    lines = [TYPESIDE, SCHEMA_S, SCHEMA_S0, SCHEMA_T, MAPPING_F, MAPPING_F0]
    cases: list[LawCase] = []
    for c, (mapping, rows) in enumerate(shapes):
        tag = f"{c}_{mapping}_{rows}"
        names = _names(rng, 2, "w")
        pays = rng.sample(range(1000, 100000), 2)
        ages = rng.sample(range(18, 80), 2)
        vals = [(names[i % 2], pays[i % 2], ages[i % 2]) for i in range(rows)]
        gens = [f"s{i}" for i in range(rows)]
        eqs = [f"name({g}) = {w}  salary({g}) = {p}" for g, (w, p, _) in zip(gens, vals)]
        decl = "        " + " ".join(gens) + " : N1"
        if mapping == "F":
            eqs = [e + f"  age(f({g})) = {a}" for e, g, (_, _, a) in zip(eqs, gens, vals)]
        else:
            ags = [f"t{i}" for i in range(rows)]
            eqs += [f"age({t}) = {a}" for t, (_, _, a) in zip(ags, vals)]
            decl += "\n        " + " ".join(ags) + " : N2"
        src, tgt = f"I_{tag}", f"J_{tag}"
        lines += [f"instance {src} = literal : {'S' if mapping == 'F' else 'S0'} {{",
                  "    generators", decl, "    equations"]
        lines += ["        " + e for e in eqs]
        lines += ["}", f"instance {tgt} = literal : T {{", "    generators",
                  "        " + " ".join(f"u{i}" for i in range(rows)) + " : N",
                  "    equations"]
        lines += [f"        name(u{i}) = {w}  salary(u{i}) = {p}  age(u{i}) = {a}"
                  for i, (w, p, a) in enumerate(vals)]
        lines.append("}")
        # each row has as many choices as there are rows equal to it
        choices = 1
        for i in range(rows):
            choices *= len(range(i % 2, rows, 2))
        homs = choices if mapping == "F" else choices ** 2
        cases.append(LawCase(mapping, src, tgt, rows, homs))
    lines.append("")
    return "\n".join(lines), cases
