"""Start-up cost and the plainly written classes.

`@dataclass` generates a class's methods by `exec` when its module is
imported, so only the classes whose dataclass API is read are
dataclasses.  Every other class is a plain `__init__`, and a value among
them shares the read-only guard `terms.ReadOnly`.
"""

import dataclasses
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import catq.cli  # noqa: F401  (what a `catq` process imports)
from catq import INT, App, Var, int_literal
from catq.elaborate import Environment
from catq.mappings import InstanceMorphism
from catq.matcher import CandidateMapping, SimilarityConfig, SpanMatch
from catq.migrate import (
    DeltaResult,
    InversionBounds,
    MigrationResult,
    PathCaps,
    PathSet,
    PiResult,
    SigmaResult,
    _held,
)
from catq.model import Collision
from catq.parser import (
    DerivedDecl,
    Diagnostic,
    Directive,
    InstanceDecl,
    MappingDecl,
    Program,
    RawImage,
    SchemaDecl,
    TypesideDecl,
)
from catq.schema import Issue

from conftest import N1, N2, attr, fkey

# the classes whose dataclass API is read: `replace`, `fields` and
# `FrozenInstanceError` on the theory values, generated equality, hashing
# or repr on the others
DATACLASSES = {
    "catq.terms.Sort", "catq.terms.FunctionSymbol", "catq.terms.Var", "catq.terms.Equation",
    "catq.schema.Typeside", "catq.schema.Schema", "catq.schema.InstancePresentation",
    "catq.mappings.Mapping", "catq.model.SaturationLimits", "catq.parser.RawTerm",
}


def test_only_the_kept_classes_are_dataclasses():
    found = {f"{cls.__module__}.{cls.__qualname__}"
             for name, mod in list(sys.modules.items()) if name == "catq" or name.startswith("catq.")
             for cls in vars(mod).values()
             if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


REQUIRED = object()
f = fkey("f", N1, N2)
age = attr("age", N2, INT)

# each plainly written class, its parameters in order with their defaults,
# and the arguments to build it with where any object would not do
SIGNATURES = [
    (Diagnostic, [("severity", REQUIRED), ("code", REQUIRED), ("message", REQUIRED), ("span", None)], {}),
    (RawImage, [("body", REQUIRED), ("span", REQUIRED), ("var", None), ("var_sort", None)], {}),
    (TypesideDecl, [("name", REQUIRED), ("span", REQUIRED), ("types", []), ("constants", []),
                    ("equations", [])], {}),
    (SchemaDecl, [("name", REQUIRED), ("span", REQUIRED), ("typeside_ref", ""), ("entities", []),
                  ("foreign_keys", []), ("attributes", []), ("equations", [])], {}),
    (InstanceDecl, [("name", REQUIRED), ("span", REQUIRED), ("schema_ref", ""), ("generators", []),
                    ("equations", [])], {}),
    (MappingDecl, [("name", REQUIRED), ("span", REQUIRED), ("source_ref", ""), ("target_ref", ""),
                   ("entities", []), ("foreign_keys", []), ("attributes", [])], {}),
    (DerivedDecl, [("kind", REQUIRED), ("name", REQUIRED), ("span", REQUIRED), ("op", ""),
                   ("args", [])], {}),
    (Directive, [("op", REQUIRED), ("span", REQUIRED), ("args", []), ("span_match", False),
                 ("cutoff", None), ("depth", None)], {}),
    (Program, [("decls", [])], {}),
    (Issue, [("code", REQUIRED), ("message", REQUIRED)], {}),
    (App, [("sym", REQUIRED), ("args", ())], {"sym": int_literal(7).sym, "args": ()}),
    (Collision, [("sort", REQUIRED), ("lit1", REQUIRED), ("lit2", REQUIRED), ("class_id", REQUIRED)], {}),
    (InstanceMorphism, [("source", REQUIRED), ("target", REQUIRED), ("cmap", REQUIRED)], {}),
    (PathCaps, [("max_depth", 6), ("max_paths", 256)], {"max_depth": 2, "max_paths": 5}),
    (PathSet, [("source", REQUIRED), ("target", REQUIRED), ("terms", REQUIRED), ("truncated", False)], {}),
    (MigrationResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED)], {}),
    (DeltaResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED),
                   ("ent_class", REQUIRED), ("ty_class", REQUIRED), ("to_target", REQUIRED)], {}),
    (SigmaResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED),
                   ("gen_map", REQUIRED)], {}),
    (PiResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED), ("index", REQUIRED),
                ("families", REQUIRED), ("fam_class", REQUIRED), ("fam_of", REQUIRED),
                ("ty_class", REQUIRED), ("ty_origin", REQUIRED)], {}),
    (InversionBounds, [("depth", 3), ("max_candidates", 10 ** 6)], {"depth": 2, "max_candidates": 5}),
    (SimilarityConfig, [("cutoff", 0.5), ("case_sensitive", False)], {"cutoff": 0.25, "case_sensitive": True}),
    (CandidateMapping, [("mapping", REQUIRED), ("scores", REQUIRED), ("validated", REQUIRED),
                        ("issues", [])], {}),
    (SpanMatch, [("apex", REQUIRED), ("left", REQUIRED), ("right", REQUIRED), ("scores", REQUIRED)], {}),
    (Environment, [("typesides", {}), ("schemas", {}), ("models", {}), ("mappings", {}), ("order", []),
                   ("directives", [])], {}),
]
FROZEN = {App, Diagnostic, Issue, Collision, PathCaps, InversionBounds, SimilarityConfig}


def test_the_table_covers_every_converted_class():
    assert len(SIGNATURES) == 24
    assert not any(dataclasses.is_dataclass(cls) for cls, _, _ in SIGNATURES)


@pytest.mark.parametrize("cls, params, given", SIGNATURES, ids=[s[0].__name__ for s in SIGNATURES])
def test_constructors_keep_their_order_keywords_and_defaults(cls, params, given):
    values = {name: given.get(name, object()) for name, _ in params}
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for name, _ in params:
        assert getattr(by_position, name) is getattr(by_keyword, name) is values[name], name
    required = {name: values[name] for name, default in params if default is REQUIRED}
    first, second = cls(**required), cls(**required)
    for name, default in params:
        if default is not REQUIRED:
            assert getattr(first, name) == default, name
            assert type(getattr(first, name)) is type(default), name
            if isinstance(default, (list, dict)):  # each instance gets its own
                assert getattr(first, name) is not getattr(second, name), name


@pytest.mark.parametrize("build, message", [
    (lambda: PathCaps(max_depth=0), "path caps must be strictly positive"),
    (lambda: PathCaps(6, -1), "path caps must be strictly positive"),
    (lambda: InversionBounds(depth=0), "depth must be a positive integer, got 0"),
    (lambda: InversionBounds(0, 0), "depth must be a positive integer, got 0"),
    (lambda: InversionBounds(max_candidates=-2), "max_candidates must be a positive integer, got -2"),
    (lambda: SimilarityConfig(cutoff=1.5), "cutoff must lie in [0, 1], got 1.5"),
    (lambda: SimilarityConfig(-0.1), "cutoff must lie in [0, 1], got -0.1"),
])
def test_configs_reject_out_of_range_values(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("cls, params, given", [s for s in SIGNATURES if s[0] in FROZEN],
                         ids=[s[0].__name__ for s in SIGNATURES if s[0] in FROZEN])
def test_values_refuse_assignment_and_deletion(cls, params, given):
    obj = cls(**{name: given.get(name, object()) for name, _ in params})
    for name in [n for n, _ in params] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_application_equality_and_hash_are_structural():
    x = Var("x", N1)
    t, u = App(age, (App(f, (x,)),)), App(age, args=(App(f, (x,)),))
    assert t is not u and t == u and hash(t) == hash(u) == hash((age, (App(f, (x,)),)))
    assert t != App(age, (App(f, (Var("y", N1),)),))
    assert int_literal(7) == App(int_literal(7).sym) and int_literal(7) != int_literal(8)
    assert App.__eq__(t, x) is NotImplemented and t != x
    assert len({t, u, int_literal(7)}) == 2
    assert repr(t) == "age(f(x))"


def test_results_and_morphisms_take_new_attributes_and_weak_references():
    # a morphism holds the migration results its transpose used (`_held`),
    # and the migration memo holds results weakly
    results = [DeltaResult(*[None] * 6), SigmaResult(*[None] * 4), PiResult(*[None] * 9)]
    h = _held(InstanceMorphism(None, None, {}), *results)
    assert h._built == tuple(results)
    assert [weakref.ref(res)() for res in results] == results


def test_a_catq_process_loads_no_json_module():
    # the JSON renderer takes the C string encoder from `_json`, not from the `json` package
    src = str(Path(catq.cli.__file__).resolve().parent.parent)
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import catq.cli; " \
            "print(sorted(m for m in sys.modules if m.startswith('json')))"
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
