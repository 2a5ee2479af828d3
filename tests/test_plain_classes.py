"""Start-up cost and the plainly written classes.

`@dataclass` generates a class's methods by `exec` when its module is
imported, and `dataclasses` loads `inspect` and `ast`, so no class of
catq is a dataclass.  Every class is a plain `__init__`; a value among
them shares the read-only guard `terms.ReadOnly`, and the theory values
read their equality, hash, repr and `__replace__` from `terms.Record`.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest

import catq.cli  # noqa: F401  (what a `catq` process imports)
from catq import INT, STRING, App, Var, builtin_typeside, enumerate_paths, generator, ground_eq, int_literal, replace
from catq.elaborate import Environment
from catq.mappings import InstanceMorphism, Mapping
from catq.matcher import CandidateMapping, SimilarityConfig, SpanMatch
from catq.migrate import (
    DeltaResult,
    InversionBounds,
    MigrationResult,
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
    RawTerm,
    SchemaDecl,
    TypesideDecl,
)
from catq.schema import InstancePresentation, Issue, Schema, Typeside
from catq.terms import Equation, FunctionSymbol, Record, Sort

from conftest import N1, N2, attr, fkey

DATACLASSES: set[str] = set()


def test_only_the_kept_classes_are_dataclasses():
    found = {f"{cls.__module__}.{cls.__qualname__}"
             for name, mod in list(sys.modules.items()) if name == "catq" or name.startswith("catq.")
             for cls in vars(mod).values()
             if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


REQUIRED = object()
f = fkey("f", N1, N2)
age = attr("age", N2, INT)
x = Var("x", N1)
EMPTY = MappingProxyType({})

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
    (PathSet, [("source", REQUIRED), ("target", REQUIRED), ("chains", REQUIRED), ("truncated", False)], {}),
    (MigrationResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED)], {}),
    (DeltaResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED),
                   ("ent_class", REQUIRED), ("ty_class", REQUIRED), ("to_target", REQUIRED)], {}),
    (SigmaResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED),
                   ("gen_map", REQUIRED)], {}),
    (PiResult, [("mapping", REQUIRED), ("input", REQUIRED), ("model", REQUIRED), ("index", REQUIRED),
                ("families", REQUIRED), ("fam_class", REQUIRED), ("fam_of", REQUIRED),
                ("ty_class", REQUIRED), ("ty_origin", REQUIRED)], {}),
    (InversionBounds, [("depth", 3)], {"depth": 2}),
    (SimilarityConfig, [("cutoff", 0.5)], {"cutoff": 0.25}),
    (CandidateMapping, [("mapping", REQUIRED), ("scores", REQUIRED), ("validated", REQUIRED),
                        ("issues", [])], {}),
    (SpanMatch, [("apex", REQUIRED), ("left", REQUIRED), ("right", REQUIRED), ("scores", REQUIRED)], {}),
    (Environment, [("typesides", {}), ("schemas", {}), ("models", {}), ("mappings", {}), ("order", []),
                   ("directives", [])], {}),
]
# the classes that were dataclasses: they read equality, hash, repr and `__replace__` from `Record`
RECORDS = [
    (Sort, [("name", REQUIRED), ("kind", REQUIRED)], {}),
    (FunctionSymbol, [("name", REQUIRED), ("arg_sorts", REQUIRED), ("out_sort", REQUIRED), ("flavor", REQUIRED)],
     {}),
    (Var, [("name", REQUIRED), ("sort", REQUIRED)], {}),
    (Equation, [("free", REQUIRED), ("lhs", REQUIRED), ("rhs", REQUIRED)],
     {"free": (x,), "lhs": App(f, (x,)), "rhs": App(f, (x,))}),
    (Typeside, [("name", REQUIRED), ("types", (STRING, INT)), ("constants", ()), ("equations", ())],
     {"types": (INT,), "constants": (), "equations": (ground_eq(int_literal(1), int_literal(1)),)}),
    (Schema, [("name", REQUIRED), ("typeside", REQUIRED), ("entities", ()), ("attributes", ()),
              ("foreign_keys", ()), ("constraints", ())],
     {"entities": (N1, N2), "attributes": (age,), "foreign_keys": (f,), "constraints": ()}),
    (InstancePresentation, [("name", REQUIRED), ("schema", REQUIRED), ("generators", ()), ("equations", ())],
     {"generators": (), "equations": ()}),
    (Mapping, [("name", REQUIRED), ("source", REQUIRED), ("target", REQUIRED), ("entity_map", EMPTY),
               ("symbol_map", EMPTY)], {"entity_map": {N1: N1}, "symbol_map": {f: (x, f)}}),
    (RawTerm, [("name", REQUIRED), ("span", REQUIRED), ("args", []), ("quoted", False)], {}),
]
SIGNATURES += RECORDS
FROZEN = {App, Diagnostic, Issue, Collision, InversionBounds, SimilarityConfig} | \
    {cls for cls, _, _ in RECORDS if cls is not RawTerm}
# fields a constructor stores as a read-only copy of the dict given, not as given
COPIED = {(Mapping, "entity_map"), (Mapping, "symbol_map")}


def test_the_table_covers_every_converted_class():
    assert len(SIGNATURES) == 32
    assert not any(dataclasses.is_dataclass(cls) for cls, _, _ in SIGNATURES)
    assert [cls for cls, _, _ in SIGNATURES if issubclass(cls, Record)] == [cls for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, params, given", SIGNATURES, ids=[s[0].__name__ for s in SIGNATURES])
def test_constructors_keep_their_order_keywords_and_defaults(cls, params, given):
    values = {name: given.get(name, object()) for name, _ in params}
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for name, _ in params:
        if (cls, name) in COPIED:
            assert getattr(by_position, name) == getattr(by_keyword, name) == values[name], name
            assert getattr(by_position, name) is not values[name], name
        else:
            assert getattr(by_position, name) is getattr(by_keyword, name) is values[name], name
    required = {name: values[name] for name, default in params if default is REQUIRED}
    first, second = cls(**required), cls(**required)
    for name, default in params:
        if default is not REQUIRED:
            assert getattr(first, name) == default, name
            assert type(getattr(first, name)) is type(default), name
            if isinstance(default, (list, dict)):  # each instance gets its own
                assert getattr(first, name) is not getattr(second, name), name


LOOP = Schema("L", builtin_typeside(), [N1], [], [fkey("nxt", N1, N1)])


@pytest.mark.parametrize("build, message", [
    (lambda: enumerate_paths(LOOP, N1, N1, max_depth=0), "path caps must be strictly positive"),
    (lambda: enumerate_paths(LOOP, N1, N1, 6, -1), "path caps must be strictly positive"),
    (lambda: InversionBounds(depth=0), "depth must be a positive integer, got 0"),
    (lambda: InversionBounds(0), "depth must be a positive integer, got 0"),
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


@pytest.mark.parametrize("cls, params, given", RECORDS, ids=[s[0].__name__ for s in RECORDS])
def test_records_compare_hash_show_and_replace_by_their_fields(cls, params, given):
    assert cls._fields == tuple(name for name, _ in params)
    values = {name: given.get(name, object()) for name, _ in params}
    a, b = cls(**values), cls(**values)
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented and a != object()
    if cls is RawTerm:  # a field is a list
        with pytest.raises(TypeError):
            hash(a)
    elif cls is Mapping:  # its fields are dict views, hashed as sets of items
        assert hash(a) == hash(b)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in cls._fields))
    if cls.__repr__ is Record.__repr__:
        shown = ", ".join(f"{n}={getattr(a, n)!r}" for n in cls._fields)
        assert repr(a) == f"{cls.__qualname__}({shown})"
    # `replace` builds anew by the constructor, keeping every field it is not given
    assert replace(a) is not a and replace(a) == a.__replace__() == a
    for name, _ in params:
        if name in given:
            continue
        c = replace(a, **{name: object()})
        assert type(c) is cls and c != a and getattr(c, name) is not getattr(a, name)
        assert all(getattr(c, n) is getattr(a, n) for n in cls._fields if n != name and (cls, n) not in COPIED)
    with pytest.raises(TypeError):
        replace(a, no_such_field=1)


def test_replace_refuses_what_has_no_replace():
    with pytest.raises(TypeError):
        replace(int_literal(7))


def test_theory_values_survive_copy_and_pickle(schema_s, mapping_f):
    a = generator("a", N1)
    inst = InstancePresentation("I", schema_s, [a])
    eq = ground_eq(App(age, (App(f, (App(a),)),)), int_literal(7))
    with_eqs = replace(inst, equations=[eq])
    # nxt(nxt(x)) = x
    nxt = fkey("nxt", N1, N1)
    constrained = replace(schema_s, foreign_keys=[f, nxt],
                          constraints=[Equation((x,), App(nxt, (App(nxt, (x,)),)), x)])
    for v in (N1, f, Var("x", N1), schema_s.typeside, schema_s, inst,
              int_literal(7), eq.lhs, eq, with_eqs, constrained, mapping_f):
        assert copy.copy(v) == v and copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v
        assert hash(copy.deepcopy(v)) == hash(pickle.loads(pickle.dumps(v))) == hash(v)
    # a mapping's maps stay read-only, and equal mappings hash equal whatever order their maps were given in
    for c in (copy.deepcopy(mapping_f), pickle.loads(pickle.dumps(mapping_f))):
        assert type(c.entity_map) is type(c.symbol_map) is MappingProxyType
    reordered = Mapping(mapping_f.name, mapping_f.source, mapping_f.target,
                        dict(reversed(mapping_f.entity_map.items())), dict(reversed(mapping_f.symbol_map.items())))
    assert list(reordered.symbol_map) != list(mapping_f.symbol_map)
    assert reordered == mapping_f and hash(reordered) == hash(mapping_f)
    # the slotted values compare by identity: their copies are built anew with equal fields
    for v in (Issue("E1", "m"), Collision(INT, "20", "30", 4), Diagnostic("error", "E2", "m"),
              SimilarityConfig(0.3), InversionBounds(2)):
        for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert type(c) is type(v) and c is not v
            assert [getattr(c, n) for n in type(v).__slots__] == [getattr(v, n) for n in type(v).__slots__]


def test_an_unpickled_term_hashes_as_one_built_in_its_own_process():
    # string hashes differ between processes, so a term must compute its hash anew when unpickled
    src = str(Path(catq.cli.__file__).resolve().parent.parent)
    dump = "import pickle, sys; sys.path.insert(0, sys.argv[1]); from catq import string_literal; " \
           "sys.stdout.write(pickle.dumps(string_literal('ab')).hex())"
    load = "import pickle, sys; sys.path.insert(0, sys.argv[1]); from catq import string_literal; " \
           "t = pickle.loads(bytes.fromhex(sys.stdin.read())); " \
           "print(t == string_literal('ab') and hash(t) == hash(string_literal('ab')))"
    run = [sys.executable, "-I", "-c"]
    pickled = subprocess.run(run + [dump, src], capture_output=True, text=True, check=True,
                             env={"PYTHONHASHSEED": "1"}).stdout
    done = subprocess.run(run + [load, src], input=pickled, capture_output=True, text=True, check=True,
                          env={"PYTHONHASHSEED": "2"})
    assert done.stdout == "True\n"


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


def test_a_catq_process_loads_no_dataclass_machinery():
    # `dataclasses` loads `inspect`, and `inspect` loads `ast`, `dis` and `tokenize`
    src = str(Path(catq.cli.__file__).resolve().parent.parent)
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import catq.cli; " \
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
