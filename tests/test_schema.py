"""Validators for typesides, schemas and instance presentations."""

import importlib
from functools import cached_property

from catq import (
    App,
    Equation,
    FunctionSymbol,
    INT,
    InstancePresentation,
    STRING,
    Schema,
    Sort,
    Var,
    builtin_typeside,
    elaborate,
    generator,
    ground_eq,
    int_literal,
    parse,
    replace,
    validate_instance,
    validate_schema,
    validate_typeside,
)
from catq import schema as schema_module
from catq.schema import instance_issues
from catq.terms import ATTRIBUTE, ENTITY, TYPE, TYPESIDE

from conftest import N1, N2, ap, attr, count_calls, fkey, merge_chain_instance


def codes(issues):
    return {i.code for i in issues}


def test_builtin_typeside_is_valid():
    assert validate_typeside(builtin_typeside()) == []


def test_typeside_rejects_bad_constants_and_open_equations():
    ts = replace(builtin_typeside(), constants=[
        FunctionSymbol("pair", (INT,), INT, TYPESIDE),
        FunctionSymbol("u", (), Sort("Missing", TYPE), TYPESIDE)])
    assert {"BadConstant", "UnknownSort"} <= codes(validate_typeside(ts))


def test_schema_validation_flags_misdirected_symbols():
    ts = builtin_typeside()
    bad_attr = FunctionSymbol("oops", (INT,), STRING, ATTRIBUTE)
    sch = Schema("B", ts, [N1], [bad_attr], [])
    assert "TypeToEntityFunction" in codes(validate_schema(sch))


def test_schema_validation_flags_duplicates():
    ts = builtin_typeside()
    sch = Schema("D", ts, [N1, N1], [attr("a", N1, INT), attr("a", N1, INT)], [])
    assert "DuplicateName" in codes(validate_schema(sch))


def test_schema_constraint_shape(schema_s):
    x, y = Var("x", N1), Var("y", N1)
    f = schema_s.symbol_named("f")
    good = Equation((x,), App(f, (x,)), App(f, (x,)))
    sch = Schema("C", schema_s.typeside, list(schema_s.entities),
                 list(schema_s.attributes), list(schema_s.foreign_keys), [good])
    assert validate_schema(sch) == []
    two_vars = Equation((x, y), App(f, (x,)), App(f, (y,)))
    assert "BadConstraintShape" in codes(validate_schema(replace(sch, constraints=[two_vars])))


def test_instance_validation(schema_s):
    g = generator("e", N1)
    inst = InstancePresentation("I", schema_s, [g], [
        ground_eq(ap(schema_s.symbol_named("salary"), g), int_literal(1))])
    assert validate_instance(inst) == []

    foreign = attr("ghost", N1, INT)
    bad = InstancePresentation("B", schema_s, [g], [
        ground_eq(App(foreign, (App(g),)), int_literal(1))])
    assert "UnknownSymbol" in codes(validate_instance(bad))

    shadow = InstancePresentation("S", schema_s, [generator("name", N1)], [])
    assert "DuplicateName" in codes(validate_instance(shadow))


def test_instance_validation_is_the_schemas_then_the_instances_own(schema_s):
    # an attribute from an undeclared entity, and a generator shadowing the schema's symbol
    loose = Schema("L", schema_s.typeside, [N1], [attr("name", N1, STRING), attr("age", N2, INT)])
    inst = InstancePresentation("I", loose, [generator("name", N1)])
    issues = [(i.code, i.message) for i in validate_instance(inst)]
    assert issues == [(i.code, i.message) for i in validate_schema(loose) + instance_issues(inst)] == [
        ("TypeToEntityFunction", "attribute age must go from an entity"),
        ("DuplicateName", "generator name shadows another declaration")]


def test_the_elaborator_validates_each_schema_once(monkeypatch):
    elaborate_module = importlib.import_module("catq.elaborate")  # `catq.elaborate` is the function
    text = """typeside Ty = literal { }
schema S = literal : Ty {
    entities Emp
    attributes name : Emp -> String
}
instance I = literal : S { generators a : Emp }
instance J = literal : S { generators b c : Emp  equations name(b) = Bob }
"""
    run = lambda: elaborate(parse(text)[0])  # noqa: E731
    assert count_calls(monkeypatch, elaborate_module, "validate_schema", run) == 1
    assert count_calls(monkeypatch, schema_module, "validate_schema", run) == 0
    env, diags = run()
    assert diags == [] and sorted(env.models) == ["I", "J"]


def test_generator_may_not_shadow_a_typeside_constant(schema_s):
    color = Sort("Color", TYPE)
    red, blue = (FunctionSymbol(n, (), color, TYPESIDE) for n in ("red", "blue"))
    ts = replace(schema_s.typeside, types=schema_s.typeside.types + (color,), constants=[red, blue])
    sch = replace(schema_s, typeside=ts)
    shadow = InstancePresentation("S", sch, [generator("red", color)], [])
    assert [(i.code, i.message) for i in validate_instance(shadow)] == \
        [("DuplicateName", "generator red shadows another declaration")]
    assert validate_instance(replace(shadow, generators=[generator("green", color)])) == []


def test_symbols_on_order(schema_s):
    names = [f.name for f in schema_s.symbols_on(N1)]
    assert names == ["f", "name", "salary"]  # foreign keys first, then attributes


def test_symbol_lookups_neither_copy_nor_compare_declared_symbols(schema_s, monkeypatch):
    # `symbols` is computed once per schema, and the lookups built from it
    # find a declared symbol by identity
    reads = 0
    symbols = Schema.symbols.func

    def counting(self):
        nonlocal reads
        reads += 1
        return symbols(self)

    computed_once = cached_property(counting)
    computed_once.__set_name__(Schema, "symbols")
    monkeypatch.setattr(Schema, "symbols", computed_once)
    sch = replace(schema_s)  # nothing computed yet
    declared = sch.foreign_keys + sch.attributes
    eqs = count_calls(monkeypatch, FunctionSymbol, "__eq__", lambda: [
        (sch.owns_symbol(f), sch.symbol_named(f.name), sch.symbols_on(f.arg_sorts[0]), sch.symbols)
        for f in declared])
    assert eqs == 0 and reads == 1
    assert all(sch.symbol_named(f.name) is f and sch.owns_symbol(f) for f in declared)
    assert sch.owns_symbol(attr("age", N2, INT))  # equal but not identical
    assert not sch.owns_symbol(attr("age", N1, INT))
    assert reads == 1


def test_validate_instance_work_grows_linearly(monkeypatch):
    # symbols are checked against sets, not scanned in lists; a set lookup
    # hashes the symbol and compares it at most once, a list scan compares
    # it with every element
    calls = {}
    for m in (100, 400):
        inst = merge_chain_instance(m, 0)
        calls[m] = sum(count_calls(monkeypatch, FunctionSymbol, name,
                                   lambda: validate_instance(inst))
                       for name in ("__eq__", "__hash__"))
        assert validate_instance(inst) == []
    # 4x the records: linear work grows 4x, a list scan 15x
    assert calls[400] < 8 * calls[100]
