"""catq: algebraic model management.

Schemas and instances are equational theories; instance semantics are
term models (initial algebras) computed by congruence-closure
saturation; schema mappings are derived signature morphisms; and the
three data-migration functors delta, sigma and pi come with their full
adjunction structure (units, counits and mates).
"""

from .errors import (
    CatqError,
    InvariantViolation,
    NoMorphismExists,
    NoPathForSymbol,
    ReadOnlyError,
    ResourceLimit,
    SchemaMismatch,
    SortMismatch,
    UnboundVariable,
    UnknownSymbol,
)
from .terms import (
    ATTRIBUTE,
    ENTITY,
    FOREIGN_KEY,
    GENERATOR,
    LITERAL,
    TYPE,
    TYPESIDE,
    App,
    Equation,
    FunctionSymbol,
    INT,
    STRING,
    Sort,
    Term,
    Var,
    ground_eq,
    int_literal,
    literal,
    replace,
    string_literal,
)
from .schema import (
    InstancePresentation,
    Issue,
    Schema,
    Typeside,
    builtin_typeside,
    empty_instance,
    generator,
    validate_instance,
    validate_schema,
    validate_typeside,
)
from .model import (
    Collision,
    TermModel,
    build_term_model,
    check_consistency,
)
from .mappings import (
    InstanceMorphism,
    Mapping,
    compose_mappings,
    identity_mapping,
    identity_morphism,
    mappings_equal,
    morphism_from_genmap,
    validate_mapping,
)
from .migrate import (
    DeltaResult,
    InversionBounds,
    PiResult,
    SigmaResult,
    coproduct,
    counit_pi,
    counit_sigma,
    delta,
    enumerate_morphisms,
    enumerate_paths,
    instances_isomorphic,
    invert_mapping,
    pi,
    sigma,
    transpose_pi_down,
    transpose_pi_up,
    transpose_sigma_down,
    transpose_sigma_up,
    unit_pi,
    unit_sigma,
)
from .matcher import (
    CandidateMapping,
    MatchResult,
    SimilarityConfig,
    SpanMatch,
    match_mapping,
    match_span,
    similarity,
)
from .parser import Diagnostic, Program, SourceSpan, parse, pretty_print
from .elaborate import Environment, elaborate
from .render import render_mapping, render_model

__version__ = "0.1.0"
