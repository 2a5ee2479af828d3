"""Exception types shared across the library."""


class CatqError(Exception):
    """Base class for all catq errors."""


class SortMismatch(CatqError):
    """A term or equation is not well-sorted."""


class UnboundVariable(CatqError):
    """A substitution was asked to replace a variable it has no binding for."""


class UnknownSymbol(CatqError):
    """A term references a symbol outside the theory's signature."""


class ResourceLimit(CatqError):
    """A saturation or search exceeded one of its bounds: a constant, or a value set by option or environment."""


class InvariantViolation(CatqError):
    """An internal invariant of an engine failed: a bug, not a property of the input."""


class SchemaMismatch(CatqError):
    """Two objects that must live over the same schema (or composable schemas) do not."""


class NoMorphismExists(CatqError):
    """A canonical morphism construction has no valid image for some class."""


class NoPathForSymbol(CatqError):
    """Schema matching found no target symbol or path for a source symbol."""


class ReadOnlyError(AttributeError):
    """An attribute of a read-only value was assigned or deleted.

    A fault of the calling code, not of its input, so not a `CatqError`.
    """
