"""Exception hierarchy shared across the package."""


class BalexError(Exception):
    """Base class for all balex errors."""


class ShapeError(BalexError, ValueError):
    """An input bit string has the wrong length or is out of range."""


class ParameterError(BalexError, ValueError):
    """A parameter is outside its documented domain."""


class IndexRangeError(BalexError, IndexError):
    """An index into a list, space or block is outside its range."""


class CapacityError(BalexError, RuntimeError):
    """An exhaustive enumeration would exceed the configured budget.

    Raised loudly instead of silently falling back to sampling.
    """


class FormatError(BalexError, ValueError):
    """A serialized artifact (graph file, descriptor, list file) is malformed."""


class BackendError(BalexError, TypeError):
    """The operation is not supported by this graph backend."""


class InvariantError(BalexError, AssertionError):
    """An internal counting invariant failed; this always indicates a bug."""


class OracleRefusalError(BalexError, RuntimeError):
    """A complexity oracle refused a query whose counting bound it cannot certify."""
