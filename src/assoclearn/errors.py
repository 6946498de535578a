"""Exception types shared across the package. Training raises the same
one in every mode: a pipelined epoch re-raises its stage's own."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class StateError(RuntimeError):
    """An operation was called in the wrong order (e.g. backward without a
    prior training-mode forward)."""


class NumericError(ArithmeticError):
    """A computation produced NaN or Inf, or otherwise diverged."""


class PlanError(ValueError):
    """A network dimension plan is inconsistent."""


class DataError(ValueError):
    """Base class for dataset ingestion problems."""


class BadMagicError(DataError):
    """An IDX file does not start with the expected magic number."""


class TruncatedFileError(DataError):
    """An input file (IDX or checkpoint) ended before what it declares."""


class CountMismatchError(DataError):
    """Image file and label file declare different record counts."""


class GeometryError(ValueError):
    """Class-geometry statistics are undefined for the given inputs."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""
