"""Exception types shared across the package."""


class CtrServeError(Exception):
    """Base class for all package errors."""


class ParseError(CtrServeError):
    """Malformed input file (names the offending line/field)."""


class ValidationError(CtrServeError):
    """A record violates a domain invariant."""


class MappingError(CtrServeError):
    """A keyword cannot be resolved through a keyword map."""


class EncodingError(ValidationError):
    """A categorical label has no registered numeric code."""


class DegenerateFeatureError(CtrServeError):
    """A feature column is constant and cannot be scaled or regressed."""


class SingularMatrixError(CtrServeError):
    """The normal-equation system is rank deficient."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class DivergenceError(CtrServeError):
    """Gradient descent produced a non-finite cost."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class ContractError(CtrServeError):
    """Caller passed arguments of the wrong shape or schema."""


class ModelLoadError(CtrServeError):
    """Model stream is corrupt or has an unsupported version."""
