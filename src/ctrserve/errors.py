"""Exception types shared across the package."""


class CtrServeError(Exception):
    """Base class for all package errors; raised itself for data that cannot
    be fitted (a constant column, a near-singular X^T X, a divergent descent)."""


class ParseError(CtrServeError):
    """Malformed input file (names the offending line/field), or a model
    file that is corrupt or has an unsupported version."""


class ValidationError(CtrServeError):
    """A record violates a domain invariant."""


class MappingError(CtrServeError):
    """A keyword cannot be resolved through a keyword map."""


class EncodingError(ValidationError):
    """A categorical label has no registered numeric code."""


class ContractError(CtrServeError):
    """Caller passed arguments of the wrong shape or schema."""
