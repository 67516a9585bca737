"""Exception hierarchy shared by all amalgam modules."""


class AmalgamError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AmalgamError):
    """Malformed or inconsistent configuration (dimensions, JSON, parameters)."""

    def __init__(self, message: str, pointer: str | None = None):
        where = "" if pointer is None else f" (at {pointer or 'the root'})"
        super().__init__(message + where)
        self.message = message
        self.pointer = pointer


def pointer_token(key: str) -> str:
    """A JSON object key escaped as one JSON-pointer reference token."""
    return key.replace("~", "~0").replace("/", "~1")


class StructureError(AmalgamError):
    """Algebraic structure violated: element outside span, B not inside A, etc."""


class CapacityError(AmalgamError):
    """A computation would exceed a configured size cap."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class HypothesisError(AmalgamError):
    """A norm inequality was requested for data violating its hypothesis."""


class TruncationError(AmalgamError):
    """An identity was requested on a domain where truncation invalidates it."""
