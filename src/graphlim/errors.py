"""Exception types shared across the package, and the config field reader.

Invalid arguments raise the built-in ValueError; the classes here cover
failures that callers may want to catch separately.
"""


class ConfigError(ValueError):
    """A field of a config or spec document is missing or has the wrong type."""

    def __init__(self, field, message):
        super().__init__(f"field {field!r}: {message}")
        self.field = field


def config_field(doc: dict, field: str, types, required: bool = True, default=None):
    """``doc[field]``, checked against ``types``; raises ConfigError naming the field."""
    if field not in doc:
        if required:
            raise ConfigError(field, "missing")
        return default
    value = doc[field]
    if types is not None and not isinstance(value, types):
        raise ConfigError(field, f"expected {types}, got {type(value).__name__}")
    return value


class NumericError(RuntimeError):
    """A computation produced a non-finite value.

    Carries the offending node index and/or the integration time when known.
    """

    def __init__(self, message, node=None, time=None):
        super().__init__(message)
        self.node = node
        self.time = time


class SizeLimitError(ValueError):
    """A problem instance exceeds a documented size bound."""


class DegenerateFiberError(ValueError):
    """A fiber construction produced empty fibers.

    ``nodes`` lists the indices whose fibers came out empty.
    """

    def __init__(self, message, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)
