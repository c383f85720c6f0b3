"""Exception types shared across the package, and the config field reader.

Invalid arguments raise the built-in ValueError; the classes here cover
failures that callers may want to catch separately.
"""


class ConfigError(ValueError):
    """A field of a config or spec document is missing or has the wrong type."""

    def __init__(self, field, message):
        super().__init__(f"field {field!r}: {message}")
        self.field = field


_REQUIRED = object()


def config_field(doc: dict, field: str, types, default=_REQUIRED):
    """``doc[field]``, checked against ``types``; raises ConfigError naming the field.

    A field without a ``default`` is required. JSON ``true``/``false`` do not
    count as numbers: a bool passes only where ``types`` names ``bool`` itself.
    """
    if field not in doc:
        if default is _REQUIRED:
            raise ConfigError(field, "missing")
        return default
    value = doc[field]
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
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
