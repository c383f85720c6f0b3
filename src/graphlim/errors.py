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
# JSON names of the Python types a config document decodes to.
_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}


def _json_types(types) -> str:
    names = [_JSON_NAMES.get(t, t.__name__) for t in types]
    if "integer" in names and "number" in names:
        names.remove("integer")
    return " or ".join(names)


def config_field(doc: dict, field: str, types, default=_REQUIRED):
    """``doc[field]``, checked against ``types``; raises ConfigError naming the field.

    A field without a ``default`` is required. JSON ``true``/``false`` do not
    count as numbers: a bool passes only where ``types`` names ``bool`` itself.
    The message names JSON types: ``expected number, got boolean``.
    """
    if field not in doc:
        if default is _REQUIRED:
            raise ConfigError(field, "missing")
        return default
    value = doc[field]
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ConfigError(field, f"expected {_json_types(allowed)}, got {got}")
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
