"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DynwireError(Exception):
    """Base class for all domain errors raised by dynwire."""


class SizeMismatchError(DynwireError):
    """A finite-set map or vector has an incompatible size."""


class SchemaError(DynwireError):
    """A schema, instance, or schema functor is structurally ill-formed."""


class NaturalityError(DynwireError):
    """An instance morphism fails to commute with a part map."""


class GluingError(DynwireError):
    """An induced part map of an instance pushout is ill-defined."""


class DiagramError(DynwireError):
    """A wiring diagram instance fails validation."""


class ArityError(DynwireError):
    """A box signature does not match the model or inner diagram plugged into it."""


class KindError(DynwireError):
    """Continuous and discrete systems were mixed, or the wrong kind was supplied."""


class ExprSyntaxError(DynwireError):
    """Expression text failed to parse."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        choices = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at offset {offset}{choices}")
        self.offset = offset
        self.expected = expected


class ExprEvalError(DynwireError):
    """Expression evaluation hit an unbound name or a numeric domain error."""


class ModelSpecError(DynwireError):
    """A model specification is inconsistent."""


class ConfigError(DynwireError):
    """A simulation configuration is inconsistent with the composed system."""
