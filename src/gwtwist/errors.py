"""Domain exceptions shared across the engine, and its refusal of floats.

Every error carries optional structured context (a curve class, a degree, a
serialized residual) so the command-line layer can emit machine-readable
failure reports without string parsing.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path


def _exact(x) -> Fraction:
    """x as a Fraction; a float is refused, its binary value not being exact."""
    if isinstance(x, float):
        raise TypeError(f"float {x!r} in exact arithmetic; use an int, Fraction or string")
    return Fraction(x)


class EngineError(Exception):
    """Base class for all domain failures raised by this package."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def payload(self) -> dict:
        """JSON-ready description of the failure.

        ``module`` is the file stem of the innermost traceback frame, i.e.
        the module that raised the error (None for an error never raised).
        """
        out = {
            "error": type(self).__name__,
            "module": _raising_module(self.__traceback__),
            "message": str(self),
        }
        for key in sorted(self.context):
            out[key] = _jsonable(self.context[key])
        return out


def _raising_module(tb):
    if tb is None:
        return None
    while tb.tb_next is not None:
        tb = tb.tb_next
    return Path(tb.tb_frame.f_code.co_filename).stem


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "numerator") and hasattr(value, "denominator") and not isinstance(value, int):
        return f"{value.numerator}/{value.denominator}"
    return value


class SpaceMismatch(EngineError):
    """Operands belong to different ambient spaces."""


class TruncationMismatch(EngineError):
    """Series operands carry different truncation orders."""


class NonInvertible(EngineError):
    """Laurent element has no scalar part: every hbar coefficient is nilpotent."""


class Unclassifiable(EngineError):
    """Line-bundle multidegree is neither nonnegative nor strictly negative."""


class Unsupported(EngineError):
    """Input is valid but outside the supported computational scope."""


class StructureViolation(EngineError):
    """Series lacks the two-level structure the normalizer relies on, or an
    hbar-Laurent element would mix total degrees."""


class Infeasible(EngineError):
    """The closed-form dials leave a residual that no dial reaches."""


class DegreeOutOfScope(EngineError):
    """Fixed-point graph sums are only shipped for degrees 1 and 2."""


class WeightCollision(EngineError):
    """Drawn torus weights made a graph denominator vanish; redraw."""
