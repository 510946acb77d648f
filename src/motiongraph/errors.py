"""Exception types shared across the engine, the number tests and the rules of
every integer, real, real-array and string field and of every 1-D column, and
the decoder every engine file goes through, which reports a malformed file as
one of them."""

from __future__ import annotations

import json
import math
import numbers
from typing import Any, Callable

import numpy as np


class MotionGraphError(Exception):
    """Base class for all engine errors."""


class ValidationError(MotionGraphError):
    """An input value violates a documented precondition."""


class StructuralError(MotionGraphError):
    """Containers that must agree in shape or length do not."""


class GraphParseError(MotionGraphError):
    """A serialized graph (or other engine file) could not be decoded.

    ``offset`` is the byte offset of the first undecodable position when
    known, else -1.
    """

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


class SegmentUnreachableError(MotionGraphError):
    """No path candidate satisfies a target segment's feature + duration gate.

    ``segment`` is the index s of the failing segment (0-based over the
    segment list).
    """

    def __init__(self, segment: int, message: str = ""):
        self.segment = segment
        super().__init__(message or f"segment {segment} is unreachable")


class AssemblyError(MotionGraphError):
    """A path cannot be turned into an edit decision list."""


def is_integer(value) -> bool:
    """An int or numpy integer, not a bool: a fraction is refused, never truncated."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int, float or numpy number that is not a bool or complex."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer(name: str, value, low: int) -> int:
    """``value`` as a Python int if it ``is_integer`` and is >= ``low``, else ValidationError."""
    if not (is_integer(value) and value >= low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def integers(name: str, values, low: int) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints if each one ``is_integer`` and is >= ``low``,
    else the ValidationError of ``integer`` for the first that is not. A tuple of ints is
    checked in one pass; the per-entry message is built only on failure."""
    values = tuple(values)
    if not (set(map(type, values)) <= {int} and min(values, default=low) >= low):
        values = tuple(integer(name, v, low) for v in values)
    return values


def real(name: str, value, low: float | None = None, above: bool = False) -> float:
    """``value`` as a Python float if it ``is_real``, is finite and is >= ``low``
    (> ``low`` with ``above``), else ValidationError: a string or bool is refused,
    never converted."""
    try:
        number = float(value) if is_real(value) else math.inf
    except OverflowError:  # an int beyond the float range
        number = math.inf
    bounded = low is None or (number > low if above else number >= low)
    if not (math.isfinite(number) and bounded):
        rule = "finite" if low is None else f"a finite number {'>' if above else '>='} {low}"
        raise ValidationError(f"{name} must be {rule}, got {value!r}")
    return number


def reals(name: str, value, shape: tuple[int | None, ...]) -> np.ndarray:
    """``value`` as a float64 array if ``np.asarray`` makes it an int, uint or float
    array of ``shape`` (``None`` matches any length) with every entry finite, else
    ValidationError: a bool or string entry is refused, never converted. A float64
    array is returned uncopied; the message never formats it."""
    try:
        array = np.asarray(value)
    except ValueError:
        problem = "a ragged nesting"
    else:
        if array.dtype.kind not in "iuf":
            problem = f"dtype {array.dtype}"
        elif _bool_entry(value):
            problem = "a boolean entry"
        elif array.ndim != len(shape) or any(
                n not in (None, m) for n, m in zip(shape, array.shape)):
            problem = f"shape {array.shape}"
        elif not np.isfinite(array).all():
            problem = "nan, inf or -inf"
        else:
            return array.astype(np.float64, copy=False)
    raise ValidationError(f"{name} must be a finite real array of shape {shape}, got {problem}")


def _bool_entry(values) -> bool:
    """Whether ``values``, unless an array (whose dtype says it), holds a bool at any
    depth: ``np.asarray([0.0, True])`` is float64, so a list's own entries are looked at."""
    return not isinstance(values, np.ndarray) and not {bool, np.bool_}.isdisjoint(
        map(type, np.asarray(values, dtype=object).flat))


#: Per column dtype kind, the dtype kinds it is made from without rounding or parsing
#: (a str column takes any and compares what it stores instead), and what it holds.
_COLUMN_KINDS = {"b": ("b", "bools"), "i": ("iu", "integers within int64"),
                 "f": ("iuf", "real numbers"), "U": (None, "strings")}


def column(name: str, values, dtype) -> np.ndarray:
    """``values`` as a 1-D column of ``dtype`` (bool, int64, float64 or str) if they are a
    1-D array or list that it holds unchanged, or an empty one, else ``<name> must be a 1-D
    column of <kind>, got <problem>`` (ValidationError), the problem being a ragged nesting,
    the shape, the dtype or a boolean entry in a number column. A str column refuses the
    first entry it would change, a non-string or a word ending in NUL, with ``<name> <entry>
    would be stored as <stored>``. An array of ``dtype`` is returned uncopied."""
    dtype = np.dtype(dtype)
    kinds, wanted = _COLUMN_KINDS[dtype.kind]
    try:
        array = np.asarray(values)
    except ValueError:
        problem = "a ragged nesting"
    else:
        if array.ndim != 1:
            problem = f"shape {array.shape}"
        elif kinds and array.size and not (
                array.dtype.kind in kinds and np.can_cast(array.dtype, dtype)):
            problem = f"dtype {array.dtype}"
        elif dtype.kind in "if" and _bool_entry(values):
            problem = "a boolean entry"
        else:
            stored = array.astype(dtype, copy=False)
            changed = kinds is None and next(
                ((v, s) for v, s in zip(values, stored.tolist()) if v != s), None)
            if not changed:
                return stored
            raise ValidationError("{} {!r} would be stored as {!r}".format(name, *changed))
    raise ValidationError(f"{name} must be a 1-D column of {wanted}, got {problem}")


def string(name: str, value) -> str:
    """``value`` if it is a str, else ValidationError: a number is refused, never converted."""
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def read_document(data, what: str, fmt: str | None, build: Callable[[Any], Any]):
    """Decode the bytes of an engine file, or of a graph file's header line:
    strict UTF-8 JSON (``NaN`` and ``Infinity`` are no JSON numbers), its
    ``format`` tag unless ``fmt`` is None, then ``build(doc)``. Any failure,
    including a field that ``build`` finds missing or mistyped, raises
    GraphParseError naming ``what``."""

    def refuse(token):
        raise GraphParseError(f"{what} is not valid JSON: {token} is not a JSON number")

    try:
        doc = json.loads(str(data, "utf-8"), parse_constant=refuse)
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{what} is not UTF-8: {exc}", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[: exc.pos].encode("utf-8"))
        raise GraphParseError(f"{what} is not valid JSON: {exc}", offset=offset) from exc
    if fmt is not None and (not isinstance(doc, dict) or doc.get("format") != fmt):
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise GraphParseError(f"{what} has format {found!r}, expected {fmt!r}")
    try:
        return build(doc)
    except KeyError as exc:
        raise GraphParseError(f"{what} is malformed: missing field {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError,
            MotionGraphError) as exc:
        raise GraphParseError(f"{what} is malformed: {exc}") from exc
