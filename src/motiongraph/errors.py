"""Exception types shared across the engine, the integer test of every
integer field, and the decoder every engine file goes through, which reports
a malformed file as one of them."""

from __future__ import annotations

import json
import numbers
from typing import Any, Callable


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


def read_document(data, what: str, fmt: str | None, build: Callable[[Any], Any]):
    """Decode an engine file's bytes, read or mapped: UTF-8 JSON, its ``format``
    tag unless ``fmt`` is None, then ``build(doc)``. Any failure, including a
    field that ``build`` finds missing or mistyped, raises GraphParseError naming ``what``."""
    try:
        doc = json.loads(str(data, "utf-8"))
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
