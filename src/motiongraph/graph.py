"""The video motion graph: reference frames as nodes, transitions as edges.

Natural edges chain consecutive frames at zero cost. Synthetic edges connect,
both ways, disjoint frames whose pose distance (3D) and silhouette distance
(image space) both fall below thresholds calibrated from the sequence itself:
the mean distance between frames ``l`` apart.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errors import (GraphParseError, StructuralError, ValidationError, column, integer,
                     is_integer, read_document, real)
from .pose import JointState, pair_distances, pose_distance, state_rows

DEFAULT_OFFSET_L = 4
DEFAULT_MIN_JUMP = 2

GRAPH_FORMAT = "motion-graph/5"

#: Pair-matrix entries gated at a time: max(1, GATE_CELLS // N) rows of N.
#: Each gating temporary holds at most that many float64 values, so the build
#: never holds an N x N one, and few blocks mean few matrix products.
GATE_CELLS = 400_000


@dataclass(frozen=True, slots=True)
class GraphNode:
    frame_index: int
    onset: bool
    keyword: str  # "" when no dictionary word is active


@dataclass(frozen=True, slots=True)
class GraphEdge:
    src: int
    dst: int
    kind: str  # "natural" | "synthetic"
    d_feat: float
    d_img: float


@dataclass(frozen=True)
class Thresholds:
    tau_feat: float
    tau_img: float
    offset_l: int

    def __post_init__(self):
        for name in ("tau_feat", "tau_img"):
            object.__setattr__(self, name, real(name, getattr(self, name), 0))
        object.__setattr__(self, "offset_l", integer("offset_l", self.offset_l, 1))


class VideoMotionGraph:
    """Reference frames joined by transitions, stored as columns.

    Node i is reference frame i, with ``onset[i]`` and ``keyword[i]`` ("" when no
    dictionary word is active). Transition j, by strictly rising (m, n) with m < n, is the
    synthetic edges ``m[j] -> n[j]`` and back, each costing ``d_feat[j] + d_img[j]`` (both
    metrics are symmetric). The natural chain 0 -> 1 -> ... -> N-1 costs 0 and is not
    stored. The columns are read-only. ``nodes`` and ``edges`` are read-only views of the
    graph as tuples of ``GraphNode``/``GraphEdge``, which nothing in the library reads (the
    benchmark does): ``nodes`` is built on first access and kept, ``edges`` (the chain, then
    the synthetic edges by (src, dst)) on every read, kept by the caller."""

    def __init__(self, onset, keyword, m, n, d_feat, d_img, thresholds: Thresholds,
                 fps: float = 30.0, min_jump: int = DEFAULT_MIN_JUMP,
                 velocity_weight: float = 1.0):
        """A graph from its columns, each 1-D: ``onset`` (bools) and ``keyword`` (strings)
        per node, ``m``, ``n`` (integers) and ``d_feat``, ``d_img`` (real numbers) per
        transition. A column that ``errors.column`` refuses, or one of another length, is
        refused, naming it, before ``_check_pairs`` names the first offending pair. A column
        given as an array of the graph's dtype is held, not copied, and made read-only."""
        fps, min_jump, velocity_weight = _check_header(fps, min_jump, velocity_weight)
        onset, m, n, d_feat, d_img = map(column, FILE_COLUMNS, (onset, m, n, d_feat, d_img),
                                         FILE_COLUMNS.values())
        keyword = column("keyword", keyword, str)
        for name, values, count in (("keyword", keyword, onset.size), ("n", n, m.size),
                                    ("d_feat", d_feat, m.size), ("d_img", d_img, m.size)):
            if values.size != count:
                what = "nodes" if name == "keyword" else "pairs"
                raise StructuralError(f"{name} holds {values.size} values for {count} {what}")
        _check_pairs(onset.size, m, n, d_feat, d_img, min_jump)
        for values in (onset, keyword, m, n, d_feat, d_img):
            values.flags.writeable = False
        self.onset, self.keyword, self.m, self.n = onset, keyword, m, n
        self.d_feat, self.d_img = d_feat, d_img
        self.thresholds, self.fps = thresholds, fps
        self.min_jump, self.velocity_weight = min_jump, velocity_weight

    def __len__(self) -> int:
        return self.onset.size

    @cached_property
    def nodes(self) -> tuple[GraphNode, ...]:
        return tuple(map(GraphNode, range(len(self)), self.onset.tolist(), self.keyword.tolist()))

    @property
    def edges(self) -> tuple[GraphEdge, ...]:
        # Pair j is the edges m -> n and n -> m, here at j and P + j, sorted by (src, dst).
        src, dst = np.concatenate([self.m, self.n]), np.concatenate([self.n, self.m])
        order = np.lexsort((dst, src))
        pair = order % max(self.m.size, 1)
        columns = (src[order].tolist(), dst[order].tolist(), ["synthetic"] * order.size,
                   self.d_feat[pair].tolist(), self.d_img[pair].tolist())
        # The index arrays go before the records are made, which lowers the view's peak.
        del src, dst, order, pair
        return (*(GraphEdge(i, i + 1, "natural", 0.0, 0.0) for i in range(len(self) - 1)),
                *map(GraphEdge, *columns))

    def edge_costs(self, src, dst) -> np.ndarray:
        """The cost of edge ``src[i] -> dst[i]`` for each i: 0.0 for a natural step m -> m + 1,
        ``d_feat + d_img`` of the transition found among the rising keys ``m * N + n`` by the
        frames' (min, max), or NaN where there is no edge (node ids beyond int64 included).
        A bool or fractional id is refused with ValidationError, never truncated."""
        src, dst = _node_ids("src", src), _node_ids("dst", dst)
        size = len(self)
        inside = (src >= 0) & (src < size) & (dst >= 0) & (dst < size)
        low, high = np.minimum(src, dst), np.maximum(src, dst)
        want = np.where(inside, low * size + high, -1).astype(np.int64)
        keys = np.append(self.m * size + self.n, size * size)  # above every key
        at = np.searchsorted(keys, want)
        costs = np.where(keys[at] == want, np.append(self.d_feat + self.d_img, np.nan)[at], np.nan)
        return np.where(inside & (dst == src + 1), 0.0, costs)


def _node_ids(name: str, ids) -> np.ndarray:
    """``np.asarray(ids)`` if each id is an integer (Python ints beyond int64 included), else
    ValidationError: numpy reads ``[True, 3]`` as ``[1, 3]``, so a list's own entries are looked at,
    one of each type (a type is an integer or not whatever its value)."""
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        for value in {type(v): v for v in np.asarray(ids, dtype=object).flat}.values():
            if not is_integer(value):
                raise ValidationError(f"{name} node ids must be integers, got {value!r}")
    return np.asarray(ids)


def _check_pairs(size, m, n, d_feat, d_img, min_jump) -> None:
    """Check the transitions (m, n) of a ``size``-node graph: the first offending pair raises
    ValidationError with the first rule below that it breaks, named by its edge m -> n."""
    keys = m * size + n
    rules = (
        ((m >= n) | (np.diff(keys, prepend=keys[:1] - 1) <= 0),
         "pair ({s}, {d}) is out of order: pairs rise strictly by (m, n), each with m < n"),
        ((m < 0) | (n >= size), "edge ({s}, {d}) has an endpoint outside frames 0..{last}"),
        (~(np.isfinite(d_feat) & np.isfinite(d_img)), "edge ({s}, {d}) has a non-finite distance"),
        (n - m < min_jump, "synthetic edge ({s}, {d}) jumps less than min_jump"),
    )
    broken = np.logical_or.reduce([failed for failed, _ in rules])
    if broken.any():
        j = int(np.argmax(broken))
        message = next(message for failed, message in rules if failed[j])
        raise ValidationError(message.format(s=int(m[j]), d=int(n[j]), last=size - 1))


def _check_header(fps, min_jump, velocity_weight) -> tuple[float, int, float]:
    """Check the scalars every graph carries (a bad ``fps`` would reach the
    EDL) and return them as a float, an int and a float."""
    return (real("fps", fps, 0, above=True), integer("min_jump", min_jump, 2),
            real("velocity_weight", velocity_weight, 0))


def _check_packed(masks, n: int) -> None:
    """``masks`` must be the packed (N, W64) uint64 rows of ``rasterize_sequence``."""
    if not (isinstance(masks, np.ndarray) and masks.ndim == 2 and masks.dtype == np.uint64):
        got = f"{masks.dtype} {masks.shape}" if isinstance(masks, np.ndarray) else type(masks)
        raise StructuralError(f"masks must be packed (N, W64) uint64 rows, got {got}")
    if masks.shape[0] != n:
        raise StructuralError(f"{masks.shape[0]} masks for {n} joint states")


def compute_thresholds(
    joint_states: Sequence[JointState],
    masks: np.ndarray,
    offset_l: int = DEFAULT_OFFSET_L,
    velocity_weight: float = 1.0,
) -> Thresholds:
    """Mean distance between frames (m, m + l), per metric.

    ``masks`` are the packed silhouette rows of ``rasterize_sequence``. A
    larger ``offset_l`` admits more dissimilar frame pairs into the
    average, raising both thresholds and densifying the graph.
    """
    n = len(joint_states)
    velocity_weight = real("velocity_weight", velocity_weight, 0)
    offset_l = integer("offset_l", offset_l, 1)
    if n <= offset_l:
        raise ValidationError(
            f"sequence of {n} frames is too short for threshold offset l={offset_l}"
        )
    _check_packed(masks, n)
    count = n - offset_l
    first = np.arange(count)
    d_img = _image_distances(masks, np.stack([first, first + offset_l], axis=1))
    feat = img = 0.0
    for m, d in enumerate(d_img.tolist()):
        feat += pose_distance(joint_states[m], joint_states[m + offset_l], velocity_weight)
        img += d
    return Thresholds(tau_feat=feat / count, tau_img=img / count, offset_l=offset_l)


def _image_distances(packed: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """d_img = 1 - IoU of each (m, n) row of ``pairs``, from exact popcounts
    of the packed masks."""
    # Words that are zero in every mask add nothing to any count.
    packed = packed[:, packed.any(axis=0)]
    areas = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    inter = kernels.pair_intersections(packed, pairs)
    union = areas[pairs[:, 0]] + areas[pairs[:, 1]] - inter
    # Two empty masks are identical: distance 0.
    return np.where(union == 0, 0.0, 1.0 - inter / np.maximum(union, 1))


def _gate_pairs(
    pos: np.ndarray,
    vel: np.ndarray,
    velocity_weight: float,
    tau_feat: float,
    min_jump: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (m, n), n - m >= min_jump, in row-major order, whose
    approximate d_feat (Gram trick) is within a small margin of ``tau_feat``;
    ``pos`` and ``vel`` are ``state_rows``' arrays.

    The upper triangle is visited ``GATE_CELLS // N`` rows at a time, so memory
    is O(GATE_CELLS). Every entry is computed with the same operations,
    in the same order, as the full-matrix formula.
    """
    n = len(pos)
    sq_pos = np.sum(pos * pos, axis=1)
    sq_vel = np.sum(vel * vel, axis=1)
    gate = tau_feat + 1e-8 * (1.0 + tau_feat)

    def dists(x, sq, rows, cols):
        d = sq[rows, None] + sq[None, cols]
        d -= 2.0 * (x[rows] @ x[cols].T)
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)

    mm, nn = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    block = max(1, GATE_CELLS // n)
    for lo in range(0, n - min_jump, block):
        rows = slice(lo, min(lo + block, n - min_jump))
        cols = slice(lo + min_jump, n)
        approx = dists(pos, sq_pos, rows, cols)
        approx += velocity_weight * dists(vel, sq_vel, rows, cols)
        # Block entry (i, j) is the pair (lo + i, lo + min_jump + j): the
        # upper triangle n - m >= min_jump is j >= i.
        r, c = np.nonzero(np.triu(approx <= gate))
        mm.append(r + lo)
        nn.append(c + lo + min_jump)
    return np.concatenate(mm), np.concatenate(nn)


def build_graph(
    joint_states: Sequence[JointState],
    masks: np.ndarray,
    features: Sequence[tuple[bool, str]],
    thresholds: Thresholds,
    min_jump: int = DEFAULT_MIN_JUMP,
    velocity_weight: float = 1.0,
    fps: float = 30.0,
) -> VideoMotionGraph:
    """Assemble nodes and all natural + gated synthetic transitions.

    A transition (m, n), m < n, exists iff n - m >= min_jump and both
    d_feat(m, n) <= tau_feat and d_img(m, n) <= tau_img; the gate visits them
    by rising (m, n), the graph's order (the metrics are symmetric, playback is
    directed). Pairs are pre-gated with a vectorized d_feat approximation, then
    re-checked with the exact per-pair operations so the stored distances match
    them bit-for-bit. The onset flags are checked as a column before any of that.
    """
    n = len(joint_states)
    if n < 2:
        raise ValidationError("need at least 2 frames to build a graph")
    _check_packed(masks, n)
    if len(features) != n:
        raise StructuralError(f"{len(features)} feature records for {n} joint states")
    fps, min_jump, velocity_weight = _check_header(fps, min_jump, velocity_weight)
    onset = column("onset", [on for on, _ in features], bool)

    pos, vel = state_rows(joint_states)
    mm, nn = _gate_pairs(pos, vel, velocity_weight, thresholds.tau_feat, min_jump)
    # Exact d_feat filter: pose_distance of every gated pair.
    d_feat = pair_distances(pos, vel, mm, nn, velocity_weight)
    keep = d_feat <= thresholds.tau_feat
    mm, nn, d_feat = mm[keep], nn[keep], d_feat[keep]
    d_img = _image_distances(masks, np.stack([mm, nn], axis=1))
    keep = d_img <= thresholds.tau_img
    mm, nn, d_feat, d_img = mm[keep], nn[keep], d_feat[keep], d_img[keep]
    return VideoMotionGraph(
        onset, [kw for _, kw in features], mm, nn, d_feat, d_img,
        thresholds, fps, min_jump, velocity_weight,
    )


# ---------------------------------------------------------------------------
# serialization (one line of compact sorted-key JSON, then each column's raw
# little-endian bytes, so values are bit-exact)
# ---------------------------------------------------------------------------


#: The graph's columns, in file order after the header line, as the bytes of these
#: dtypes: ``onset`` holds one value per node (node i is frame i), a flag of one
#: byte, 0 or 1; the rest one value per transition (m, n), 32 bytes in all.
FILE_COLUMNS = {"onset": np.dtype("?"), "m": np.dtype("<i8"), "n": np.dtype("<i8"),
                "d_feat": np.dtype("<f8"), "d_img": np.dtype("<f8")}


def _graph_chunks(graph: VideoMotionGraph):
    """The ``motion-graph/5`` file as chunks: the header line, then each
    column's bytes, as the graph holds it."""
    header = {"format": GRAPH_FORMAT, "fps": graph.fps, "min_jump": graph.min_jump,
              "velocity_weight": graph.velocity_weight, "thresholds": asdict(graph.thresholds),
              "keyword": graph.keyword.tolist(), "pairs": graph.m.size}
    yield json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    for name, dtype in FILE_COLUMNS.items():
        yield np.ascontiguousarray(getattr(graph, name), dtype)


def save_graph(graph: VideoMotionGraph) -> bytes:
    return b"".join(_graph_chunks(graph))


#: Bytes of a graph file's first line read before its format is known: far more
#: than the 27 bytes up to the end of its format member, which sorted keys put first.
HEADER_PIECE = 1 << 16


def _header_line(f) -> bytes:
    """The header line of the graph stream ``f``, refused unless its first
    ``HEADER_PIECE`` bytes end it or hold this layout's format member."""
    line = f.readline(HEADER_PIECE)
    if line.endswith(b"\n") or len(line) < HEADER_PIECE:
        return line  # the header line, or a file shorter than a piece
    if b'"format":"%s"' % GRAPH_FORMAT.encode() in line:
        return line + f.readline()
    raise GraphParseError(f"graph document has no {GRAPH_FORMAT} header line in its first "
                          f"{HEADER_PIECE} bytes; older layouts were one JSON document with "
                          "no newline")


def _read_graph(f, size: int) -> VideoMotionGraph:
    """The graph in the ``size``-byte ``motion-graph/5`` stream ``f``: its
    header line, then each column read into a new array once the header's
    node and pair counts account for every byte."""
    line = _header_line(f)

    def build(doc):
        header = {"format", "fps", "min_jump", "velocity_weight", "thresholds", "keyword", "pairs"}
        if unknown := doc.keys() - header:
            raise ValidationError(f"unknown fields {sorted(unknown)}")
        thresholds = Thresholds(**doc["thresholds"])
        keyword = column("keyword", doc["keyword"], str)
        n, pairs, body = keyword.size, integer("pairs", doc["pairs"], 0), size - len(line)
        if not line.endswith(b"\n") or body != n + 32 * pairs:
            raise StructuralError(f"{n} nodes and {pairs} pairs need a newline-ended header "
                                  f"line and {n + 32 * pairs} column bytes, got {body} after it")
        columns = {name: np.empty(n if name == "onset" else pairs, dtype)
                   for name, dtype in FILE_COLUMNS.items()}
        for name, values in columns.items():
            if f.readinto(values) != values.nbytes:
                raise StructuralError("the graph file ended while it was read")
            if values.dtype == bool and (values.view(np.uint8) > 1).any():
                raise ValidationError(f"{name} bytes must be 0 or 1")
        return VideoMotionGraph(
            **columns, keyword=keyword, thresholds=thresholds, fps=doc["fps"],
            min_jump=doc["min_jump"], velocity_weight=doc["velocity_weight"])

    return read_document(line, "graph document", GRAPH_FORMAT, build)


def load_graph(data: bytes) -> VideoMotionGraph:
    return _read_graph(io.BytesIO(data), len(data))


def save_graph_file(graph: VideoMotionGraph, path: str | Path) -> None:
    """Write ``save_graph``'s bytes, one chunk at a time: the file is never
    held whole. The chunks go to ``<path>.partial``, which replaces ``path``
    only once complete, so a failed write leaves any earlier file."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as out:
            out.writelines(_graph_chunks(graph))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def load_graph_file(path: str | Path) -> VideoMotionGraph:
    with open(path, "rb") as f:
        return _read_graph(f, os.fstat(f.fileno()).st_size)
