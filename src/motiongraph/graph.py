"""The video motion graph: reference frames as nodes, transitions as edges.

Natural edges chain consecutive frames at zero cost. Synthetic edges connect
disjoint frames whose pose distance (3D) and silhouette distance (image
space) both fall below thresholds calibrated from the sequence itself: the
mean distance between frames ``l`` apart.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errors import StructuralError, ValidationError, is_integer, read_document
from .pose import JointState, pair_distances, pose_distance, state_rows

DEFAULT_OFFSET_L = 4
DEFAULT_MIN_JUMP = 2

GRAPH_FORMAT = "motion-graph/2"

#: Rows of the pair matrix gated at a time. Each gating temporary holds at
#: most GATE_BLOCK x N float64 values, so the build never holds an N x N one.
GATE_BLOCK = 128


@dataclass(frozen=True)
class GraphNode:
    frame_index: int
    onset: bool
    keyword: str  # "" when no dictionary word is active


@dataclass(frozen=True)
class GraphEdge:
    src: int
    dst: int
    kind: str  # "natural" | "synthetic"
    d_feat: float
    d_img: float

    @property
    def cost(self) -> float:
        return self.d_feat + self.d_img


@dataclass(frozen=True)
class Thresholds:
    tau_feat: float
    tau_img: float
    offset_l: int

    def __post_init__(self):
        # An infinite threshold is an open gate; NaN gates nothing.
        if not (self.tau_feat >= 0 and self.tau_img >= 0):
            raise ValidationError(
                f"thresholds must be >= 0, got tau_feat={self.tau_feat}, tau_img={self.tau_img}"
            )
        if not (is_integer(self.offset_l) and self.offset_l >= 1):
            raise ValidationError(f"offset_l must be an integer >= 1, got {self.offset_l!r}")
        object.__setattr__(self, "offset_l", int(self.offset_l))  # the JSON writer needs an int


#: Edge kind names, indexed by the ``synthetic`` column.
KINDS = ("natural", "synthetic")


class VideoMotionGraph:
    """Reference frames joined by transitions, stored as columns.

    Node i is reference frame i, with ``onset[i]`` and ``keyword[i]`` ("" when
    no dictionary word is active). Edge j runs ``src[j] -> dst[j]``, is
    synthetic when ``synthetic[j]`` (else natural) and costs
    ``d_feat[j] + d_img[j]``. The columns are read-only arrays, checked in
    one vectorized pass on construction. ``nodes`` and ``edges`` hold the
    same graph as ``GraphNode``/``GraphEdge`` tuples, built on first access.
    """

    def __init__(self, nodes: Sequence[GraphNode], edges: Sequence[GraphEdge],
                 thresholds: Thresholds, fps: float = 30.0,
                 min_jump: int = DEFAULT_MIN_JUMP, velocity_weight: float = 1.0):
        """A graph from node and edge records, edges kept in the given order.
        Values convert as ``int``/``float``/``bool`` would, so a list-valued
        field fails instead of adding a dimension."""
        edge_fields = (("src", np.int64), ("dst", np.int64), ("kind", object),
                       ("d_feat", np.float64), ("d_img", np.float64))
        self._init(np.fromiter((v.onset for v in nodes), bool),
                   np.array([v.keyword for v in nodes], dtype=str),
                   *(np.fromiter((getattr(e, name) for e in edges), dtype)
                     for name, dtype in edge_fields),
                   thresholds, fps, min_jump, velocity_weight)
        frame = np.fromiter((v.frame_index for v in nodes), np.int64)
        if not np.array_equal(frame, np.arange(len(self))):
            raise ValidationError("node frame indices must be 0..N-1 in order")

    @classmethod
    def _from_columns(cls, *columns) -> VideoMotionGraph:
        graph = cls.__new__(cls)
        graph._init(*columns)
        return graph

    def _init(self, onset, keyword, src, dst, kind, d_feat, d_img,
              thresholds, fps, min_jump, velocity_weight) -> None:
        _check_header(fps, min_jump, velocity_weight)
        synthetic = _check_columns(onset.size, src, dst, kind, d_feat, d_img, min_jump)
        for column in (onset, keyword, src, dst, synthetic, d_feat, d_img):
            column.flags.writeable = False
        self.onset, self.keyword, self.src, self.dst = onset, keyword, src, dst
        self.synthetic, self.d_feat, self.d_img = synthetic, d_feat, d_img
        self.thresholds, self.fps = thresholds, fps
        self.min_jump, self.velocity_weight = int(min_jump), velocity_weight

    def __len__(self) -> int:
        return self.onset.size

    @cached_property
    def nodes(self) -> tuple[GraphNode, ...]:
        return tuple(map(GraphNode, range(len(self)), self.onset.tolist(), self.keyword.tolist()))

    @cached_property
    def edges(self) -> tuple[GraphEdge, ...]:
        kinds = [KINDS[s] for s in self.synthetic.tolist()]
        return tuple(map(GraphEdge, self.src.tolist(), self.dst.tolist(), kinds,
                         self.d_feat.tolist(), self.d_img.tolist()))

    def edge_rows(self, src, dst) -> np.ndarray:
        """The row j of edge ``src[i] -> dst[i]`` for each i, or -1 where the
        graph has no such edge. Node ids too large for int64 are absent too."""
        src, dst = np.asarray(src), np.asarray(dst)
        n = len(self)
        keys, rows = self._edge_keys
        inside = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        want = np.where(inside, src * n + dst, -1).astype(np.int64)
        at = np.searchsorted(keys, want)
        return np.where(keys[at] == want, rows[at], -1)

    @cached_property
    def _edge_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge keys ``src * N + dst`` in increasing order and the row of
        each, sorted once: the columns are read-only. A last key N * N, above
        every edge's, keeps each ``searchsorted`` position inside the array."""
        keys = self.src * len(self) + self.dst
        order = np.argsort(keys)
        return np.append(keys[order], len(self) ** 2), np.append(order, -1)


def _check_columns(n, src, dst, kind, d_feat, d_img, min_jump) -> np.ndarray:
    """Check the edges of an ``n``-node graph and return the ``synthetic``
    column. ``kind`` is that column, or the records' kind names. An invalid
    edge raises ValidationError naming the first offending edge and the
    first rule below that it breaks."""
    natural, synthetic = ((~kind, kind) if kind.dtype == bool
                          else (kind == "natural", kind == "synthetic"))
    # A repeat follows an equal (src, dst) pair in the stable (src, dst) order.
    order = np.lexsort((dst, src))
    repeat = np.zeros(src.size, dtype=bool)
    repeat[order[1:]] = (src[order[1:]] == src[order[:-1]]) & (dst[order[1:]] == dst[order[:-1]])
    rules = (
        ((src < 0) | (src >= n) | (dst < 0) | (dst >= n),
         "edge ({s}, {d}) has an endpoint outside frames 0..{last}"),
        (src == dst, "self-edge at frame {s}"),
        (repeat, "duplicate edge ({s}, {d})"),
        (~(np.isfinite(d_feat) & np.isfinite(d_img)), "edge ({s}, {d}) has a non-finite distance"),
        (natural & (dst != src + 1), "natural edge ({s}, {d}) must connect consecutive frames"),
        (~(natural | synthetic), "edge ({s}, {d}) has unknown kind {kind!r}"),
        (synthetic & (np.abs(dst - src) < min_jump),
         "synthetic edge ({s}, {d}) jumps less than min_jump"),
    )
    broken = np.logical_or.reduce([failed for failed, _ in rules])
    if broken.any():
        j = int(np.argmax(broken))
        message = next(message for failed, message in rules if failed[j])
        raise ValidationError(
            message.format(s=int(src[j]), d=int(dst[j]), last=n - 1, kind=str(kind[j]))
        )
    # Valid natural edges are distinct (m, m + 1) pairs inside the graph, so
    # n - 1 of them are the whole chain.
    if n >= 2 and np.count_nonzero(natural) != n - 1:
        raise ValidationError("natural edges must form the full chain 0..N-1")
    return synthetic


def _check_header(fps: float, min_jump: int, velocity_weight: float) -> None:
    """The scalars every graph carries: a bad ``fps`` would reach the EDL."""
    if not (math.isfinite(fps) and fps > 0):
        raise ValidationError(f"fps must be a finite number > 0, got {fps}")
    if not (is_integer(min_jump) and min_jump >= 2):
        raise ValidationError(f"min_jump must be an integer >= 2, got {min_jump!r}")
    _check_velocity_weight(velocity_weight)


def _check_velocity_weight(velocity_weight: float) -> None:
    if not (math.isfinite(velocity_weight) and velocity_weight >= 0):
        raise ValidationError(
            f"velocity_weight must be a finite number >= 0, got {velocity_weight}"
        )


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
    _check_velocity_weight(velocity_weight)
    if offset_l < 1:
        raise ValidationError(f"offset_l must be >= 1, got {offset_l}")
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
    of the packed masks: bit-equal to ``silhouette.image_distance``."""
    # Words that are zero in every mask add nothing to any count.
    packed = packed[:, packed.any(axis=0)]
    rows = np.arange(packed.shape[0])
    # A row ANDed with itself counts its own bits: the mask's area.
    areas = kernels.pair_intersections(packed, np.stack([rows, rows], axis=1))
    inter = kernels.pair_intersections(packed, pairs)
    union = areas[pairs[:, 0]] + areas[pairs[:, 1]] - inter
    # Two empty masks are identical: distance 0.
    return np.where(union == 0, 0.0, 1.0 - inter / np.maximum(union, 1))


def _gate_pairs(
    joint_states: Sequence[JointState],
    velocity_weight: float,
    tau_feat: float,
    min_jump: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate pairs (m, n), n - m >= min_jump, in row-major order, whose
    approximate d_feat (Gram trick) is within a small margin of ``tau_feat``.

    The upper triangle is visited ``GATE_BLOCK`` rows at a time, so memory
    is O(GATE_BLOCK * N). Every entry is computed with the same operations,
    in the same order, as the full-matrix formula.
    """
    n = len(joint_states)
    pos, vel = state_rows(joint_states)
    sq_pos = np.sum(pos * pos, axis=1)
    sq_vel = np.sum(vel * vel, axis=1)
    gate = tau_feat + 1e-8 * (1.0 + tau_feat)

    def dists(x, sq, rows, cols):
        d = sq[rows, None] + sq[None, cols]
        d -= 2.0 * (x[rows] @ x[cols].T)
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)

    mm, nn = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n - min_jump, GATE_BLOCK):
        rows = slice(lo, min(lo + GATE_BLOCK, n - min_jump))
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

    A synthetic edge (m, n) exists iff |m - n| >= min_jump and both
    d_feat(m, n) <= tau_feat and d_img(m, n) <= tau_img. Both directions are
    created (the metrics are symmetric, playback is directed). Pairs are
    pre-gated with a vectorized d_feat approximation, then re-checked with
    the exact per-pair operations so the stored distances match them
    bit-for-bit.
    """
    n = len(joint_states)
    if n < 2:
        raise ValidationError("need at least 2 frames to build a graph")
    _check_packed(masks, n)
    if len(features) != n:
        raise StructuralError(f"{len(features)} feature records for {n} joint states")
    _check_header(fps, min_jump, velocity_weight)

    mm, nn = _gate_pairs(joint_states, velocity_weight, thresholds.tau_feat, min_jump)
    # Exact d_feat filter: pose_distance of every gated pair.
    d_feat = pair_distances(*state_rows(joint_states), mm, nn, velocity_weight)
    keep = d_feat <= thresholds.tau_feat
    mm, nn, d_feat = mm[keep], nn[keep], d_feat[keep]
    d_img = _image_distances(masks, np.stack([mm, nn], axis=1))
    keep = d_img <= thresholds.tau_img
    mm, nn, d_feat, d_img = mm[keep], nn[keep], d_feat[keep], d_img[keep]

    # The natural chain, then both directions of every kept pair by (src, dst).
    syn_src, syn_dst = np.concatenate([mm, nn]), np.concatenate([nn, mm])
    order = np.lexsort((syn_dst, syn_src))
    chain = np.arange(n - 1)
    src = np.concatenate([chain, syn_src[order]])
    dst = np.concatenate([chain + 1, syn_dst[order]])
    zeros = np.zeros(n - 1)
    return VideoMotionGraph._from_columns(
        np.fromiter((on for on, _ in features), bool),
        np.array([kw for _, kw in features], dtype=str),
        src, dst, np.repeat([False, True], [n - 1, syn_src.size]),
        np.concatenate([zeros, np.tile(d_feat, 2)[order]]),
        np.concatenate([zeros, np.tile(d_img, 2)[order]]),
        thresholds, fps, min_jump, velocity_weight,
    )


# ---------------------------------------------------------------------------
# serialization (JSON; floats use repr round-tripping, so scalars are
# bit-exact across save/load)
# ---------------------------------------------------------------------------


def _check_file_thresholds(thresholds: Thresholds) -> None:
    """JSON has no infinity: an open-gate threshold stays in memory."""
    if not (math.isfinite(thresholds.tau_feat) and math.isfinite(thresholds.tau_img)):
        raise ValidationError(f"a graph file's thresholds must be finite, got {thresholds}")


#: Values of one column encoded per chunk by the graph writer.
SAVE_CHUNK_EDGES = 4096

#: A graph file's columns, in ``VideoMotionGraph._init`` order, and the type
#: of their entries: two per node (node i is frame i), then five per edge.
FILE_COLUMNS = {"onset": bool, "keyword": str, "src": np.int64, "dst": np.int64,
                "synthetic": bool, "d_feat": np.float64, "d_img": np.float64}


def _graph_chunks(graph: VideoMotionGraph):
    """The ``motion-graph/2`` document as UTF-8 chunks of at most ``SAVE_CHUNK_EDGES``
    values of one column. Joined, they are ``json.dumps(doc, sort_keys=True)``."""
    doc = {"format": GRAPH_FORMAT, "fps": graph.fps, "min_jump": graph.min_jump,
           "velocity_weight": graph.velocity_weight, "thresholds": asdict(graph.thresholds),
           **{name: getattr(graph, name) for name in FILE_COLUMNS}}
    for i, (key, value) in enumerate(sorted(doc.items())):
        yield f"{', ' if i else '{'}{json.dumps(key)}: ".encode()
        if not isinstance(value, np.ndarray):
            yield json.dumps(value, sort_keys=True).encode()
            continue
        yield b"["
        for lo in range(0, value.size, SAVE_CHUNK_EDGES):
            text = json.dumps(value[lo : lo + SAVE_CHUNK_EDGES].tolist())[1:-1]
            yield (", " + text if lo else text).encode()
        yield b"]"
    yield b"}"


def save_graph(graph: VideoMotionGraph) -> bytes:
    _check_file_thresholds(graph.thresholds)
    return b"".join(_graph_chunks(graph))


def load_graph(stream: bytes | mmap.mmap) -> VideoMotionGraph:
    def build(doc):
        t = doc["thresholds"]
        thresholds = Thresholds(float(t["tau_feat"]), float(t["tau_img"]), t["offset_l"])
        _check_file_thresholds(thresholds)
        for name in ("onset", "synthetic"):
            if not all(v is True or v is False for v in doc[name]):
                raise ValidationError(f"{name} entries must be true or false")
        # Other entries convert as int, float or str would.
        columns = [np.array(doc[name], dtype=str) if dtype is str else np.fromiter(doc[name], dtype)
                   for name, dtype in FILE_COLUMNS.items()]
        onset, keyword, *edge_columns = columns
        if keyword.shape != onset.shape or len({c.shape for c in edge_columns}) > 1:
            raise StructuralError("graph columns differ in length: " + ", ".join(
                f"{name} {c.shape}" for name, c in zip(FILE_COLUMNS, columns)))
        return VideoMotionGraph._from_columns(*columns, thresholds, float(doc["fps"]),
                                              doc["min_jump"], float(doc["velocity_weight"]))

    return read_document(stream, "graph document", GRAPH_FORMAT, build)


def save_graph_file(graph: VideoMotionGraph, path: str | Path) -> None:
    """Write ``save_graph``'s bytes, one chunk at a time: the encoded document
    is never held whole. The chunks go to ``<path>.partial``, which replaces
    ``path`` only once complete, so a failed write leaves any earlier file."""
    _check_file_thresholds(graph.thresholds)  # before any file opens
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "wb") as out:
            out.writelines(_graph_chunks(graph))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def load_graph_file(path: str | Path) -> VideoMotionGraph:
    with open(path, "rb") as f:  # mapped, not read: glibc keeps later read copies resident
        if not os.fstat(f.fileno()).st_size:  # empty files and pipes cannot be mapped
            return load_graph(f.read())
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return load_graph(data)
