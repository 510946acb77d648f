"""The video motion graph: reference frames as nodes, transitions as edges.

Natural edges chain consecutive frames at zero cost. Synthetic edges connect
disjoint frames whose pose distance (3D) and silhouette distance (image
space) both fall below thresholds calibrated from the sequence itself: the
mean distance between frames ``l`` apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errors import StructuralError, ValidationError, read_document
from .pose import JointState, pose_distance

DEFAULT_OFFSET_L = 4
DEFAULT_MIN_JUMP = 2

GRAPH_FORMAT = "motion-graph/1"

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
        if self.tau_feat < 0 or self.tau_img < 0:
            raise ValidationError("thresholds must be >= 0")
        if self.offset_l < 1:
            raise ValidationError(f"offset_l must be >= 1, got {self.offset_l}")


@dataclass
class VideoMotionGraph:
    nodes: list[GraphNode]
    edges: list[GraphEdge]
    thresholds: Thresholds
    fps: float = 30.0
    min_jump: int = DEFAULT_MIN_JUMP
    velocity_weight: float = 1.0

    def __post_init__(self):
        n = len(self.nodes)
        seen: set[tuple[int, int]] = set()
        natural = set()
        for e in self.edges:
            if not (0 <= e.src < n and 0 <= e.dst < n):
                raise ValidationError(
                    f"edge ({e.src}, {e.dst}) has an endpoint outside frames 0..{n - 1}"
                )
            if e.src == e.dst:
                raise ValidationError(f"self-edge at frame {e.src}")
            if (e.src, e.dst) in seen:
                raise ValidationError(f"duplicate edge ({e.src}, {e.dst})")
            seen.add((e.src, e.dst))
            if not (math.isfinite(e.d_feat) and math.isfinite(e.d_img)):
                raise ValidationError(f"edge ({e.src}, {e.dst}) has a non-finite distance")
            if e.kind == "natural":
                if e.dst != e.src + 1:
                    raise ValidationError(
                        f"natural edge ({e.src}, {e.dst}) must connect consecutive frames"
                    )
                natural.add(e.src)
            elif e.kind != "synthetic":
                raise ValidationError(f"edge ({e.src}, {e.dst}) has unknown kind {e.kind!r}")
            elif abs(e.dst - e.src) < self.min_jump:
                raise ValidationError(f"synthetic edge ({e.src}, {e.dst}) jumps less than min_jump")
        if n >= 2 and natural != set(range(n - 1)):
            raise ValidationError("natural edges must form the full chain 0..N-1")
        for i, node in enumerate(self.nodes):
            if node.frame_index != i:
                raise ValidationError("node frame indices must be 0..N-1 in order")

    def __len__(self) -> int:
        return len(self.nodes)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonically ordered (src, dst, cost) arrays for the search kernels."""
        src = np.array([e.src for e in self.edges], dtype=np.int64)
        dst = np.array([e.dst for e in self.edges], dtype=np.int64)
        cost = np.array([e.cost for e in self.edges], dtype=np.float64)
        order = np.lexsort((dst, src))
        return src[order], dst[order], cost[order]

    def edge_index(self) -> dict[tuple[int, int], GraphEdge]:
        return {(e.src, e.dst): e for e in self.edges}

    @property
    def onset_flags(self) -> np.ndarray:
        return np.array([node.onset for node in self.nodes], dtype=bool)


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
    feat = 0.0
    img = 0.0
    for m in range(count):
        feat += pose_distance(joint_states[m], joint_states[m + offset_l], velocity_weight)
        img += d_img[m]
    return Thresholds(tau_feat=feat / count, tau_img=img / count, offset_l=offset_l)


def _image_distances(packed: np.ndarray, pairs: np.ndarray) -> list[float]:
    """d_img = 1 - IoU of each (m, n) row of ``pairs``, from exact popcounts
    of the packed masks: bit-equal to ``silhouette.image_distance``."""
    rows = np.arange(packed.shape[0])
    # A row ANDed with itself counts its own bits: the mask's area.
    areas = kernels.pair_intersections(packed, np.stack([rows, rows], axis=1))
    inter = kernels.pair_intersections(packed, pairs)
    union = areas[pairs[:, 0]] + areas[pairs[:, 1]] - inter
    return [0.0 if u == 0 else 1.0 - i / u for i, u in zip(inter.tolist(), union.tolist())]


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
    pos = np.stack([s.positions.ravel() for s in joint_states]).astype(np.float64)
    vel = np.stack([s.velocities.ravel() for s in joint_states]).astype(np.float64)
    sq_pos = np.sum(pos * pos, axis=1)
    sq_vel = np.sum(vel * vel, axis=1)
    gate = tau_feat + 1e-8 * (1.0 + tau_feat)

    def dists(x, sq, rows, cols):
        d = sq[rows, None] + sq[None, cols]
        d -= 2.0 * (x[rows] @ x[cols].T)
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)

    mm, nn = [], []
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
    if not mm:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
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
    if min_jump < 2:
        raise ValidationError(f"min_jump must be >= 2, got {min_jump}")

    nodes = [
        GraphNode(frame_index=i, onset=bool(on), keyword=str(kw))
        for i, (on, kw) in enumerate(features)
    ]
    edges = [
        GraphEdge(src=i, dst=i + 1, kind="natural", d_feat=0.0, d_img=0.0)
        for i in range(n - 1)
    ]

    mm, nn = _gate_pairs(joint_states, velocity_weight, thresholds.tau_feat, min_jump)

    # Exact d_feat filter.
    keep = []
    feat_vals = []
    for m, k in zip(mm, nn):
        d = pose_distance(joint_states[m], joint_states[k], velocity_weight)
        if d <= thresholds.tau_feat:
            keep.append((int(m), int(k)))
            feat_vals.append(d)
    if keep:
        d_imgs = _image_distances(masks, np.array(keep, dtype=np.int64))
        for (m, k), d_feat, d_img in zip(keep, feat_vals, d_imgs):
            if d_img <= thresholds.tau_img:
                edges.append(GraphEdge(m, k, "synthetic", d_feat, d_img))
                edges.append(GraphEdge(k, m, "synthetic", d_feat, d_img))

    edges[n - 1 :] = sorted(edges[n - 1 :], key=lambda e: (e.src, e.dst))
    return VideoMotionGraph(
        nodes=nodes,
        edges=edges,
        thresholds=thresholds,
        fps=fps,
        min_jump=min_jump,
        velocity_weight=velocity_weight,
    )


# ---------------------------------------------------------------------------
# serialization (JSON; floats use repr round-tripping, so scalars are
# bit-exact across save/load)
# ---------------------------------------------------------------------------


def save_graph(graph: VideoMotionGraph) -> bytes:
    doc = {
        "format": GRAPH_FORMAT,
        "fps": graph.fps,
        "min_jump": graph.min_jump,
        "velocity_weight": graph.velocity_weight,
        "thresholds": {
            "tau_feat": graph.thresholds.tau_feat,
            "tau_img": graph.thresholds.tau_img,
            "offset_l": graph.thresholds.offset_l,
        },
        "nodes": [
            {"frame": node.frame_index, "onset": node.onset, "keyword": node.keyword}
            for node in graph.nodes
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "kind": e.kind,
                "d_feat": e.d_feat,
                "d_img": e.d_img,
            }
            for e in graph.edges
        ],
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def load_graph(stream: bytes) -> VideoMotionGraph:
    def build(doc):
        nodes = [
            GraphNode(int(n["frame"]), bool(n["onset"]), str(n["keyword"]))
            for n in doc["nodes"]
        ]
        edges = [
            GraphEdge(
                src=int(e["src"]),
                dst=int(e["dst"]),
                kind=str(e["kind"]),
                d_feat=float(e["d_feat"]),
                d_img=float(e["d_img"]),
            )
            for e in doc["edges"]
        ]
        thresholds = Thresholds(
            tau_feat=float(doc["thresholds"]["tau_feat"]),
            tau_img=float(doc["thresholds"]["tau_img"]),
            offset_l=int(doc["thresholds"]["offset_l"]),
        )
        return VideoMotionGraph(
            nodes=nodes,
            edges=edges,
            thresholds=thresholds,
            fps=float(doc["fps"]),
            min_jump=int(doc["min_jump"]),
            velocity_weight=float(doc["velocity_weight"]),
        )

    return read_document(stream, "graph document", GRAPH_FORMAT, build)


def save_graph_file(graph: VideoMotionGraph, path: str | Path) -> None:
    Path(path).write_bytes(save_graph(graph))


def load_graph_file(path: str | Path) -> VideoMotionGraph:
    return load_graph(Path(path).read_bytes())
