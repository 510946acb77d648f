"""Beam search over the motion graph, matched to target audio segments.

Each target segment a_s -> a_{s+1} of duration L_s must be covered by a walk
that ends on a node whose audio feature matches the segment's endpoint
feature and whose length L' stays within the duration window
(low <= L'/L_s <= high). Candidates rank by transition cost
(sum of d_feat + d_img over traversed edges) plus duration cost
(sum of |1 - L'_s/L_s|); after every segment only the best ``beam_width``
paths survive.

Because every segment interior is featureless in the target by construction,
expansions route around onset-activated nodes: they may appear only as
segment start/terminal nodes (configurable).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .audio import EndpointFeature, SegmentList
from .errors import SegmentUnreachableError, StructuralError, ValidationError, read_document
from .graph import VideoMotionGraph

DEFAULT_BEAM_WIDTH = 20
DEFAULT_DURATION_WINDOW = (0.9, 1.1)

SEARCH_RESULT_FORMAT = "search-result/1"


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = DEFAULT_BEAM_WIDTH
    duration_window: tuple[float, float] = DEFAULT_DURATION_WINDOW
    duration_weight: float = 1.0
    avoid_onsets_mid_segment: bool = True

    def __post_init__(self):
        low, high = self.duration_window
        if not 0.0 < low <= 1.0 <= high < math.inf:
            raise ValidationError(
                f"duration window must satisfy 0 < low <= 1 <= high < inf, "
                f"got {self.duration_window}"
            )
        if self.beam_width < 1:
            raise ValidationError(f"beam_width must be >= 1, got {self.beam_width}")
        if not (math.isfinite(self.duration_weight) and self.duration_weight >= 0):
            raise ValidationError(
                f"duration_weight must be a finite number >= 0, got {self.duration_weight}"
            )


@dataclass(frozen=True)
class PathCandidate:
    node_sequence: tuple[int, ...]
    transition_cost: float
    duration_cost: float
    segment_boundaries: tuple[int, ...]  # indices into node_sequence, [0, ...]

    @property
    def durations(self) -> tuple[int, ...]:
        """Achieved L'_s per segment (edge counts between boundaries)."""
        return tuple(
            b - a for a, b in zip(self.segment_boundaries, self.segment_boundaries[1:])
        )

    def total_cost(self, duration_weight: float = 1.0) -> float:
        return self.transition_cost + duration_weight * self.duration_cost


@dataclass(frozen=True)
class SearchResult:
    paths: tuple[PathCandidate, ...]  # sorted by total cost ascending
    seed: int
    config: BeamConfig

    @property
    def best(self) -> PathCandidate:
        if not self.paths:
            raise ValidationError("search produced no paths")
        return self.paths[0]


def duration_bounds(target_length: int, low: float, high: float) -> tuple[int, int]:
    """Smallest and largest integer lengths accepted by the duration window.

    Acceptance is evaluated on the ratio L'/L_s (low <= L'/L_s <= high with
    exact float comparison), so exact boundaries such as 9/10 == 0.9 are
    accepted regardless of how low * L_s rounds.
    """
    lo = max(1, math.floor(low * target_length) - 1)
    while lo / target_length < low:
        lo += 1
    hi = math.ceil(high * target_length) + 1
    while hi / target_length > high:
        hi -= 1
    return lo, hi


def in_duration_window(
    achieved: int, target_length: int, window: tuple[float, float]
) -> bool:
    ratio = achieved / target_length
    return window[0] <= ratio <= window[1]


class _SearchState:
    """What one search shares across its segments: the edge layout, the node
    masks, and one walk-distance table per distinct start node (extended,
    not recomputed, when a later segment needs more steps)."""

    def __init__(self, graph: VideoMotionGraph, config: BeamConfig):
        n = len(graph)
        self.layout = kernels.edge_layout(*graph.edge_arrays(), n)
        self.onset, self.keywords = graph.onset, graph.keyword
        self.allowed = ~self.onset if config.avoid_onsets_mid_segment else np.ones(n, dtype=bool)
        self.tables: dict[int, np.ndarray] = {}

    def match(self, feature: EndpointFeature) -> np.ndarray:
        """The nodes that can end a segment with ``feature``."""
        if feature.kind == "end":
            return np.ones(self.onset.size, dtype=bool)
        if feature.kind == "onset":
            return self.onset
        if feature.kind == "keyword":
            return self.keywords == feature.word
        raise ValidationError(f"unknown endpoint feature kind {feature.kind!r}")

    def table(self, start: int, n_steps: int) -> np.ndarray:
        dist = self.tables.get(start)
        if dist is None or dist.shape[0] <= n_steps:
            dist = kernels.walk_distances(self.layout, start, self.allowed, n_steps, dist)
            self.tables[start] = dist
        return dist


def _within_cut(totals: np.ndarray, ends: np.ndarray, keep: int) -> np.ndarray:
    """Mask of the rows whose (total, end node) key is at most the keep-th
    smallest key, ties included."""
    cut = np.lexsort((ends, totals))[keep - 1]
    return (totals < totals[cut]) | ((totals == totals[cut]) & (ends <= ends[cut]))


def expand_segment(
    graph: VideoMotionGraph,
    candidates: list[PathCandidate],
    target_feature: EndpointFeature,
    target_length: int,
    config: BeamConfig = BeamConfig(),
    segment_index: int = 0,
    keep: int | None = None,
    _state: _SearchState | None = None,
) -> list[PathCandidate]:
    """Extend every candidate across one target segment.

    An extension appends a walk that ends on a matching node with a
    window-accepted length. Returns the extensions in beam order,
    ``(total cost, last node, node sequence)``, with ties in generation
    order (start node, length, end node ascending, then candidate order).
    With ``keep``, returns only the first ``keep``: extensions are ranked on
    cost arrays and only those that can make the cut are built. Raises
    SegmentUnreachableError when no candidate admits any such walk.
    """
    if not candidates:
        raise ValidationError("expand_segment needs at least one start candidate")
    if target_length < 1:
        raise ValidationError(f"target segment length must be >= 1, got {target_length}")

    low, high = config.duration_window
    lo_len, hi_len = duration_bounds(target_length, low, high)

    state = _state if _state is not None else _SearchState(graph, config)
    match = state.match(target_feature)
    # Division is monotonic, so every length in lo_len..hi_len is in the window.
    dur_incs = [abs(1.0 - length / target_length) for length in range(lo_len, hi_len + 1)]
    dur_inc = np.array(dur_incs)
    transition = np.array([c.transition_cost for c in candidates])
    duration = np.array([c.duration_cost for c in candidates])

    by_start: dict[int, list[int]] = {}
    for i, cand in enumerate(candidates):
        by_start.setdefault(cand.node_sequence[-1], []).append(i)

    # One row per extension, in generation order: (start, length index, end
    # node, candidate index, total cost as PathCandidate.total_cost computes it).
    parts = []
    for start, group in sorted(by_start.items()):
        rows = state.table(start, hi_len)[lo_len : hi_len + 1]
        hit_len, hit_node = np.nonzero(np.isfinite(rows) & match)
        if hit_len.size == 0:
            continue
        group = np.array(group)
        t = transition[group][None, :] + rows[hit_len, hit_node][:, None]
        d = duration[group][None, :] + dur_inc[hit_len][:, None]
        total = (t + config.duration_weight * d).ravel()
        # Row r is (hit_len[r // G], hit_node[r // G], group[r % G]).
        hit, member = np.divmod(np.arange(total.size), group.size)
        if keep is not None and keep < total.size:
            # A row past this start's keep-th (total, end node) key has keep
            # rows ahead of it here, so the global cut below never takes it.
            picked = _within_cut(total, hit_node[hit], keep)
            hit, member, total = hit[picked], member[picked], total[picked]
        parts.append(
            (np.full(total.size, start), hit_len[hit], hit_node[hit], group[member], total)
        )
    if not parts:
        raise SegmentUnreachableError(
            segment_index,
            f"segment {segment_index}: no walk of length {lo_len}..{hi_len} reaches a "
            f"node matching {target_feature.kind}"
            + (f"({target_feature.word})" if target_feature.word else ""),
        )
    starts, len_idx, ends, cand_idx, totals = (np.concatenate(col) for col in zip(*parts))

    chosen = np.arange(totals.size)
    if keep is not None and keep < totals.size:
        # Ties at the cut are settled below on the full key.
        chosen = np.flatnonzero(_within_cut(totals, ends, keep))

    walks: dict[tuple[int, int, int], tuple[int, ...]] = {}
    extended = []
    survivors = (starts[chosen], len_idx[chosen], ends[chosen], cand_idx[chosen])
    for start, li, v, ci in zip(*(col.tolist() for col in survivors)):
        length = lo_len + li
        dist = state.tables[start]
        walk = walks.get((start, length, v))
        if walk is None:
            walk = tuple(kernels.walk_back(state.layout, dist, state.allowed, length, v)[1:])
            walks[start, length, v] = walk
        cand = candidates[ci]
        extended.append(
            PathCandidate(
                node_sequence=cand.node_sequence + walk,
                transition_cost=cand.transition_cost + float(dist[length, v]),
                duration_cost=cand.duration_cost + dur_incs[li],
                segment_boundaries=cand.segment_boundaries
                + (cand.segment_boundaries[-1] + length,),
            )
        )
    extended.sort(
        key=lambda c: (c.total_cost(config.duration_weight), c.node_sequence[-1], c.node_sequence)
    )
    return extended[:keep]


def beam_search(
    graph: VideoMotionGraph,
    segments: SegmentList,
    config: BeamConfig = BeamConfig(),
    seed: int = 0,
    start_frame: int | None = None,
) -> SearchResult:
    """Find up to ``beam_width`` low-cost paths matching all target segments.

    Starts are ``beam_width`` random nodes under ``seed`` (all nodes, when the
    beam is at least as wide as the graph), or a single caller-pinned
    ``start_frame``. Deterministic for fixed inputs and seed.
    """
    if len(graph) < 1:
        raise ValidationError("graph has no nodes")
    if start_frame is not None:
        if not 0 <= start_frame < len(graph):
            raise ValidationError(f"start_frame {start_frame} outside 0..{len(graph) - 1}")
        starts = [start_frame]
    elif config.beam_width >= len(graph):
        starts = list(range(len(graph)))
    else:
        rng = np.random.default_rng(seed)
        starts = [int(s) for s in rng.choice(len(graph), size=config.beam_width, replace=False)]

    candidates = [
        PathCandidate(
            node_sequence=(s,),
            transition_cost=0.0,
            duration_cost=0.0,
            segment_boundaries=(0,),
        )
        for s in starts
    ]
    state = _SearchState(graph, config)
    durations = segments.durations
    n_segments = segments.segment_count
    # starts_later[s]: the nodes that can start a segment after s, the ones
    # matching one of features[s + 1 .. S - 1]. No other table is read again.
    starts_later = np.zeros((n_segments, len(graph)), dtype=bool)
    if n_segments > 1:
        later = [state.match(f) for f in segments.features[n_segments - 1 : 0 : -1]]
        starts_later[:-1] = np.logical_or.accumulate(later)[::-1]
    for s in range(n_segments):
        candidates = expand_segment(
            graph,
            candidates,
            segments.features[s + 1],
            durations[s],
            config,
            segment_index=s,
            keep=config.beam_width,
            _state=state,
        )
        for start in [x for x in state.tables if not starts_later[s, x]]:
            del state.tables[start]
    return SearchResult(paths=tuple(candidates), seed=seed, config=config)


def recompute_costs(
    graph: VideoMotionGraph, candidate: PathCandidate, target_durations
) -> tuple[float, float]:
    """Re-derive (transition_cost, duration_cost) from the graph.

    Accumulation mirrors the search exactly (per-segment partial sums), so
    equality with the reported costs is bitwise for identical inputs.
    """
    index = graph.edge_index()
    bounds = candidate.segment_boundaries
    if len(bounds) != len(target_durations) + 1:
        raise StructuralError(
            f"{len(bounds) - 1} matched segments vs {len(target_durations)} targets"
        )
    transition = 0.0
    duration = 0.0
    for s, target in enumerate(target_durations):
        seg_cost = 0.0
        for i in range(bounds[s], bounds[s + 1]):
            a, b = candidate.node_sequence[i], candidate.node_sequence[i + 1]
            edge = index.get((a, b))
            if edge is None:
                raise ValidationError(f"path step ({a}, {b}) is not a graph edge")
            seg_cost += edge.cost
        transition += seg_cost
        achieved = bounds[s + 1] - bounds[s]
        duration += abs(1.0 - achieved / target)
    return transition, duration


# ---------------------------------------------------------------------------
# playback resampling (speed adjustment to the target duration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaybackEntry:
    source_frame: int  # reference frame id (nearest run frame)
    position: float  # fractional index into the run, for downstream blending


@dataclass(frozen=True)
class ResampledRun:
    entries: tuple[PlaybackEntry, ...]
    speed_factor: float  # L' / L_s; >1 plays faster than source


def resample_segment(node_run, target_length: int) -> ResampledRun:
    """Uniformly resample a frame run to ``target_length`` playback entries.

    Nearest-frame selection with round-half-up on the run position
    i * (L'-1) / (L_s-1); endpoints always map to the run's first and last
    frames. The ratio is not checked against the duration window: the search
    has already gated segment lengths, and assembly resamples trimmed runs
    whose ratios may leave it.
    """
    run = [int(f) for f in node_run]
    if not run:
        raise ValidationError("cannot resample an empty run")
    if target_length < 1:
        raise ValidationError(f"target_length must be >= 1, got {target_length}")
    ratio = len(run) / target_length
    entries = []
    if target_length == 1:
        positions = [float(len(run) - 1)]
    else:
        positions = [i * (len(run) - 1) / (target_length - 1) for i in range(target_length)]
    for pos in positions:
        entries.append(PlaybackEntry(source_frame=run[math.floor(pos + 0.5)], position=pos))
    return ResampledRun(entries=tuple(entries), speed_factor=ratio)


# ---------------------------------------------------------------------------
# search-result file
# ---------------------------------------------------------------------------


def save_search_result(path: str | Path, result: SearchResult) -> None:
    doc = {
        "format": SEARCH_RESULT_FORMAT,
        "seed": result.seed,
        "beam_width": result.config.beam_width,
        "duration_window": list(result.config.duration_window),
        "duration_weight": result.config.duration_weight,
        "paths": [
            {
                "nodes": list(p.node_sequence),
                "transition_cost": p.transition_cost,
                "duration_cost": p.duration_cost,
                "boundaries": list(p.segment_boundaries),
            }
            for p in result.paths
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_search_result(path: str | Path) -> SearchResult:
    def build(doc):
        config = BeamConfig(
            beam_width=int(doc["beam_width"]),
            duration_window=tuple(doc["duration_window"]),
            duration_weight=float(doc["duration_weight"]),
        )
        paths = tuple(
            PathCandidate(
                node_sequence=tuple(int(v) for v in p["nodes"]),
                transition_cost=float(p["transition_cost"]),
                duration_cost=float(p["duration_cost"]),
                segment_boundaries=tuple(int(b) for b in p["boundaries"]),
            )
            for p in doc["paths"]
        )
        return SearchResult(paths=paths, seed=int(doc["seed"]), config=config)

    return read_document(
        Path(path).read_bytes(), f"search result {path}", SEARCH_RESULT_FORMAT, build
    )
