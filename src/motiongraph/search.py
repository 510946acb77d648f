"""Search of the motion graph for paths matched to target audio segments.

Each target segment a_s -> a_{s+1} of duration L_s must be covered by a walk
that ends on a node whose audio feature matches the segment's endpoint
feature and whose length L' stays within the duration window
(low <= L'/L_s <= high). A path costs its transition cost (sum of
d_feat + d_img over traversed edges) plus its duration cost (sum of
|1 - L'_s/L_s|), and ``assembly.assemble_edl`` must be able to play it with
blend size k. The search is exact: a dynamic program over segments, blend
states (``kernels.BlendStates``) and nodes.

Because every segment interior is featureless in the target by construction,
walks route around onset-activated nodes: they may appear only as segment
start/terminal nodes (configurable).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import kernels
from .audio import EndpointFeature, SegmentList
from .errors import (SegmentUnreachableError, StructuralError, ValidationError, integer,
                     integers, is_real, read_document, real)
from .graph import VideoMotionGraph

DEFAULT_BEAM_WIDTH = 20
DEFAULT_BLEND_K = 4
DEFAULT_DURATION_WINDOW = (0.9, 1.1)

SEARCH_RESULT_FORMAT = "search-result/2"


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = DEFAULT_BEAM_WIDTH
    duration_window: tuple[float, float] = DEFAULT_DURATION_WINDOW
    duration_weight: float = 1.0
    avoid_onsets_mid_segment: bool = True
    blend_k: int = DEFAULT_BLEND_K

    def __post_init__(self):
        window = self.duration_window
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and all(map(is_real, window)) and 0.0 < window[0] <= 1.0 <= window[1] < math.inf):
            raise ValidationError(
                f"duration window must satisfy 0 < low <= 1 <= high < inf, got {window}"
            )
        object.__setattr__(self, "duration_window", tuple(window))
        for name in ("beam_width", "blend_k"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 1))
        if not isinstance(self.avoid_onsets_mid_segment, bool):
            raise ValidationError("avoid_onsets_mid_segment must be a boolean, "
                                  f"got {self.avoid_onsets_mid_segment!r}")
        object.__setattr__(self, "duration_weight",
                           real("duration_weight", self.duration_weight, 0))


@dataclass(frozen=True)
class PathCandidate:
    node_sequence: tuple[int, ...]
    transition_cost: float
    duration_cost: float
    segment_boundaries: tuple[int, ...]  # indices into node_sequence, [0, ...]

    def __post_init__(self):
        object.__setattr__(self, "node_sequence", integers("node", self.node_sequence, 0))
        for name in ("transition_cost", "duration_cost"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        bounds = integers("boundary", self.segment_boundaries, 0)
        object.__setattr__(self, "segment_boundaries", bounds)
        last = len(self.node_sequence) - 1
        if len(bounds) < 2 or (bounds[0], bounds[-1]) != (0, last) or min(self.durations) < 1:
            raise ValidationError(
                f"segment boundaries must rise strictly from 0 to {last}, got {bounds}")

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

    def __post_init__(self):
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))

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


class _SearchState:
    """The edge layout, blend states and node masks a search's segments
    share, and the cut minima each segment's relaxation recorded."""

    def __init__(self, graph: VideoMotionGraph, config: BeamConfig):
        n = len(graph)
        self.layout = kernels.edge_layout(graph.m, graph.n, graph.d_feat + graph.d_img, n)
        self.states = kernels.BlendStates(config.blend_k)
        self.onset, self.keywords = graph.onset, graph.keyword
        self.allowed = ~self.onset if config.avoid_onsets_mid_segment else np.ones(n, dtype=bool)
        self.cuts: list[list[dict]] = []  # per segment, ``kernels.walk_distances``'s cuts

    def match(self, feature: EndpointFeature) -> np.ndarray:
        """The nodes that can end a segment with ``feature``."""
        if feature.kind == "end":
            return np.ones(self.onset.size, dtype=bool)
        if feature.kind == "onset":
            return self.onset
        return self.keywords == feature.word  # a keyword feature

    def seed(self, starts) -> np.ndarray:
        """The table F_{-1}: cost 0 in the anchor state at each start node."""
        table = np.full((self.states.size, self.onset.size), np.inf)
        table[self.states.anchor, starts] = 0.0
        return table


def _length_costs(target_length: int, config: BeamConfig) -> dict[int, float]:
    """The weighted duration cost of each accepted length, ascending."""
    lo, hi = duration_bounds(target_length, *config.duration_window)
    # Division is monotonic, so every length in lo..hi is in the window.
    return {n: config.duration_weight * abs(1.0 - n / target_length) for n in range(lo, hi + 1)}


def expand_segment(
    graph: VideoMotionGraph,
    prefix: np.ndarray,
    target_feature: EndpointFeature,
    target_length: int,
    config: BeamConfig = BeamConfig(),
    segment_index: int = 0,
    _state: _SearchState | None = None,
) -> np.ndarray:
    """One segment of the search: F_s from ``prefix``, F_{s-1}.

    Both are (blend state, node) tables of prefix costs, duration terms
    included; ``_SearchState.seed`` gives F_{-1}. F_s extends the prefixes by
    window-accepted walks that end on a node matching ``target_feature``.
    The relaxation's cut minima are appended to ``_state.cuts``. Raises
    SegmentUnreachableError when no such walk exists.
    """
    target_length = integer("target_length", target_length, 1)
    state = _state if _state is not None else _SearchState(graph, config)
    length_costs = _length_costs(target_length, config)
    best, cuts = kernels.walk_distances(state.layout, prefix, state.allowed, length_costs,
                                        state.states)
    state.cuts.append(cuts)
    best[:, ~state.match(target_feature)] = np.inf
    if not np.isfinite(best).any():
        raise SegmentUnreachableError(
            segment_index,
            f"segment {segment_index}: no walk of length {min(length_costs)}..{max(length_costs)} "
            f"that can host its blend windows (k={config.blend_k}) reaches a node matching "
            f"{target_feature.kind}" + (f"({target_feature.word})" if target_feature.word else ""),
        )
    return best


def _path_costs(edge_costs, bounds, durations) -> tuple[float, float]:
    """(transition_cost, duration_cost) of steps costing ``edge_costs``, cut at ``bounds``:
    each segment's costs added in order (``sum`` compensates on Python 3.12+), then those."""
    transition = duration = 0.0
    for a, b, target in zip(bounds, bounds[1:], durations):
        seg_cost = 0.0
        for cost in edge_costs[a:b]:
            seg_cost += cost
        transition += seg_cost
        duration += abs(1.0 - (b - a) / target)
    return transition, duration


def _candidate(walks, durations) -> PathCandidate:
    """The path of per-segment (steps, edge costs) walks."""
    nodes, bounds, costs = [walks[0][0][0][1]], [0], []
    for steps, segment_costs in walks:
        nodes += [v for _, v in steps[1:]]
        costs += segment_costs
        bounds.append(len(nodes) - 1)
    return PathCandidate(tuple(nodes), *_path_costs(costs, bounds, durations), tuple(bounds))


def _starts(graph: VideoMotionGraph, config: BeamConfig, seed: int, start_frame: int | None):
    """``beam_width`` random nodes under ``seed`` (all nodes, when
    ``beam_width`` is at least the graph's size), or the pinned ``start_frame``."""
    if start_frame is not None:
        start_frame = integer("start_frame", start_frame, 0)
        if start_frame >= len(graph):
            raise ValidationError(f"start_frame {start_frame} outside 0..{len(graph) - 1}")
        return [start_frame]
    if config.beam_width >= len(graph):
        return list(range(len(graph)))
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(len(graph), size=config.beam_width, replace=False)]


def _forward(graph, segments: SegmentList, config: BeamConfig, state: _SearchState, starts):
    """The tables F_{-1}..F_{S-1}, each segment's cuts recorded in ``state``."""
    tables = [state.seed(starts)]
    for s, target in enumerate(segments.durations):
        tables.append(expand_segment(graph, tables[-1], segments.features[s + 1], target, config,
                                     segment_index=s, _state=state))
    return tables


#: Steps in a chunk of the traceback's replay. A segment is traced back one
#: chunk of replayed step tables at a time: at most this many plus one, or
#: the duration window's hi - lo + 2, plus one checkpoint table per chunk.
REPLAY_CHUNK = 16


def _walk_segment(state: _SearchState, seed, cuts, length_costs, reached, heads, s: int):
    """The walk realizing each head (q, v) of ``reached`` (F_s), as
    ``kernels.walk_back`` gives it, replayed from ``seed`` (F_{s-1}) and the
    segment's ``cuts``.

    The last chunk holds the last ``REPLAY_CHUNK`` steps, or all of the
    duration window's. A first replay of the steps before it keeps the
    allowed-masked step table every ``REPLAY_CHUNK`` steps and where the last
    chunk starts. The chunks are replayed from these checkpoints, last chunk
    first, and the walks go back through each. Each chunk is freed before
    the next replay, so one chunk of step tables is alive at a time.
    """
    lo, heads = min(length_costs), list(heads)
    start = max(0, min(lo - 1, len(cuts) - REPLAY_CHUNK))
    stops = [*range(0, start, REPLAY_CHUNK), start] if start else [0]
    seeds = [seed]
    for a, b in zip(stops, stops[1:]):
        chunk = kernels.replay_walk(state.layout, seeds[-1], state.allowed, state.states, cuts[a:b])
        seeds.append(np.where(state.allowed, chunk[-1], np.inf))
        del chunk
    walks = [([], []) for _ in heads]  # per head, its chunks' steps and costs, last first
    top = len(cuts)
    for a in reversed(stops):
        table = kernels.replay_walk(state.layout, seeds.pop(), state.allowed, state.states,
                                    cuts[a:top])
        for i, (q, v) in enumerate(heads):
            length = top
            if top == len(cuts):
                length = next((n for n, cost in length_costs.items()
                               if table[n - a, q, v] + cost == reached[q, v]), None)
                if length is None:
                    raise StructuralError(f"segment {s}: no replayed walk length gives the "
                                          f"cost {reached[q, v]!r} of state {q} at node {v}")
            steps, costs = kernels.walk_back(state.layout, table, state.allowed, state.states,
                                             length - a, q, v)
            walks[i][0].append(steps[1:])
            walks[i][1].append(costs)
            heads[i] = steps[0]
        top = a
        del table
    return [([heads[i]] + sum(reversed(steps), []), sum(reversed(costs), []))
            for i, (steps, costs) in enumerate(walks)]


def _trace_back(state: _SearchState, tables, durations, config: BeamConfig):
    """The cheapest path to each of the (up to) ``beam_width`` cheapest final
    nodes, cheapest first. Traces one segment at a time, last segment first,
    and consumes ``tables`` and ``state.cuts`` as it goes."""
    final = np.where(state.states.final[:, None], tables[-1], np.inf)
    ends = final.min(axis=0)
    order = np.argsort(ends, kind="stable")[: config.beam_width]
    heads = [(int(np.argmin(final[:, v])), int(v)) for v in order if np.isfinite(ends[v])]
    if not heads:
        raise SegmentUnreachableError(
            len(durations) - 1,
            f"segment {len(durations) - 1}: no path ends in a run that can host the blend "
            f"windows (k={config.blend_k}) with a frame left to play",
        )
    walks: list[list] = [[] for _ in heads]  # per path, its segments' walks, last first
    for s in reversed(range(len(durations))):
        reached = tables.pop()  # F_s
        segment = _walk_segment(state, tables[-1], state.cuts.pop(),
                                _length_costs(durations[s], config), reached, heads, s)
        for i, walk in enumerate(segment):
            walks[i].append(walk)
            heads[i] = walk[0][0]
    return sorted((_candidate(w[::-1], durations) for w in walks),
                  key=lambda p: p.total_cost(config.duration_weight))


def beam_search(
    graph: VideoMotionGraph,
    segments: SegmentList,
    config: BeamConfig = BeamConfig(),
    seed: int = 0,
    start_frame: int | None = None,
) -> SearchResult:
    """The cheapest assemblable paths matching all target segments.

    Starts are ``beam_width`` random nodes under ``seed`` (all nodes, when
    ``beam_width`` is at least the graph's size), or a single caller-pinned
    ``start_frame``. Returns the cheapest path to each of the (up to)
    ``beam_width`` cheapest final nodes. The forward pass keeps the F_s
    tables and each step's cut minima; the traceback replays one segment's
    step tables at a time from them. Deterministic for fixed inputs and seed.
    """
    if len(graph) < 1:
        raise ValidationError("graph has no nodes")
    seed = integer("seed", seed, 0)
    starts = _starts(graph, config, seed, start_frame)
    state = _SearchState(graph, config)
    tables = _forward(graph, segments, config, state, starts)
    paths = _trace_back(state, tables, segments.durations, config)
    return SearchResult(paths=tuple(paths), seed=seed, config=config)


def _check_segment_count(candidate: PathCandidate, target_durations) -> None:
    """Refuse a path whose segments are not one per target duration."""
    if len(candidate.durations) != len(target_durations):
        raise StructuralError(
            f"{len(candidate.durations)} matched segments vs {len(target_durations)} targets")


def recompute_costs(
    graph: VideoMotionGraph, candidate: PathCandidate, target_durations
) -> tuple[float, float]:
    """Re-derive (transition_cost, duration_cost) from the graph through the
    search's own ``_path_costs``, so they equal the reported costs bit for bit."""
    _check_segment_count(candidate, target_durations)
    bounds, nodes = candidate.segment_boundaries, candidate.node_sequence
    costs = graph.edge_costs(nodes[:-1], nodes[1:])
    if np.isnan(costs).any():
        i = int(np.argmax(np.isnan(costs)))
        raise ValidationError(f"path step ({nodes[i]}, {nodes[i + 1]}) is not a graph edge")
    return _path_costs(costs.tolist(), bounds, target_durations)


# ---------------------------------------------------------------------------
# playback resampling (speed adjustment to the target duration)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaybackEntry:
    source_frame: int  # reference frame id (nearest run frame)
    position: float  # fractional index into the run, for downstream blending

    def __post_init__(self):
        object.__setattr__(self, "source_frame", integer("frame source", self.source_frame, 0))
        object.__setattr__(self, "position", real("frame position", self.position))


def resample_segment(node_run, target_length: int) -> tuple[PlaybackEntry, ...]:
    """Uniformly resample a frame run to ``target_length`` playback entries.

    Nearest-frame selection with round-half-up on the run position
    i * (L'-1) / (L_s-1); endpoints always map to the run's first and last
    frames. The speed ratio L_s / L' is not checked against the duration
    window: the search has already gated segment lengths, and assembly
    resamples trimmed runs whose ratios may leave it.
    """
    run = [int(f) for f in node_run]
    if not run:
        raise ValidationError("cannot resample an empty run")
    target_length = integer("target_length", target_length, 1)
    if target_length == 1:
        positions = [float(len(run) - 1)]
    else:
        positions = [i * (len(run) - 1) / (target_length - 1) for i in range(target_length)]
    return tuple(PlaybackEntry(run[math.floor(pos + 0.5)], pos) for pos in positions)


# ---------------------------------------------------------------------------
# search-result file
# ---------------------------------------------------------------------------


def save_search_result(path: str | Path, result: SearchResult) -> None:
    doc = {
        "format": SEARCH_RESULT_FORMAT,
        "seed": result.seed,
        **asdict(result.config),
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
        config = BeamConfig(**{f.name: doc[f.name] for f in fields(BeamConfig)})
        paths = tuple(PathCandidate(p["nodes"], p["transition_cost"], p["duration_cost"],
                                    p["boundaries"]) for p in doc["paths"])
        return SearchResult(paths=paths, seed=doc["seed"], config=config)

    return read_document(
        Path(path).read_bytes(), f"search result {path}", SEARCH_RESULT_FORMAT, build
    )
