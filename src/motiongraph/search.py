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
from .errors import (SegmentUnreachableError, StructuralError, ValidationError, is_integer,
                     read_document)
from .graph import VideoMotionGraph

DEFAULT_BEAM_WIDTH = 20
DEFAULT_BLEND_K = 4
DEFAULT_DURATION_WINDOW = (0.9, 1.1)

SEARCH_RESULT_FORMAT = "search-result/2"


def _is_count(value) -> bool:
    return is_integer(value) and value >= 1


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = DEFAULT_BEAM_WIDTH
    duration_window: tuple[float, float] = DEFAULT_DURATION_WINDOW
    duration_weight: float = 1.0
    avoid_onsets_mid_segment: bool = True
    blend_k: int = DEFAULT_BLEND_K

    def __post_init__(self):
        low, high = self.duration_window
        if not 0.0 < low <= 1.0 <= high < math.inf:
            raise ValidationError(
                f"duration window must satisfy 0 < low <= 1 <= high < inf, "
                f"got {self.duration_window}"
            )
        rules = {
            "beam_width": (_is_count(self.beam_width), "an integer >= 1"),
            "blend_k": (_is_count(self.blend_k), "an integer >= 1"),
            "avoid_onsets_mid_segment": (isinstance(self.avoid_onsets_mid_segment, bool),
                                         "a boolean"),
            "duration_weight": (math.isfinite(self.duration_weight) and self.duration_weight >= 0,
                                "a finite number >= 0"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)!r}")


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
    """The edge layout, blend states and node masks a search's segments
    share, and the cut minima each segment's relaxation recorded."""

    def __init__(self, graph: VideoMotionGraph, config: BeamConfig):
        n = len(graph)
        self.layout = kernels.edge_layout(graph.src, graph.dst, graph.d_feat + graph.d_img,
                                          graph.synthetic, n)
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
        if feature.kind == "keyword":
            return self.keywords == feature.word
        raise ValidationError(f"unknown endpoint feature kind {feature.kind!r}")

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
    if target_length < 1:
        raise ValidationError(f"target segment length must be >= 1, got {target_length}")
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


def _candidate(walks, durations) -> PathCandidate:
    """The path of per-segment (steps, edge costs) walks, its costs summed
    per segment, as ``recompute_costs`` sums them."""
    nodes, bounds = [walks[0][0][0][1]], [0]
    transition = duration = 0.0
    for (steps, costs), target in zip(walks, durations):
        seg_cost = 0.0
        for cost in costs:
            seg_cost += cost
        transition += seg_cost
        duration += abs(1.0 - len(costs) / target)
        nodes += [v for _, v in steps[1:]]
        bounds.append(len(nodes) - 1)
    return PathCandidate(tuple(nodes), transition, duration, tuple(bounds))


def _starts(graph: VideoMotionGraph, config: BeamConfig, seed: int, start_frame: int | None):
    """``beam_width`` random nodes under ``seed`` (all nodes, when
    ``beam_width`` is at least the graph's size), or the pinned ``start_frame``."""
    if start_frame is not None:
        if not 0 <= start_frame < len(graph):
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
    first, and the walks go back through each.
    """
    lo, heads = min(length_costs), list(heads)
    start = max(0, min(lo - 1, len(cuts) - REPLAY_CHUNK))
    stops = [*range(0, start, REPLAY_CHUNK), start] if start else [0]
    seeds = [seed]
    for a, b in zip(stops, stops[1:]):
        chunk = kernels.replay_walk(state.layout, seeds[-1], state.allowed, state.states, cuts[a:b])
        seeds.append(np.where(state.allowed, chunk[-1], np.inf))
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
    return [([heads[i]] + sum(reversed(steps), []), sum(reversed(costs), []))
            for i, (steps, costs) in enumerate(walks)]


def _trace_back(state: _SearchState, tables, durations, config: BeamConfig):
    """The cheapest path to each of the (up to) ``beam_width`` cheapest final
    nodes, cheapest first. Traces one segment at a time, last segment first,
    and consumes ``tables`` and ``state.cuts`` as it goes."""
    final = np.where(state.states.final[:, None], tables[-1], np.inf)
    ends = final.min(axis=0)
    order = np.lexsort((np.arange(ends.size), ends))[: config.beam_width]
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
    starts = _starts(graph, config, seed, start_frame)
    state = _SearchState(graph, config)
    tables = _forward(graph, segments, config, state, starts)
    paths = _trace_back(state, tables, segments.durations, config)
    return SearchResult(paths=tuple(paths), seed=seed, config=config)


def recompute_costs(
    graph: VideoMotionGraph, candidate: PathCandidate, target_durations
) -> tuple[float, float]:
    """Re-derive (transition_cost, duration_cost) from the graph.

    Accumulation mirrors the search exactly (per-segment partial sums), so
    equality with the reported costs is bitwise for identical inputs.
    """
    bounds = candidate.segment_boundaries
    if len(bounds) != len(target_durations) + 1:
        raise StructuralError(
            f"{len(bounds) - 1} matched segments vs {len(target_durations)} targets"
        )
    nodes = candidate.node_sequence
    rows = graph.edge_rows(nodes[:-1], nodes[1:])
    costs = (graph.d_feat[rows] + graph.d_img[rows]).tolist()
    transition = 0.0
    duration = 0.0
    for s, target in enumerate(target_durations):
        seg_cost = 0.0
        for i in range(bounds[s], bounds[s + 1]):
            if rows[i] < 0:
                raise ValidationError(f"path step ({nodes[i]}, {nodes[i + 1]}) is not a graph edge")
            seg_cost += costs[i]
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
    if target_length < 1:
        raise ValidationError(f"target_length must be >= 1, got {target_length}")
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
        params = {f.name: doc[f.name] for f in fields(BeamConfig)}
        config = BeamConfig(**dict(params, duration_window=tuple(params["duration_window"])))
        paths = tuple(
            PathCandidate(tuple(map(int, p["nodes"])), float(p["transition_cost"]),
                          float(p["duration_cost"]), tuple(map(int, p["boundaries"])))
            for p in doc["paths"]
        )
        return SearchResult(paths=paths, seed=int(doc["seed"]), config=config)

    return read_document(
        Path(path).read_bytes(), f"search result {path}", SEARCH_RESULT_FORMAT, build
    )
