"""Output checks: format-independent digests, cost re-derivation, EDL round trip.

Digests hash the values the program produced, not the bytes of its files,
so a later change of file format keeps them comparable. ``DigestStore``
keeps the digests of earlier runs of the same workload and seed, and a run
whose digest differs from a stored one fails its check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def _hex(x: float) -> str:
    return float(x).hex()


def graph_digest(graph) -> str:
    """sha256 over the sorted (src, dst, kind, d_feat, d_img) edge tuples."""
    h = hashlib.sha256()
    for e in sorted(graph.edges, key=lambda e: (e.src, e.dst)):
        h.update(f"{e.src} {e.dst} {e.kind} {_hex(e.d_feat)} {_hex(e.d_img)}\n".encode())
    return h.hexdigest()


def path_digest(candidate) -> str:
    doc = [
        list(candidate.node_sequence),
        list(candidate.segment_boundaries),
        _hex(candidate.transition_cost),
        _hex(candidate.duration_cost),
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def edl_digest(edl) -> str:
    """Digest of the playback plan; the graph file's sha256 in the provenance is left out."""
    from motiongraph.assembly import RunEntry

    h = hashlib.sha256()
    head = [
        _hex(edl.fps),
        edl.total_frames,
        edl.start_frame,
        edl.blend_k,
        list(edl.speech_frames),
        edl.provenance.get("search_seed"),
        edl.provenance.get("path_rank"),
    ]
    h.update(json.dumps(head).encode())
    for entry in edl.entries:
        if isinstance(entry, RunEntry):
            doc = [
                "run",
                entry.source_start,
                entry.source_end,
                _hex(entry.speed_factor),
                [[pb.source_frame, _hex(pb.position)] for pb in entry.frames],
            ]
            h.update(json.dumps(doc).encode())
        else:
            s = entry.schedule
            h.update(json.dumps(["transition", list(s.src_window), list(s.dst_window)]).encode())
            for step in s.steps:
                h.update(json.dumps([_hex(step.alpha), step.src_frame, step.dst_frame]).encode())
                h.update(np.asarray(step.pose.root_translation, dtype="<f8").tobytes())
                h.update(np.asarray(step.pose.joint_rotations, dtype="<f8").tobytes())
    return h.hexdigest()


def cost_problems(result, graph, segments) -> list[str]:
    """Re-derive every survivor's cost with ``search.recompute_costs``."""
    from motiongraph import search

    problems = []
    for rank, cand in enumerate(result.paths):
        transition, duration = search.recompute_costs(graph, cand, segments.durations)
        if (transition, duration) != (cand.transition_cost, cand.duration_cost):
            problems.append(
                f"survivor {rank}: reported cost ({cand.transition_cost!r}, {cand.duration_cost!r}) "
                f"!= re-derived ({transition!r}, {duration!r})"
            )
    return problems


def edl_roundtrip_problems(edl, scratch: Path) -> list[str]:
    """save_edl -> load_edl must give back the same plan and the same bytes."""
    from motiongraph import assembly

    first, second = scratch / "roundtrip_a.json", scratch / "roundtrip_b.json"
    assembly.save_edl(first, edl)
    loaded = assembly.load_edl(first)
    assembly.save_edl(second, loaded)
    problems = []
    if edl_digest(loaded) != edl_digest(edl):
        problems.append("EDL changed in a save_edl/load_edl round trip")
    if first.read_bytes() != second.read_bytes():
        problems.append("EDL file bytes changed in a save_edl/load_edl/save_edl round trip")
    first.unlink()
    second.unlink()
    return problems


class DigestStore:
    """Digests of earlier runs of one workload and seed, keyed by output name."""

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, digest: str) -> list[str]:
        old = self.known.setdefault(key, digest)
        if old != digest:
            return [f"{key} digest {digest[:12]} differs from an earlier run of this seed ({old[:12]})"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
