"""Hot numeric kernels, in numpy.

Three inner loops dominate the engine's runtime: capsule rasterization,
popcount-based mask intersection over candidate frame pairs, and the
step-synchronous relaxation inside the beam search. Each has one
implementation. Popcount uses ``np.bitwise_count`` where numpy provides it
(numpy >= 2.0) and a byte lookup table otherwise; both count the same bits.
The walk relaxation is one gather-add and one segmented minimum per step
over an edge layout built once per search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Recorded by callers that report which backend ran; numpy is the only one.
BACKEND = "numpy"
HAVE_NUMBA = False

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


# ---------------------------------------------------------------------------
# capsule rasterization
#
# A pixel is set iff its center lies within the projected bone segment's
# perspective-scaled radius: with screen endpoints p0, p1, inverse depths
# iz0, iz1 and world radius r, the nearest segment point at parameter t has
# projected radius f*r*((1-t)*iz0 + t*iz1). Inverse depth interpolates
# linearly along the *projected* segment.
# ---------------------------------------------------------------------------


def rasterize_capsules(p0, p1, iz0, iz1, radius, focal, width, height):
    """Rasterize projected bone capsules into a fresh (height, width) bool mask.

    ``p0``/``p1`` are (B, 2) screen-space segment endpoints in pixels,
    ``iz0``/``iz1`` the matching inverse camera depths, ``radius`` the
    per-bone world radii in meters.
    """
    out = np.zeros((height, width), dtype=bool)
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    iz0 = np.asarray(iz0, dtype=np.float64)
    iz1 = np.asarray(iz1, dtype=np.float64)
    radius = np.asarray(radius, dtype=np.float64)
    focal = float(focal)
    width = int(width)
    height = int(height)
    for b in range(p0.shape[0]):
        ax, ay = p0[b]
        bx, by = p1[b]
        rmax = focal * radius[b] * max(iz0[b], iz1[b])
        x_lo = max(int(np.floor(min(ax, bx) - rmax - 1.0)), 0)
        x_hi = min(int(np.ceil(max(ax, bx) + rmax + 1.0)), width - 1)
        y_lo = max(int(np.floor(min(ay, by) - rmax - 1.0)), 0)
        y_hi = min(int(np.ceil(max(ay, by) + rmax + 1.0)), height - 1)
        if x_lo > x_hi or y_lo > y_hi:
            continue
        xs = np.arange(x_lo, x_hi + 1, dtype=np.float64) + 0.5
        ys = np.arange(y_lo, y_hi + 1, dtype=np.float64) + 0.5
        px, py = np.meshgrid(xs, ys)
        dx = bx - ax
        dy = by - ay
        denom = dx * dx + dy * dy
        if denom > 0.0:
            t = ((px - ax) * dx + (py - ay) * dy) / denom
            t = np.clip(t, 0.0, 1.0)
        else:
            t = np.zeros_like(px)
        sx = ax + t * dx
        sy = ay + t * dy
        iz = (1.0 - t) * iz0[b] + t * iz1[b]
        rho = focal * radius[b] * iz
        d2 = (px - sx) ** 2 + (py - sy) ** 2
        inside = d2 <= rho * rho
        out[y_lo : y_hi + 1, x_lo : x_hi + 1] |= inside
    return out


# ---------------------------------------------------------------------------
# pairwise mask intersections (packed popcount)
# ---------------------------------------------------------------------------


def pack_masks(masks):
    """Bit-pack (N, H, W) boolean masks into (N, W64) uint64 rows."""
    arr = np.asarray(masks, dtype=bool)
    flat = arr.reshape(arr.shape[0], math.prod(arr.shape[1:]))
    packed8 = np.packbits(flat, axis=1)
    pad = (-packed8.shape[1]) % 8
    if pad:
        packed8 = np.pad(packed8, ((0, 0), (0, pad)))
    return packed8.view(np.uint64)


def pair_intersections(packed, pairs):
    """Count intersecting set bits for each (m, n) row pair of ``packed``."""
    pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
    packed8 = packed.view(np.uint8)
    out = np.empty(pairs.shape[0], dtype=np.int64)
    # About 1 MiB of rows per temporary: small enough to stay in cache and
    # to be reused by the allocator instead of mapped fresh for each chunk.
    chunk = max(1, (1 << 20) // max(packed8.shape[1], 1))
    hw_popcount = getattr(np, "bitwise_count", None)
    for lo in range(0, pairs.shape[0], chunk):
        sel = pairs[lo : lo + chunk]
        both = packed8[sel[:, 0]] & packed8[sel[:, 1]]
        if hw_popcount is not None:
            out[lo : lo + chunk] = hw_popcount(both).sum(axis=1, dtype=np.int64)
        else:
            out[lo : lo + chunk] = _POPCOUNT8[both].sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# step-synchronous shortest-path relaxation
#
# dist[l, v] = min cost of an l-edge walk from the start node to v whose
# intermediate nodes are all flagged allowed (the start itself is exempt).
# Only distances are stored. A walk is recovered afterwards, one step at a
# time, as the smallest-index in-neighbour u whose sum prev[u] + cost(u, v)
# equals dist[l, v]: the same float the relaxation produced, so the walk is
# independent of edge order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeLayout:
    """Edges grouped by destination (CSR), sources ascending within a group.

    The in-edges of node v are ``src[indptr[v]:indptr[v + 1]]`` with costs
    ``cost[indptr[v]:indptr[v + 1]]``. ``group_dst``/``group_start`` list the
    nodes that have in-edges and where their groups begin.
    """

    n_nodes: int
    indptr: np.ndarray
    src: np.ndarray
    cost: np.ndarray
    group_dst: np.ndarray
    group_start: np.ndarray


def edge_layout(src, dst, cost, n_nodes) -> EdgeLayout:
    """Group (src, dst, cost) edge arrays by destination for ``walk_distances``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    order = np.lexsort((src, dst))
    counts = np.bincount(dst, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    group_dst = np.flatnonzero(counts)
    return EdgeLayout(
        n_nodes=int(n_nodes),
        indptr=indptr,
        src=src[order],
        cost=cost[order],
        group_dst=group_dst,
        group_start=indptr[group_dst],
    )


def walk_distances(layout: EdgeLayout, start, allowed, n_steps, dist=None):
    """Exact-length walk costs from ``start`` with restricted interior nodes.

    Returns ``dist`` of shape (n_steps+1, n_nodes): the minimal cost over
    walks of exactly ``l`` edges, ``inf`` where there is none. Pass the table
    of an earlier call for the same start and ``allowed`` as ``dist`` to
    extend it: only the missing steps are computed.
    """
    if dist is not None and dist.shape[0] > n_steps:
        return dist
    table = np.full((n_steps + 1, layout.n_nodes), np.inf)
    if dist is None:
        done = 0
        table[0, start] = 0.0
    else:
        done = dist.shape[0] - 1
        table[: done + 1] = dist
    for step in range(done + 1, n_steps + 1):
        prev = table[step - 1]
        if step > 1:
            prev = np.where(allowed, prev, np.inf)
        mins = np.minimum.reduceat(prev[layout.src] + layout.cost, layout.group_start)
        if not np.isfinite(mins).any():
            break
        table[step, layout.group_dst] = mins
    return table


def walk_back(layout: EdgeLayout, dist, allowed, length, node):
    """The walk realizing the finite ``dist[length, node]``, start first."""
    walk = [int(node)]
    for step in range(length, 0, -1):
        lo, hi = layout.indptr[node], layout.indptr[node + 1]
        preds = layout.src[lo:hi]
        prev = dist[step - 1, preds]
        if step > 1:
            prev = np.where(allowed[preds], prev, np.inf)
        node = int(preds[np.flatnonzero(prev + layout.cost[lo:hi] == dist[step, node])[0]])
        walk.append(node)
    walk.reverse()
    return walk
