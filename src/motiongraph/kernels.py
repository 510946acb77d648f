"""Hot numeric kernels, in numpy.

Three inner loops dominate the engine's runtime: capsule rasterization,
popcount-based mask intersection over candidate frame pairs, and the
step-synchronous relaxation inside the search. Each has one
implementation. The rasterizer works on the pixel rows of every bone of a
chunk of frames at once: it sets the part of each row well inside the bone's
capsule without a test and tests only a thin band along the outline, so its
numpy calls are per block of rows, not per bone or frame. Popcount is
``np.bitwise_count`` over 64-bit words, which is why the engine needs
numpy >= 2.0.
The walk relaxation is a row shift along the natural chain plus one
gather-add and one segmented minimum per step and target state over the
synthetic edges, both ways of each transition, laid out once per search. It
records those minima, so a segment's step tables are replayed from row shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

#: Recorded by callers that report which backend ran; numpy is the only one.
BACKEND = "numpy"
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# capsule rasterization
#
# A pixel is set iff its center lies within the projected bone segment's
# perspective-scaled radius: with screen endpoints p0, p1, inverse depths
# iz0, iz1 and world radius r, the nearest segment point at parameter t has
# projected radius f*r*((1-t)*iz0 + t*iz1). Inverse depth interpolates
# linearly along the *projected* segment. Only pixels of a bone's box (its
# endpoints' bounds widened by f*r*max(iz0, iz1) + 1, clipped to the image)
# are ever set. ``_capsule_test`` is that test, pixel by pixel.
#
# The radius lies between rmin = f*r*min(iz0, iz1) and rmax = f*r*max(iz0, iz1),
# so the test is foregone away from the outline. Each row of each bone's box
# gets two x-spans, its cuts through two capsules of constant radius (two end
# discs and the strip between them): an outer one of radius rmax + M and an
# inner one of radius rmin - M. Pixels in the inner span are set untested,
# pixels outside the outer span are skipped, and only the band between the
# two goes through the test. All bones of a chunk are drawn together, their
# boxes' rows in blocks of about RASTER_BLOCK pixels.
#
# The result is the test's, bit for bit. Let S be a bone's largest coordinate
# or radius magnitude. Each float operation rounds by at most 2^-53 of its
# result, and the test and each span end chain a few dozen of them on values
# below about 4S, so rounding moves every distance they stand for by far less
# than 2^-40 S. (Where a span end is ill-conditioned, as for a nearly level
# strip edge, it moves along a line on which the distance to the segment
# barely changes.) A capsule is convex, so the pixels between a span's ends
# are as close. M = 2^-8 + 2^-30 S dominates the rounding: a pixel in the
# inner span lies within rmin - M + 2^-40 S of the segment, where the test
# reads it inside, and a pixel outside the outer span lies farther than
# rmax + M - 2^-40 S, where the test reads it outside. Every span operation is
# monotone in the radius, so the inner span lies within the outer one. A bone
# with S >= 2^60 (or NaN), whose spans could overflow, goes through the test
# alone over its whole box. A bone with a non-finite endpoint or a NaN
# f*r*max(iz0, iz1) draws nothing, as the test reads it.
# ---------------------------------------------------------------------------


def _capsule_test(flat_index, params, width, height):
    """Which pixels of ``flat_index`` (frame * H * W + row * W + column) lie
    within their capsule, of (7, n) ``params`` (ax, ay, bx, by, iz0, iz1, f*r)."""
    ax, ay, bx, by, za, zb, fr = params
    px = flat_index % width + 0.5
    py = flat_index // width % height + 0.5
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    t = (px - ax) * dx + (py - ay) * dy
    t /= np.where(denom > 0.0, denom, 1.0)
    np.clip(t, 0.0, 1.0, out=t)
    t[denom <= 0.0] = 0.0  # a zero-length bone is a disc
    d2 = t * dx
    d2 += ax
    np.subtract(px, d2, out=d2)
    d2 *= d2
    rho2 = t * dy
    rho2 += ay
    np.subtract(py, rho2, out=rho2)
    rho2 *= rho2
    d2 += rho2
    np.subtract(1.0, t, out=rho2)
    rho2 *= za
    t *= zb
    rho2 += t
    rho2 *= fr
    rho2 *= rho2
    return d2 <= rho2


def _runs(starts, lengths):
    """The indices of the runs ``starts[i] .. starts[i] + lengths[i] - 1``, in order."""
    ends = np.cumsum(lengths, dtype=starts.dtype)
    index = np.arange(ends[-1] if ends.size else 0, dtype=starts.dtype)
    ends -= lengths
    ends -= starts
    index -= np.repeat(ends, lengths)
    return index


#: Box pixels drawn at a time, in whole capsules: each block's arrays stay in
#: cache and hold about that many values, plus at most one box's.
RASTER_BLOCK = 2**18


def rasterize_capsules(p0, p1, iz0, iz1, radius, visible, focal, width, height):
    """Rasterize projected bone capsules into fresh (F, height, width) bool masks.

    ``p0``/``p1`` are (F, B, 2) screen-space segment endpoints in pixels,
    ``iz0``/``iz1`` the matching (F, B) inverse camera depths, ``radius``
    the world radii in meters (broadcast to (F, B)), and ``visible`` the
    (F, B) flags of the bones to draw; the values of the others are not read.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    iz0 = np.asarray(iz0, dtype=np.float64)
    frames, bones = iz0.shape
    out = np.zeros((frames, height, width), dtype=bool)
    stack = np.stack([
        p0[..., 0], p0[..., 1], p1[..., 0], p1[..., 1], iz0,
        np.asarray(iz1, dtype=np.float64),
        focal * np.broadcast_to(np.asarray(radius, dtype=np.float64), (frames, bones)),
    ])
    visible = np.asarray(visible, dtype=bool) & np.isfinite(stack[:4]).all(axis=0)
    # Hidden bones read as zeros. Clamping x_lo to at most width and x_hi to
    # at least -1 keeps an off-screen box empty (x_lo > x_hi), and so does a
    # NaN radius, taken as -inf.
    ax, ay, bx, by, za, zb, fr = np.where(visible, stack, 0.0)
    rmax = fr * np.maximum(za, zb)
    rmax[np.isnan(rmax)] = -np.inf
    x_lo = np.clip(np.floor(np.minimum(ax, bx) - rmax - 1.0), 0, width).astype(np.int64)
    x_hi = np.clip(np.ceil(np.maximum(ax, bx) + rmax + 1.0), -1, width - 1).astype(np.int64)
    y_lo = np.clip(np.floor(np.minimum(ay, by) - rmax - 1.0), 0, height).astype(np.int64)
    y_hi = np.clip(np.ceil(np.maximum(ay, by) + rmax + 1.0), -1, height - 1).astype(np.int64)
    f_idx, b_idx = np.nonzero(visible & (x_lo <= x_hi) & (y_lo <= y_hi))
    if f_idx.size == 0:
        return out
    # From here on, one value per drawn capsule.
    capsules = stack[:, f_idx, b_idx]
    x_lo, x_hi, y_lo, y_hi = (v[f_idx, b_idx] for v in (x_lo, x_hi, y_lo, y_hi))
    geometry = _span_geometry(capsules, x_lo, x_hi, y_lo)
    heights = y_hi - y_lo + 1
    pixels = np.cumsum(heights * (x_hi - x_lo + 1))
    first = f_idx * (height * width) + y_lo * width  # each box's top left pixel
    block = np.concatenate([[0], pixels[:-1] // RASTER_BLOCK])
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), f_idx.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _draw_rows(out.reshape(-1), capsules[:, lo:hi], geometry[:, lo:hi], first[lo:hi],
                   heights[lo:hi], width, height)
    return out


def _span_geometry(capsules, x_lo, x_hi, y_lo):
    """Per capsule, the (18, n) constants ``_draw_rows`` takes its rows' spans
    from, in column units (pixel x's center at x + 0.5)."""
    ax, ay, bx, by, za, zb, fr = capsules
    r0, r1 = fr * za, fr * zb
    scale = np.max(np.abs([ax, ay, bx, by, r0, r1]), axis=0, initial=0.0)
    margin = 2.0**-8 + 2.0**-30 * scale
    exact = scale < 2.0**60
    outer = np.where(exact, np.maximum(np.abs(r0), np.abs(r1)) + margin, np.inf)
    inner = np.minimum(r0, r1) - margin
    inner[~(exact & (inner > 0.0))] = np.nan
    # A bone drawn by the test alone is taken as a point at 0 with an infinite
    # outer radius and no inner one.
    ax, ay, bx, by = np.where(exact, capsules[:4], 0.0) - 0.5
    dx, dy = bx - ax, by - ay
    length = np.sqrt(dx * dx + dy * dy)
    # The strip |across| <= R, 0 <= along <= length is, in row v = py - ay,
    # x - ax in [v*dx/dy -+ R*length/|dy|] and in v*dy/dx + [0, length^2/dx];
    # a zero dx or dy is taken as 2^-60 length (zero length: no strip).
    with np.errstate(invalid="ignore"):
        tilt = 2.0**-60 * length
        cross_dy = np.where(dy == 0.0, tilt, dy)
        cross_dx = np.where(dx == 0.0, tilt, dx)
        widen = length / np.abs(cross_dy)
        along = length * length / cross_dx
        return np.stack([
            y_lo - ay, dy, ax, bx, outer * outer, inner * inner, dx / cross_dy, dy / cross_dx,
            ax - outer * widen, ax + outer * widen, ax - inner * widen, ax + inner * widen,
            ax + np.minimum(along, 0.0), ax + np.maximum(along, 0.0),
            x_lo, x_hi, x_lo - 1, x_hi + 1,
        ])


def _draw_rows(flat, capsules, geometry, first, heights, width, height):
    """Draw the box rows of a block of capsules into ``flat``: set their inner
    spans, test their bands and skip the rest."""
    with np.errstate(invalid="ignore"):
        (va, dy, ax, bx, outer2, inner2, slope, run, out_lo, out_hi, in_lo, in_hi,
         along_lo, along_hi, x_lo, x_hi, x_lo1, x_hi1) = np.repeat(geometry, heights, axis=1)
        row = _runs(np.zeros_like(first), heights)  # within its box
        va += row  # py - ay
        vb = va - dy
        q = va * slope
        run *= va
        along_lo -= run
        along_hi -= run
        va *= va
        vb *= vb
        spans = []
        for r2, lo, hi in ((outer2, out_lo, out_hi), (inner2, in_lo, in_hi)):
            lo += q
            hi += q
            np.maximum(lo, along_lo, out=lo)
            np.minimum(hi, along_hi, out=hi)
            missed = lo > hi  # the row misses the strip
            lo[missed] = hi[missed] = np.nan
            ha = np.sqrt(r2 - va)
            hb = np.sqrt(r2 - vb)
            np.fmin(lo, ax - ha, out=lo)
            np.fmin(lo, bx - hb, out=lo)
            np.fmax(hi, ax + ha, out=hi)
            np.fmax(hi, bx + hb, out=hi)
            # NaN: the row misses the capsule, so lo goes past x_hi.
            np.fmin(lo, x_hi1, out=lo)
            np.maximum(lo, x_lo, out=lo)
            np.fmax(hi, x_lo1, out=hi)
            np.minimum(hi, x_hi, out=hi)
            spans.append((np.ceil(lo).astype(first.dtype), np.floor(hi).astype(first.dtype)))
    # Every operation above is monotone in the radius, so the inner span lies
    # within the outer one.
    (o_lo, o_hi), (i_lo, i_hi) = spans
    row_first = np.repeat(first, heights) + row * width
    filled = i_hi - i_lo + 1
    np.maximum(filled, 0, out=filled)
    flat[_runs(row_first + i_lo, filled)] = True
    # The band: the outer span left and right of the inner one, all of it
    # where the inner one is empty.
    left_end = np.minimum(i_lo, o_hi + 1)
    right_start = np.maximum(i_hi + 1, left_end)
    band = np.concatenate([left_end - o_lo, o_hi + 1 - right_start])
    runs = np.flatnonzero(band > 0)
    band = band[runs]
    cells = _runs(np.concatenate([row_first + o_lo, row_first + right_start])[runs], band)
    owner = np.searchsorted(np.cumsum(heights), runs % row.size, side="right")
    inside = _capsule_test(cells, capsules[:, np.repeat(owner, band)], width, height)
    flat[cells[inside]] = True


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
    out = np.empty(pairs.shape[0], dtype=np.int64)
    # About 1 MiB of rows per temporary: small enough to stay in cache and
    # to be reused by the allocator instead of mapped fresh for each chunk.
    chunk = max(1, (1 << 20) // max(packed[:1].nbytes, 1))
    for lo in range(0, pairs.shape[0], chunk):
        sel = pairs[lo : lo + chunk]
        both = packed[sel[:, 0]] & packed[sel[:, 1]]
        out[lo : lo + chunk] = np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    return out


# ---------------------------------------------------------------------------
# step-synchronous relaxation over (blend state, node)
#
# table[l, q, v] = min cost of an l-edge walk from a finite entry of the
# seed table, at that entry's cost, to node v in blend state q, whose
# interior nodes are all flagged allowed. The forward pass keeps only two
# step tables and the cut minima of each step; ``replay_walk`` rebuilds a
# segment's tables from them for the traceback. Only costs are stored. A walk
# is recovered afterwards, one step at a time, as the smallest predecessor
# (node, then state) whose sum prev + cost equals the stored cost: the same
# float the relaxation produced, so the walk is independent of edge order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeLayout:
    """Synthetic edges grouped by destination.

    The synthetic in-edges of node v come from ``src[indptr[v]:indptr[v + 1]]``, ascending,
    with costs ``cost[indptr[v]:indptr[v + 1]]``; ``group_dst``/``group_start`` list the
    nodes that have synthetic in-edges and where their groups begin. Natural edges are not
    stored: they are the chain 0 -> 1 -> ... -> N-1 at cost 0.
    """

    indptr: np.ndarray
    src: np.ndarray
    cost: np.ndarray
    group_dst: np.ndarray
    group_start: np.ndarray


def edge_layout(m, n, cost, n_nodes) -> EdgeLayout:
    """Group by destination, for ``walk_distances``, the synthetic edges of an ``n_nodes``-node
    graph's transitions (m, n), by strictly rising (m, n) with m < n: edges i and i + P are
    ``m[i] -> n[i]`` and back, at ``cost[i]``. A stable sort of them by destination lists
    each node's sources ascending (the m below it by rising m, then the n above it). The
    sort reads the destinations in the smallest type that holds a node id: below 65,536
    nodes numpy sorts it by radix, not by timsort, with the same one stable result."""
    dst = np.concatenate([n, m]).astype(np.int64, copy=False)
    order = np.argsort(dst.astype(np.min_scalar_type(n_nodes)), kind="stable")
    counts = np.bincount(dst, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    group_dst = np.flatnonzero(counts)
    return EdgeLayout(indptr, np.concatenate([m, n]).astype(np.int64)[order],
                      np.take(np.asarray(cost, dtype=np.float64), order, mode="wrap"),  # i + P: i
                      group_dst, indptr[group_dst])


class BlendStates:
    """The blend states of a path for blend size k, mirroring the trims of
    ``assembly.assemble_edl``, so every walk they admit can be played.

    State 0 is the anchor, the path's first node, which plays no frame.
    ``p0(c)``: no cut played yet, run length c = 1..k+2. ``b0(c)``/``b1(c)``:
    after a cut, run length c = 1..2k+2, before/after some run kept a core
    (the frames left once its blend windows are trimmed off). Each largest c
    stands for "at least c". A natural edge adds 1 to c. A synthetic edge
    leaves the anchor for p0(1) (a hard cut before the first frame), or a run
    long enough for its blend windows (k+1 in phase 0, 2k+2 after a cut) for
    a new run at c = 1.
    """

    def __init__(self, k: int):
        self.k, self.size, self.anchor = k, 5 * k + 7, 0
        p0, b0, b1, top = self.p0, self.b0, self.b1, 2 * k + 2
        #: Predecessor states over a natural / a synthetic edge, ascending.
        self.natural_preds = {
            p0(1): (0,), p0(k + 2): (p0(k + 1), p0(k + 2)),
            b1(top): (b0(top), b1(top - 1), b1(top)),
            **{p0(c): (p0(c - 1),) for c in range(2, k + 2)},
            **{b0(c): (b0(c - 1),) for c in range(2, top + 1)},
            **{b1(c): (b1(c - 1),) for c in range(2, top)},
        }
        #: Every natural state q has q - 1 among its predecessors; these are
        #: the (q, p) pairs of its other predecessors p.
        self.extra_natural_preds = [(q, p) for q, preds in self.natural_preds.items()
                                    for p in preds if p != q - 1]
        self.synthetic_preds = {p0(1): (0,), b0(1): (p0(k + 1), b0(top)),
                                b1(1): (p0(k + 2), b1(top))}
        #: A cut from a key state lands in b0, from its value state in b1,
        #: which admits every continuation and ending b0 does. So a cut from
        #: a key state is relaxed only where it is strictly cheaper.
        self.dominated_by = {p0(k + 1): p0(k + 2), b0(top): b1(top)}
        #: The states no natural edge enters: the anchor and the run starts
        #: after a cut.
        self.cut_only = [q for q in range(self.size) if q not in self.natural_preds]
        #: The states a path may end in: its last run hosts its blend window,
        #: and some run keeps a core.
        self.final = np.ones(self.size, dtype=bool)
        self.final[[0, *range(b0(1), b0(k + 2)), *range(b1(1), b1(k + 1))]] = False

    def cut_costs(self, table, p):
        """Row ``p`` of a (state, node) table as the source of a cut: ``inf``
        where the state dominating ``p`` is as cheap."""
        if p not in self.dominated_by:
            return table[p]
        return np.where(table[p] < table[self.dominated_by[p]], table[p], np.inf)

    def p0(self, c: int) -> int:
        return c

    def b0(self, c: int) -> int:
        return self.k + 2 + c

    def b1(self, c: int) -> int:
        return 3 * self.k + 4 + c


def _step(layout: EdgeLayout, prev, states: BlendStates, relaxed, out, blocked):
    """Write the step table after ``prev`` into ``out``: natural edges, which
    cost 0, as one block copy of the row shifts (state q - 1 into q) and the
    minima with the other predecessors, none from a node a walk may not
    continue from (``blocked``, from ``_blocked``, or None), then the cut
    minima ``relaxed`` ({state: minima over ``layout.group_dst``}) into the
    run-start states."""
    out[1:, 1:] = prev[:-1, :-1]
    for q, p in states.extra_natural_preds:
        np.minimum(out[q, 1:], prev[p, :-1], out=out[q, 1:])
    out[states.cut_only] = np.inf
    out[:, 0] = np.inf
    if blocked is not None:
        out[:, blocked] = np.inf
    for q, mins in relaxed.items():
        out[q, layout.group_dst] = np.minimum(out[q, layout.group_dst], mins)


def _blocked(allowed):
    """The columns of a step table that natural edges reach from nodes not
    ``allowed``: the nodes after them."""
    return np.flatnonzero(~np.asarray(allowed, dtype=bool)[:-1]) + 1


def walk_distances(layout: EdgeLayout, seed, allowed, length_costs, states: BlendStates):
    """One segment's forward relaxation from every finite entry of ``seed``.

    ``seed`` is a (states.size, n_nodes) cost table and ``length_costs``
    maps each accepted walk length to its cost, ascending. With ``table[l]``
    the minimal cost over walks of exactly ``l`` edges (``inf`` where there
    is none; cuts are relaxed from ``states.cut_costs``, which keeps the
    cheapest admissible ending unchanged), returns ``best``, the minimum
    over accepted ``l`` of ``table[l] + length_costs[l]``, and ``cuts``: for
    each step, the segmented minima it relaxed into the run-start states, as
    {state: minima over ``layout.group_dst``}. ``replay_walk`` rebuilds the
    tables from ``seed`` and ``cuts``. Two step tables are held at a time.
    """
    blocked = np.flatnonzero(~np.asarray(allowed, dtype=bool))
    natural_blocked = _blocked(allowed)
    best = np.full_like(seed, np.inf)
    buffers = np.empty((2, *seed.shape))
    prev, cuts = seed, []
    for step in range(1, max(length_costs) + 1):
        new = buffers[step % 2]
        relaxed = {}
        for q, preds in states.synthetic_preds.items():
            ready = np.minimum.reduce([states.cut_costs(prev, p) for p in preds])
            if step > 1:
                ready[blocked] = np.inf  # walks continue only through allowed nodes
            if layout.src.size and np.isfinite(ready).any():
                sums = ready[layout.src]
                sums += layout.cost
                relaxed[q] = np.minimum.reduceat(sums, layout.group_start)
        _step(layout, prev, states, relaxed, new, natural_blocked if step > 1 else None)
        cuts.append(relaxed)
        if step in length_costs:
            np.minimum(best, new + length_costs[step], out=best)
        prev = new
    return best, cuts


def replay_walk(layout: EdgeLayout, seed, allowed, states: BlendStates, cuts):
    """The step tables of the relaxation ``walk_distances`` ran from ``seed``,
    rebuilt from the ``cuts`` it recorded: (len(cuts)+1, states.size,
    n_nodes), ``table[0] = seed`` and ``table[l]`` bit-equal to its ``l``-edge
    table. Natural edges are row shifts, and no synthetic edge is read."""
    natural_blocked = _blocked(allowed)
    table = np.empty((len(cuts) + 1, *np.shape(seed)))
    table[0] = seed
    for step, relaxed in enumerate(cuts, 1):
        _step(layout, table[step - 1], states, relaxed, table[step],
              natural_blocked if step > 1 else None)
    return table


def walk_back(layout: EdgeLayout, table, allowed, states: BlendStates, length, state, node):
    """The walk realizing the finite ``table[length, state, node]``.

    Returns its (state, node) pairs from step 0 to ``length`` and the cost of
    each of its edges, in walk order.
    """
    q, v = int(state), int(node)
    path, costs = [(q, v)], []
    for step in range(length, 0, -1):
        target = table[step, q, v]
        prev = table[step - 1]
        best = None  # (predecessor node, state, edge cost)
        for p in states.synthetic_preds.get(q, ()):
            lo, hi = layout.indptr[v], layout.indptr[v + 1]
            preds = layout.src[lo:hi]
            vals = states.cut_costs(prev, p)[preds] + layout.cost[lo:hi]
            if step > 1:
                vals[~allowed[preds]] = np.inf
            hits = np.flatnonzero(vals == target)
            if hits.size and (best is None or preds[hits[0]] < best[0]):
                best = (int(preds[hits[0]]), p, float(layout.cost[lo + hits[0]]))
        if v >= 1 and (step == 1 or allowed[v - 1]) and (best is None or v - 1 < best[0]):
            for p in states.natural_preds.get(q, ()):
                if prev[p, v - 1] == target:
                    best = (v - 1, p, 0.0)
                    break
        if best is None:
            raise StructuralError(
                f"walk_back: no predecessor of state {q} at node {v} matches its cost "
                f"{target!r} at step {step}"
            )
        v, q, cost = best
        path.append((q, v))
        costs.append(cost)
    return path[::-1], costs[::-1]
