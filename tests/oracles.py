"""Independent brute-force oracles used by the search and graph tests and
acceptance.

The enumeration mirrors the engine's documented semantics (duration window
on the ratio, feature matching at segment terminals, onset-free interiors,
per-segment sequential cost accumulation) but shares no code with the DP:
it is a plain recursive walk over the adjacency list. Which enumerated
paths can be played is left to the assembler itself (``assemblable``).
"""

import math
from collections import defaultdict

import numpy as np

from motiongraph.errors import StructuralError
from motiongraph.search import duration_bounds


def in_duration_window(achieved, target_length, window):
    """Whether the ratio achieved / target_length lies in the closed window."""
    return window[0] <= achieved / target_length <= window[1]


def _matches(node, feature):
    if feature.kind == "end":
        return True
    if feature.kind == "onset":
        return node.onset
    return node.keyword == feature.word


def enumerate_paths(graph, segments, config, starts):
    """All feasible complete paths as (node_seq, t_cost, d_cost, boundaries)
    tuples, ``boundaries`` the indices into node_seq where segments meet."""
    adj = defaultdict(list)
    for e in graph.edges:
        adj[e.src].append((e.dst, e.d_feat + e.d_img))
    for dsts in adj.values():
        dsts.sort()
    low, high = config.duration_window
    allowed = [
        True if not config.avoid_onsets_mid_segment else not node.onset
        for node in graph.nodes
    ]

    candidates = [((s,), 0.0, 0.0, (0,)) for s in starts]
    for s in range(segments.segment_count):
        target = segments.durations[s]
        feature = segments.features[s + 1]
        lo, hi = duration_bounds(target, low, high)
        extended = []
        for seq, t_cost, d_cost, bounds in candidates:
            stack = [(seq[-1], 0, [], 0.0)]
            while stack:
                node, steps, walk, cost = stack.pop()
                if (
                    lo <= steps <= hi
                    and in_duration_window(steps, target, (low, high))
                    and _matches(graph.nodes[node], feature)
                ):
                    extended.append(
                        (
                            seq + tuple(walk),
                            t_cost + cost,
                            d_cost + abs(1.0 - steps / target),
                            bounds + (len(seq) - 1 + steps,),
                        )
                    )
                if steps == hi:
                    continue
                if steps > 0 and not allowed[node]:
                    continue
                for dst, c in adj[node]:
                    stack.append((dst, steps + 1, walk + [dst], cost + c))
        candidates = extended
        if not candidates:
            break
    return candidates


def optimum(paths, duration_weight=1.0):
    return min(t + duration_weight * d for _, t, d, _ in paths)


def assemblable(paths, graph, segments, k):
    """The paths ``assemble_edl`` accepts with blend size ``k``: tuples as
    ``enumerate_paths`` gives them, or ``PathCandidate``s. Blends run over
    placeholder poses."""
    from motiongraph.assembly import assemble_edl
    from motiongraph.errors import AssemblyError
    from motiongraph.pose import PoseFrame
    from motiongraph.search import PathCandidate

    poses = [PoseFrame(i, np.zeros(3), np.zeros((1, 3))) for i in range(len(graph))]
    kept = []
    for path in paths:
        candidate = path if isinstance(path, PathCandidate) else PathCandidate(
            path[0], 0.0, 0.0, path[3])
        try:
            assemble_edl(candidate, graph, segments, poses, k=k)
        except AssemblyError:
            continue
        kept.append(path)
    return kept


def image_distance(mask_m, mask_n):
    """1 - IoU of two (H, W) bool masks, 0 when both are empty: the exact
    reference for ``graph._image_distances``' packed popcounts."""
    if mask_m.shape != mask_n.shape:
        raise StructuralError(f"mask shapes differ: {mask_m.shape} vs {mask_n.shape}")
    inter = int(np.count_nonzero(mask_m & mask_n))
    union = int(np.count_nonzero(mask_m | mask_n))
    if union == 0:
        return 0.0
    return 1.0 - inter / union


def full_matrix_gate(joint_states, velocity_weight, tau_feat, min_jump):
    """Candidate pairs of the graph build's d_feat pre-gate, from the full
    N x N Gram-trick distance matrix and ``np.triu_indices``: (mm, nn) in
    row-major order."""
    pos = np.stack([s.positions.ravel() for s in joint_states]).astype(np.float64)
    vel = np.stack([s.velocities.ravel() for s in joint_states]).astype(np.float64)

    def sq_dists(x):
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        return np.maximum(d2, 0.0)

    approx = np.sqrt(sq_dists(pos)) + velocity_weight * np.sqrt(sq_dists(vel))
    margin = 1e-8 * (1.0 + tau_feat)
    mm, nn = np.triu_indices(len(joint_states), k=min_jump)
    cand = approx[mm, nn] <= tau_feat + margin
    return mm[cand], nn[cand]



def per_row_pair_distances(positions, velocities, mm, nn, velocity_weight=1.0):
    """``pose.pair_distances`` as a loop over the pairs: one
    ``math.sqrt(d.dot(d))`` per row difference, positions and velocities."""
    return np.array([
        math.sqrt(p.dot(p)) + velocity_weight * math.sqrt(v.dot(v))
        for p, v in zip(positions[mm] - positions[nn], velocities[mm] - velocities[nn])
    ], dtype=np.float64)

def first_pair_violation(size, pairs, min_jump):
    """The message of the first rule that the transitions ``pairs`` ((m, n, d_feat, d_img)
    tuples) of a ``size``-node graph break, or None: the pair-by-pair loop that
    VideoMotionGraph's vectorized check must agree with. Each pair's key m * size + n
    must rise above the one before it, with m < n; its frames lie in the graph, its
    distances are finite, and n - m is at least ``min_jump``."""
    before = None
    for m, n, d_feat, d_img in pairs:
        if m >= n or (before is not None and m * size + n <= before):
            return (f"pair ({m}, {n}) is out of order: pairs rise strictly by (m, n), "
                    "each with m < n")
        if m < 0 or n >= size:
            return f"edge ({m}, {n}) has an endpoint outside frames 0..{size - 1}"
        if not (math.isfinite(d_feat) and math.isfinite(d_img)):
            return f"edge ({m}, {n}) has a non-finite distance"
        if n - m < min_jump:
            return f"synthetic edge ({m}, {n}) jumps less than min_jump"
        before = m * size + n
    return None


def full_stft_flux(samples, sample_rate, fps):
    """Spectral flux per video frame from the whole N x window frame matrix
    at once: the formula ``audio.onset_flux`` computes block by block."""
    from motiongraph.audio import ONSET_WINDOW_SIZE

    samples = np.asarray(samples, dtype=np.float64)
    n_frames = int(round(samples.size / sample_rate * fps))
    win = ONSET_WINDOW_SIZE
    padded = np.concatenate([np.zeros(win // 2), samples, np.zeros(win)])
    centers = np.round(np.arange(n_frames) * sample_rate / fps).astype(np.int64)
    frames = np.stack([padded[c : c + win] for c in centers], axis=0)
    mags = np.abs(np.fft.rfft(frames * np.hanning(win), axis=1))
    flux = np.zeros(n_frames)
    if n_frames > 1:
        flux[1:] = np.maximum(mags[1:] - mags[:-1], 0.0).sum(axis=1)
    return flux


def meshgrid_rasterize_capsules(p0, p1, iz0, iz1, radius, focal, width, height):
    """One frame's capsule mask, one bone at a time over a full
    ``np.meshgrid`` of its box's pixel centers: the formula
    ``kernels.rasterize_capsules`` broadcasts over each bone's tile."""
    out = np.zeros((height, width), dtype=bool)
    for b in range(len(p0)):
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
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / denom, 0.0, 1.0)
        else:
            t = np.zeros_like(px)
        sx = ax + t * dx
        sy = ay + t * dy
        rho = focal * radius[b] * ((1.0 - t) * iz0[b] + t * iz1[b])
        out[y_lo : y_hi + 1, x_lo : x_hi + 1] |= (px - sx) ** 2 + (py - sy) ** 2 <= rho * rho
    return out


def pair_rows(size, m, n, d_feat, d_img):
    """The edge rows (src, dst, synthetic, d_feat, d_img) of a ``size``-node graph
    with the transitions (m, n), m < n, as one plain sort: the natural chain at rows
    0..N-2 at distances 0, then both edges m -> n and n -> m of every pair, at the
    pair's distances, by (src, dst). ``graph.edges`` lists these rows, and
    ``kernels.edge_layout`` groups their synthetic edges."""
    pairs = zip(*(np.asarray(column).tolist() for column in (m, n, d_feat, d_img)))
    rows = [(i, i + 1, False, 0.0, 0.0) for i in range(size - 1)] + sorted(
        edge for a, b, f, i in pairs for edge in ((a, b, True, f, i), (b, a, True, f, i)))
    return tuple(np.array([row[k] for row in rows], dtype=dtype)
                 for k, dtype in enumerate((np.int64, np.int64, bool, np.float64, np.float64)))


def dst_sorted_edge_layout(src, dst, cost, n_nodes):
    """The synthetic edges ``src -> dst``, given in (src, dst) order, grouped by
    ``dst`` with one stable argsort, so each group's sources stay ascending, and
    their sources and costs gathered in that order: the layout of any directed
    edge list. ``kernels.edge_layout`` builds the same groups from a graph's
    transitions, each of which is two edges at one cost."""
    from motiongraph.kernels import EdgeLayout

    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(dst, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    group_dst = np.flatnonzero(counts)
    return EdgeLayout(indptr, src[order], np.asarray(cost, dtype=np.float64)[order], group_dst,
                      indptr[group_dst])


def axis_angle_matrix(aa):
    """Rodrigues rotation for one axis-angle vector."""
    angle = float(np.linalg.norm(aa))
    if angle < 1e-12:
        return np.eye(3)
    x, y, z = aa / angle
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    )


def per_frame_forward_kinematics(skeleton, pose):
    """World positions (J, 3) of one pose, one joint and one 3x3 product at a
    time: the formula ``pose.batch_forward_kinematics`` stacks over frames."""
    n = len(skeleton)
    parents = [-1 if j.parent is None else j.parent for j in skeleton.joints]
    offsets = np.array([j.rest_offset for j in skeleton.joints], dtype=np.float64)
    positions = np.empty((n, 3))
    rotations = np.empty((n, 3, 3))
    positions[0] = pose.root_translation
    rotations[0] = axis_angle_matrix(pose.joint_rotations[0])
    for i in range(1, n):
        p = parents[i]
        positions[i] = positions[p] + rotations[p] @ offsets[i]
        rotations[i] = rotations[p] @ axis_angle_matrix(pose.joint_rotations[i])
    return positions


def per_frame_silhouette(skeleton, joint_positions, camera):
    """One frame's (H, W) silhouette on its own: its (B, 3) bone endpoints
    through ``camera.to_camera``, the bones behind the camera dropped, the
    others clipped to the near plane one at a time, projected and drawn by
    ``meshgrid_rasterize_capsules``."""
    from motiongraph.silhouette import NEAR_PLANE

    w, h = camera.image_size
    child = np.arange(1, len(skeleton))
    a = camera.to_camera(np.asarray(joint_positions, dtype=np.float64)[skeleton.parents[child]])
    b = camera.to_camera(np.asarray(joint_positions, dtype=np.float64)[child])
    radii = skeleton.radii[child]
    f = camera.focal_length
    cx, cy = camera.principal_point
    p0, p1, iz0, iz1, kept = [], [], [], [], []
    for i in range(len(child)):
        p, q = a[i].copy(), b[i].copy()
        if p[2] <= NEAR_PLANE and q[2] <= NEAR_PLANE:
            continue
        if p[2] <= NEAR_PLANE:
            p = p + (NEAR_PLANE - p[2]) / (q[2] - p[2]) * (q - p)
        if q[2] <= NEAR_PLANE:
            q = q + (NEAR_PLANE - q[2]) / (p[2] - q[2]) * (p - q)
        iz0.append(1.0 / p[2])
        iz1.append(1.0 / q[2])
        p0.append((f * p[0] * iz0[-1] + cx, f * p[1] * iz0[-1] + cy))
        p1.append((f * q[0] * iz1[-1] + cx, f * q[1] * iz1[-1] + cy))
        kept.append(radii[i])
    return meshgrid_rasterize_capsules(np.reshape(p0, (-1, 2)), np.reshape(p1, (-1, 2)),
                                       iz0, iz1, kept, f, w, h)
