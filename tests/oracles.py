"""Independent brute-force oracles used by the search and graph tests and
acceptance.

The enumeration mirrors the engine's documented semantics (duration window
on the ratio, feature matching at segment terminals, onset-free interiors,
per-segment sequential cost accumulation) but shares no code with the DP:
it is a plain recursive walk over the adjacency list. Which enumerated
paths can be played is left to the assembler itself (``assemblable``).
"""

from collections import defaultdict

import numpy as np

from motiongraph.search import duration_bounds, in_duration_window


def _matches(node, feature):
    if feature.kind == "end":
        return True
    if feature.kind == "onset":
        return node.onset
    return node.keyword == feature.word


def enumerate_paths(graph, segments, config, starts):
    """All feasible complete paths as (node_seq, t_cost, d_cost) triples."""
    adj = defaultdict(list)
    for e in graph.edges:
        adj[e.src].append((e.dst, e.cost))
    for dsts in adj.values():
        dsts.sort()
    low, high = config.duration_window
    allowed = [
        True if not config.avoid_onsets_mid_segment else not node.onset
        for node in graph.nodes
    ]

    candidates = [((s,), 0.0, 0.0) for s in starts]
    for s in range(segments.segment_count):
        target = segments.durations[s]
        feature = segments.features[s + 1]
        lo, hi = duration_bounds(target, low, high)
        extended = []
        for seq, t_cost, d_cost in candidates:
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
    return min(t + duration_weight * d for _, t, d in paths)


def assemblable(paths, graph, segments, k):
    """The paths ``assemble_edl`` accepts with blend size ``k``: (node_seq,
    t_cost, d_cost) triples as ``enumerate_paths`` gives them, or
    ``PathCandidate``s. Blends run over placeholder poses."""
    from motiongraph.assembly import assemble_edl
    from motiongraph.errors import AssemblyError
    from motiongraph.pose import PoseFrame
    from motiongraph.search import PathCandidate

    poses = [PoseFrame(i, np.zeros(3), np.zeros((1, 3))) for i in range(len(graph))]
    kept = []
    for path in paths:
        candidate = path if isinstance(path, PathCandidate) else PathCandidate(path[0], 0.0, 0.0, (0,))
        try:
            assemble_edl(candidate, graph, segments, poses, k=k)
        except AssemblyError:
            continue
        kept.append(path)
    return kept


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


def first_graph_violation(nodes, edges, min_jump):
    """The message of the first graph invariant that ``nodes`` and ``edges``
    (GraphNode/GraphEdge records) break, or None: the edge-by-edge loop that
    VideoMotionGraph's vectorized check must agree with."""
    n = len(nodes)
    seen = set()
    natural = set()
    for e in edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            return f"edge ({e.src}, {e.dst}) has an endpoint outside frames 0..{n - 1}"
        if e.src == e.dst:
            return f"self-edge at frame {e.src}"
        if (e.src, e.dst) in seen:
            return f"duplicate edge ({e.src}, {e.dst})"
        seen.add((e.src, e.dst))
        if not (np.isfinite(e.d_feat) and np.isfinite(e.d_img)):
            return f"edge ({e.src}, {e.dst}) has a non-finite distance"
        if e.kind == "natural":
            if e.dst != e.src + 1:
                return f"natural edge ({e.src}, {e.dst}) must connect consecutive frames"
            natural.add(e.src)
        elif e.kind != "synthetic":
            return f"edge ({e.src}, {e.dst}) has unknown kind {e.kind!r}"
        elif abs(e.dst - e.src) < min_jump:
            return f"synthetic edge ({e.src}, {e.dst}) jumps less than min_jump"
    if n >= 2 and natural != set(range(n - 1)):
        return "natural edges must form the full chain 0..N-1"
    if any(node.frame_index != i for i, node in enumerate(nodes)):
        return "node frame indices must be 0..N-1 in order"
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


def edge_dict(graph):
    """Row of each (src, dst) edge, from the ``graph.edges`` records."""
    return {(e.src, e.dst): j for j, e in enumerate(graph.edges)}


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
