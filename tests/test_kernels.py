import numpy as np
import pytest

from motiongraph import kernels
from motiongraph.errors import StructuralError
from oracles import meshgrid_rasterize_capsules


def test_popcount_matches_direct_counting_any_backend(monkeypatch):
    rng = np.random.default_rng(3)
    masks = rng.random((12, 33, 17)) < 0.5  # odd sizes exercise bit padding
    packed = kernels.pack_masks(masks)
    pairs = np.array([[i, j] for i in range(12) for j in range(12)])
    got = kernels.pair_intersections(packed, pairs)
    direct = np.array([np.count_nonzero(masks[m] & masks[n]) for m, n in pairs])
    assert np.array_equal(got, direct)
    # numpy < 2.0 has no bitwise_count: the byte lookup table counts instead.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert np.array_equal(kernels.pair_intersections(packed, pairs), direct)


# ---------------------------------------------------------------------------
# capsule rasterization against the full-grid formula
# ---------------------------------------------------------------------------

RASTER_W, RASTER_H, RASTER_FOCAL = 64, 48, 50.0


def random_capsules(rng, n):
    """``n`` bones anywhere from well off-screen to inside a RASTER_W x
    RASTER_H image: endpoints, inverse depths in (0.2, 2) and world radii."""
    p0 = rng.uniform((-30, -30), (RASTER_W + 30, RASTER_H + 30), size=(n, 2))
    p1 = p0 + rng.normal(0.0, 12.0, size=(n, 2))
    iz0, iz1 = rng.uniform(0.2, 2.0, size=(2, n))
    radius = rng.uniform(0.005, 0.15, size=n)
    return p0, p1, iz0, iz1, radius


def box(p0, p1, iz0, iz1, radius):
    """The kernel's (x_lo, x_hi, y_lo, y_hi) pixel box of one bone, before
    clipping to the image."""
    rmax = RASTER_FOCAL * radius * max(iz0, iz1)
    lo = np.floor(np.minimum(p0, p1) - rmax - 1.0)
    hi = np.ceil(np.maximum(p0, p1) + rmax + 1.0)
    return lo[0], hi[0], lo[1], hi[1]


def oracle_frames(p0, p1, iz0, iz1, radius, visible):
    """Each frame of a (F, B) batch drawn alone by the full-grid oracle,
    from its visible bones only."""
    masks = np.zeros((len(iz0), RASTER_H, RASTER_W), dtype=bool)
    for f, keep in enumerate(visible):
        masks[f] = meshgrid_rasterize_capsules(p0[f][keep], p1[f][keep], iz0[f][keep],
                                               iz1[f][keep], radius[f][keep],
                                               RASTER_FOCAL, RASTER_W, RASTER_H)
    return masks


def rasterize_batch(p0, p1, iz0, iz1, radius, visible):
    return kernels.rasterize_capsules(p0, p1, iz0, iz1, radius, visible,
                                      RASTER_FOCAL, RASTER_W, RASTER_H)


class TestRasterizeCapsules:
    def rasterize_both(self, *capsules):
        """One frame's bones, drawn as a batch of one and by the oracle."""
        batch = [np.asarray(c)[None] for c in capsules]
        got = rasterize_batch(*batch, np.ones(batch[-1].shape, dtype=bool))
        assert got.shape == (1, RASTER_H, RASTER_W)
        args = (*capsules, RASTER_FOCAL, RASTER_W, RASTER_H)
        return got[0], meshgrid_rasterize_capsules(*args)

    def test_bit_equal_to_full_grid_on_random_capsules(self):
        rng = np.random.default_rng(11)
        clipped = set()
        off_screen = drawn = 0
        for _ in range(60):
            capsules = random_capsules(rng, int(rng.integers(1, 16)))
            got, want = self.rasterize_both(*capsules)
            assert np.array_equal(got, want)
            for bone in zip(*capsules):
                x_lo, x_hi, y_lo, y_hi = box(*bone)
                if x_hi < 0 or y_hi < 0 or x_lo > RASTER_W - 1 or y_lo > RASTER_H - 1:
                    off_screen += 1
                    continue
                drawn += 1
                clipped |= {side for side, out in (("left", x_lo < 0), ("top", y_lo < 0),
                                                   ("right", x_hi > RASTER_W - 1),
                                                   ("bottom", y_hi > RASTER_H - 1)) if out}
        # The sample draws boxes cut by every image border, and misses some.
        assert clipped == {"left", "top", "right", "bottom"}
        assert off_screen > 0 and drawn > 0

    @pytest.mark.parametrize("where", [(20.0, 30.0), (0.2, 0.3), (63.9, 47.7), (-3.0, 10.0)])
    def test_zero_length_bones_are_discs(self, where):
        rng = np.random.default_rng(4)
        p = np.array([where] * 3)
        got, want = self.rasterize_both(p, p.copy(), rng.uniform(0.2, 2.0, 3),
                                        rng.uniform(0.2, 2.0, 3), np.array([0.02, 0.05, 0.1]))
        assert np.array_equal(got, want)
        assert got.any()

    def test_boxes_entirely_off_screen_draw_nothing(self):
        p0 = np.array([[-40.0, 10.0], [10.0, -40.0], [RASTER_W + 40.0, 5.0], [5.0, RASTER_H + 40.0]])
        got, want = self.rasterize_both(p0, p0 + 3.0, np.ones(4), np.ones(4), np.full(4, 0.05))
        assert not got.any() and not want.any()

    def test_no_bones(self):
        empty = np.zeros((0, 2))
        got, want = self.rasterize_both(empty, empty, np.zeros(0), np.zeros(0), np.zeros(0))
        assert got.shape == (RASTER_H, RASTER_W) and not got.any() and not want.any()

    def test_every_frame_of_a_batch_equals_the_frame_drawn_alone(self):
        rng = np.random.default_rng(12)
        for frames, bones in ((1, 1), (7, 5), (33, 12)):
            capsules = random_capsules(rng, frames * bones)
            batch = [np.asarray(c).reshape(frames, bones, *np.shape(c)[1:]) for c in capsules]
            visible = rng.random((frames, bones)) < 0.8
            got = rasterize_batch(*batch, visible)
            assert got.shape == (frames, RASTER_H, RASTER_W)
            assert np.array_equal(got, oracle_frames(*batch, visible))

    def test_one_bone_whose_box_size_varies_widely_across_frames(self):
        # Bone 0 spans boxes from a few pixels to most of the image, so the
        # small boxes sit in a tile padded far past their own width and height.
        rng = np.random.default_rng(13)
        frames = 24
        p0, p1, iz0, iz1, radius = random_capsules(rng, 2 * frames)
        p0, p1 = p0.reshape(frames, 2, 2), p1.reshape(frames, 2, 2)
        iz0, iz1, radius = (v.reshape(frames, 2) for v in (iz0, iz1, radius))
        p0[:, 0] = rng.uniform((10, 10), (30, 25), size=(frames, 2))
        p1[:, 0] = p0[:, 0] + rng.uniform(-1.0, 1.0, size=(frames, 1)) * [30.0, 20.0]
        radius[:, 0] = np.geomspace(0.002, 0.2, frames)
        widths = [box(p0[f, 0], p1[f, 0], iz0[f, 0], iz1[f, 0], radius[f, 0]) for f in range(frames)]
        sizes = [x_hi - x_lo for x_lo, x_hi, _, _ in widths]
        assert min(sizes) < 8 and max(sizes) > 40
        visible = np.ones((frames, 2), dtype=bool)
        got = rasterize_batch(p0, p1, iz0, iz1, radius, visible)
        assert np.array_equal(got, oracle_frames(p0, p1, iz0, iz1, radius, visible))

    @pytest.mark.parametrize("corner", [(-6.0, 20.0), (30.0, -6.0), (RASTER_W + 5.0, 20.0),
                                        (30.0, RASTER_H + 5.0), (-4.0, -4.0),
                                        (RASTER_W + 3.0, RASTER_H + 3.0)])
    def test_boxes_clipped_at_the_image_borders(self, corner):
        # Every frame has one bone running out of the image past the given
        # point, its box cut by that border, beside a bone drawn inside.
        rng = np.random.default_rng(14)
        frames = 9
        p0 = np.stack([np.broadcast_to(corner, (frames, 2)) + rng.normal(0, 2, (frames, 2)),
                       rng.uniform((15, 15), (45, 30), size=(frames, 2))], axis=1)
        p1 = np.stack([rng.uniform((10, 10), (50, 35), size=(frames, 2)),
                       rng.uniform((15, 15), (45, 30), size=(frames, 2))], axis=1)
        iz0, iz1 = rng.uniform(0.5, 1.5, size=(2, frames, 2))
        radius = rng.uniform(0.02, 0.1, size=(frames, 2))
        visible = np.ones((frames, 2), dtype=bool)
        got = rasterize_batch(p0, p1, iz0, iz1, radius, visible)
        assert np.array_equal(got, oracle_frames(p0, p1, iz0, iz1, radius, visible))
        x_lo, x_hi, y_lo, y_hi = np.array([box(p0[f, 0], p1[f, 0], iz0[f, 0], iz1[f, 0],
                                               radius[f, 0]) for f in range(frames)]).T
        assert ((x_lo < 0) | (y_lo < 0) | (x_hi > RASTER_W - 1) | (y_hi > RASTER_H - 1)).all()
        # The clipped bone draws along a border it crosses.
        left, top = got[:, :, 0].any(axis=1), got[:, 0, :].any(axis=1)
        right, bottom = got[:, :, -1].any(axis=1), got[:, -1, :].any(axis=1)
        crossed = {(-6.0, 20.0): left, (30.0, -6.0): top, (RASTER_W + 5.0, 20.0): right,
                   (30.0, RASTER_H + 5.0): bottom, (-4.0, -4.0): left | top,
                   (RASTER_W + 3.0, RASTER_H + 3.0): right | bottom}
        assert crossed[corner].all()

    def test_zero_length_bone_in_some_frames_only(self):
        rng = np.random.default_rng(15)
        frames, bones = 10, 3
        p0, p1, iz0, iz1, radius = (np.asarray(v).reshape(frames, bones, *np.shape(v)[1:])
                                    for v in random_capsules(rng, frames * bones))
        p0[:, :, :] = rng.uniform((5, 5), (RASTER_W - 5, RASTER_H - 5), size=(frames, bones, 2))
        point = np.arange(frames) % 2 == 0
        p1[point] = p0[point]
        visible = np.ones((frames, bones), dtype=bool)
        got = rasterize_batch(p0, p1, iz0, iz1, radius, visible)
        assert np.array_equal(got, oracle_frames(p0, p1, iz0, iz1, radius, visible))
        assert got[point].any(axis=(1, 2)).all()

    def test_bone_hidden_in_some_frames_only(self):
        rng = np.random.default_rng(16)
        frames, bones = 12, 4
        p0, p1, iz0, iz1, radius = (np.asarray(v).reshape(frames, bones, *np.shape(v)[1:])
                                    for v in random_capsules(rng, frames * bones))
        p0[:, :, :] = rng.uniform((5, 5), (RASTER_W - 5, RASTER_H - 5), size=(frames, bones, 2))
        visible = np.ones((frames, bones), dtype=bool)
        visible[::3, 1] = False
        visible[5, :] = False
        # The values of a hidden bone are never read.
        for v in (p0, p1, iz0, iz1, radius):
            v[~visible] = np.nan
        got = rasterize_batch(p0, p1, iz0, iz1, radius, visible)
        assert np.array_equal(got, oracle_frames(p0, p1, iz0, iz1, radius, visible))
        assert not got[5].any()
        shown = np.ones((frames, bones), dtype=bool)
        shown[5, :] = False
        hidden_drawn = rasterize_batch(*(np.nan_to_num(v, nan=1.0) for v in (p0, p1, iz0, iz1, radius)),
                                       shown)
        assert not np.array_equal(got[::3], hidden_drawn[::3])

    def test_no_frames_and_no_bones(self):
        none = rasterize_batch(np.zeros((0, 3, 2)), np.zeros((0, 3, 2)), np.zeros((0, 3)),
                               np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3), dtype=bool))
        assert none.shape == (0, RASTER_H, RASTER_W)
        empty = rasterize_batch(np.zeros((4, 0, 2)), np.zeros((4, 0, 2)), np.zeros((4, 0)),
                                np.zeros((4, 0)), np.zeros((4, 0)), np.zeros((4, 0), dtype=bool))
        assert empty.shape == (4, RASTER_H, RASTER_W) and not empty.any()


# ---------------------------------------------------------------------------
# walk relaxation against a plain-Python exact-length Bellman-Ford over
# (blend state, node), its transitions written out from the assembler's rules
# ---------------------------------------------------------------------------


COSTS = [0.25, 0.5, 0.125, 0.375]


def random_walk_graph(rng, n, natural_costs=False):
    """Natural chain plus random synthetic edges, no self-edges or duplicates.
    Natural edges cost 0, or one of ``COSTS`` each with ``natural_costs``."""
    pairs = {(i, i + 1): float(rng.choice(COSTS)) if natural_costs else 0.0 for i in range(n - 1)}
    synthetic = []
    for _ in range(3 * n):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b and (a, b) not in pairs:
            # few distinct costs, so equal-cost walks (and ties) are common
            pairs[a, b] = float(rng.choice(COSTS))
            synthetic.append(True)
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    cost = np.array(list(pairs.values()))
    return src, dst, cost, np.array([False] * (n - 1) + synthetic, dtype=bool)


def successors(state, synthetic, k):
    """The states after one edge: ("anchor",), ("p0", c) or ("p1", c, core)."""
    if state == ("anchor",):
        return [("p0", 1)]
    if state[0] == "p0":
        c = state[1]
        if synthetic:
            return [("p1", 1, c > k + 1)] if c >= k + 1 else []
        return [("p0", min(c + 1, k + 2))]
    _, c, core = state
    if synthetic:
        return [("p1", 1, core)] if c >= 2 * k + 2 else []
    return [("p1", min(c + 1, 2 * k + 2), core or c + 1 > 2 * k + 2)]


def index(states, state):
    if state[0] == "anchor":
        return states.anchor
    if state[0] == "p0":
        return states.p0(state[1])
    return (states.b1 if state[2] else states.b0)(state[1])


def all_states(k):
    return ([("anchor",)] + [("p0", c) for c in range(1, k + 3)]
            + [("p1", c, core) for core in (False, True) for c in range(1, 2 * k + 3)])


def bellman_ford(src, dst, cost, synthetic, n, seed, allowed, n_steps, k):
    """table[l][q][v] and the smallest (node, state) predecessor realizing it,
    in Python floats. A cut into a run with no core yet is taken only where
    it is strictly cheaper than the cut from the same node's cored state."""
    states = kernels.BlendStates(k)
    inf = float("inf")
    edges = sorted(zip(src.tolist(), dst.tolist(), cost.tolist(), synthetic.tolist()))
    table = [seed.tolist()] + [[[inf] * n for _ in range(states.size)] for _ in range(n_steps)]
    parent = [None] + [{} for _ in range(n_steps)]
    rivals = {states.p0(k + 1): states.p0(k + 2), states.b0(2 * k + 2): states.b1(2 * k + 2)}
    for step in range(1, n_steps + 1):
        prev, new = table[step - 1], table[step]
        for u, v, c, syn in edges:  # ascending u, so the first strict win is the smallest
            if step > 1 and not allowed[u]:
                continue
            for state in all_states(k):  # ascending state index within a node
                q = index(states, state)
                if syn and q in rivals and not prev[q][u] < prev[rivals[q]][u]:
                    continue
                for nxt in successors(state, syn, k):
                    r = index(states, nxt)
                    if prev[q][u] + c < new[r][v]:
                        new[r][v] = prev[q][u] + c
                        parent[step][r, v] = (u, q)
    return table, parent


def step_tables(layout, seed, allowed, n_steps, states):
    """The 0..n_steps step tables of one relaxation, replayed from the cut
    minima its forward pass recorded."""
    _, cuts = kernels.walk_distances(layout, seed, allowed, {n_steps: 0.0}, states)
    assert len(cuts) == n_steps
    return kernels.replay_walk(layout, seed, allowed, states, cuts)


class TestWalkDistances:
    def test_state_indices_cover_the_table(self):
        for k in (1, 2, 4):
            states = kernels.BlendStates(k)
            assert sorted(index(states, s) for s in all_states(k)) == list(range(states.size))

    def test_bit_exact_with_smallest_predecessor(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            n = int(rng.integers(5, 16))
            k = 1 + trial % 2
            states = kernels.BlendStates(k)
            src, dst, cost, synthetic = random_walk_graph(rng, n)
            allowed = rng.random(n) > 0.2
            seed = np.full((states.size, n), np.inf)
            seed[states.anchor, rng.choice(n, size=2, replace=False)] = 0.0
            if trial % 3 == 0:  # a later segment: prefixes in several states
                seed[rng.integers(0, states.size, size=6), rng.integers(0, n, size=6)] = 0.5
            layout = kernels.edge_layout(src, dst, cost, synthetic, n)
            steps = 3 * k + 5
            table = step_tables(layout, seed, allowed, steps, states)
            ref, parent = bellman_ford(src, dst, cost, synthetic, n, seed, allowed, steps, k)
            assert table.tobytes() == np.array(ref).tobytes()
            for length in range(1, steps + 1):
                for q, v in zip(*np.nonzero(np.isfinite(table[length]))):
                    walk, costs = kernels.walk_back(layout, table, allowed, states, length, q, v)
                    assert len(walk) == length + 1 and walk[-1] == (q, v)
                    for step in range(length, 0, -1):
                        assert walk[step - 1][::-1] == parent[step][walk[step]]
                    assert all(allowed[u] for _, u in walk[1:-1])
                    total = seed[walk[0]]
                    for c in costs:
                        total += c
                    assert total == table[length, q, v]

    def test_start_exempt_from_allowed(self):
        # 0 -> 1 -> 2 naturally, 2 -> 0 synthetically: a blocked start may
        # begin a walk but not recur in one.
        src, dst = np.array([0, 1, 2]), np.array([1, 2, 0])
        cost, synthetic = np.array([0.5, 0.25, 0.125]), np.array([False, False, True])
        allowed = np.array([False, True, True])
        states = kernels.BlendStates(1)
        layout = kernels.edge_layout(src, dst, cost, synthetic, 3)
        seed = np.full((states.size, 3), np.inf)
        seed[states.anchor, 0] = 0.0
        table = step_tables(layout, seed, allowed, 5, states)
        assert table[1].min(axis=0).tolist() == [np.inf, 0.5, np.inf]
        # the cut 2 -> 0 leaves a run of 2 = k + 1 frames, which has no core
        assert table[3, states.b0(1)].tolist() == [0.875, np.inf, np.inf]
        assert np.isinf(table[4:]).all()  # continuing past the blocked start is not allowed
        walk, costs = kernels.walk_back(layout, table, allowed, states, 3, states.b0(1), 0)
        assert [v for _, v in walk] == [0, 1, 2, 0] and costs == [0.5, 0.25, 0.125]

    def test_cut_needs_a_run_long_enough_for_the_blend_windows(self):
        # 0 -> 1 -> ... -> 5 plus a cut 2 -> 5: from the anchor at 0 the run
        # before the cut is 1, 2, k + 1 frames only for k = 1.
        src, dst = np.array([0, 1, 2, 3, 4, 2]), np.array([1, 2, 3, 4, 5, 5])
        cost, synthetic = np.array([0.0] * 5 + [0.25]), np.array([False] * 5 + [True])
        for k, reached in ((1, 0.25), (2, np.inf)):
            states = kernels.BlendStates(k)
            layout = kernels.edge_layout(src, dst, cost, synthetic, 6)
            seed = np.full((states.size, 6), np.inf)
            seed[states.anchor, 0] = 0.0
            table = step_tables(layout, seed, np.ones(6, dtype=bool), 3, states)
            assert table[3, :, 5].min() == reached

    def test_unreachable_rows_stay_inf(self):
        n = 6
        src, dst = np.arange(n - 1), np.arange(1, n)
        states = kernels.BlendStates(4)
        layout = kernels.edge_layout(src, dst, np.zeros(n - 1), np.zeros(n - 1, dtype=bool), n)
        seed = np.full((states.size, n), np.inf)
        seed[states.anchor, 3] = 0.0
        table = step_tables(layout, seed, np.ones(n, dtype=bool), 8, states)
        assert table.shape == (9, states.size, n)
        assert table[2, states.p0(2), 5] == 0.0
        assert np.isinf(table[3:]).all()
        assert np.isinf(np.delete(table[1].min(axis=0), 4)).all()
        single = kernels.edge_layout(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), 1)
        seed = np.zeros((states.size, 1))
        only_seed = step_tables(single, seed, np.ones(1, dtype=bool), 3, states)
        assert (only_seed[0] == 0.0).all() and np.isinf(only_seed[1:]).all()


# ---------------------------------------------------------------------------
# the traceback's replay against the forward relaxation
# ---------------------------------------------------------------------------


def random_replay_case(rng, k):
    """A random toy with non-zero natural costs and onset-blocked nodes, one
    of its starts on a blocked node, and a seed table as segment 0 or as a
    later segment sees it."""
    n = int(rng.integers(6, 14))
    states = kernels.BlendStates(k)
    src, dst, cost, synthetic = random_walk_graph(rng, n, natural_costs=True)
    allowed = rng.random(n) > 0.25
    allowed[0] = False
    seed = np.full((states.size, n), np.inf)
    seed[states.anchor, [0, int(rng.integers(1, n))]] = 0.0
    if rng.random() < 0.4:  # a later segment: prefixes in several states, none in the anchor
        seed = np.full((states.size, n), np.inf)
        seed[rng.integers(1, states.size, size=8), rng.integers(0, n, size=8)] = rng.choice(COSTS, 8)
    return kernels.edge_layout(src, dst, cost, synthetic, n), seed, allowed, states, (src, dst, cost,
                                                                                      synthetic, n)


class TestReplayWalk:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bit_equal_to_forward_and_oracle(self, k):
        rng = np.random.default_rng(30 + k)
        for _ in range(6):
            layout, seed, allowed, states, graph = random_replay_case(rng, k)
            steps = 3 * k + 5
            lo = int(rng.integers(1, steps + 1))
            length_costs = {n: float(rng.choice(COSTS)) for n in range(lo, steps + 1)}
            best, cuts = kernels.walk_distances(layout, seed, allowed, length_costs, states)
            table = kernels.replay_walk(layout, seed, allowed, states, cuts)
            ref, _ = bellman_ford(*graph, seed, allowed, steps, k)
            assert table.tobytes() == np.array(ref).tobytes()
            want = np.full_like(seed, np.inf)
            for n, c in length_costs.items():
                np.minimum(want, table[n] + c, out=want)
            assert best.tobytes() == want.tobytes()
            for n in (1, lo, steps):  # one accepted length: the forward's own step table
                only, _ = kernels.walk_distances(layout, seed, allowed, {n: 0.0}, states)
                assert only.tobytes() == table[n].tobytes()

    def test_records_only_the_rows_each_step_relaxed(self):
        rng = np.random.default_rng(5)
        k = 2
        states = kernels.BlendStates(k)
        n = 40
        layout = kernels.edge_layout(*random_walk_graph(rng, n), n)
        seed = np.full((states.size, n), np.inf)
        seed[states.anchor, [3, 17]] = 0.0
        best, cuts = kernels.walk_distances(layout, seed, np.ones(n, dtype=bool), {12: 0.0}, states)
        # From the anchor, step 1 cuts into p0(1) only; a run has k + 1 frames,
        # enough for a cut into b0(1), from step k + 2 on.
        assert [sorted(c) for c in cuts[: k + 2]] == [[states.p0(1)]] + [[]] * k + [[states.b0(1)]]
        assert all(set(c) <= {states.b0(1), states.b1(1)} for c in cuts[1:])
        assert {states.b1(1)} <= set().union(*cuts)
        for c in cuts:
            assert all(row.shape == layout.group_dst.shape for row in c.values())
        # A later segment starts from F, whose anchor row is inf: no p0(1) row.
        _, later = kernels.walk_distances(layout, best, np.ones(n, dtype=bool), {3: 0.0}, states)
        assert all(set(c) <= {states.b0(1), states.b1(1)} for c in later)

    def test_walk_back_names_the_step_a_corrupted_row_breaks(self):
        rng = np.random.default_rng(8)
        k = 1
        for _ in range(40):
            layout, seed, allowed, states, _ = random_replay_case(rng, k)
            steps = 3 * k + 5
            _, cuts = kernels.walk_distances(layout, seed, allowed, {steps: 0.0}, states)
            hits = [(step, q, i) for step, c in enumerate(cuts, 1) for q, row in c.items()
                    for i in np.flatnonzero(np.isfinite(row))]
            if hits:
                break
        step, q, i = hits[len(hits) // 2]
        cuts[step - 1][q] = cuts[step - 1][q].copy()
        cuts[step - 1][q][i] -= 100.0  # cheaper than any predecessor can explain
        table = kernels.replay_walk(layout, seed, allowed, states, cuts)
        v = int(layout.group_dst[i])
        with pytest.raises(StructuralError, match=f"state {q} at node {v} .* at step {step}"):
            kernels.walk_back(layout, table, allowed, states, step, q, v)
