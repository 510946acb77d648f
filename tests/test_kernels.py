import numpy as np
import pytest

from motiongraph import kernels
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


class TestRasterizeCapsules:
    def rasterize_both(self, *capsules):
        args = (*capsules, RASTER_FOCAL, RASTER_W, RASTER_H)
        return kernels.rasterize_capsules(*args), meshgrid_rasterize_capsules(*args)

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


# ---------------------------------------------------------------------------
# walk relaxation against a plain-Python exact-length Bellman-Ford over
# (blend state, node), its transitions written out from the assembler's rules
# ---------------------------------------------------------------------------


def random_walk_graph(rng, n):
    """Natural chain plus random synthetic edges, no self-edges or duplicates."""
    pairs = {(i, i + 1): 0.0 for i in range(n - 1)}
    synthetic = []
    for _ in range(3 * n):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b and (a, b) not in pairs:
            # few distinct costs, so equal-cost walks (and ties) are common
            pairs[a, b] = float(rng.choice([0.25, 0.5, 0.125, 0.375]))
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
            table = kernels.walk_distances(layout, seed, allowed, steps, states)
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
        table = kernels.walk_distances(layout, seed, allowed, 5, states)
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
            table = kernels.walk_distances(layout, seed, np.ones(6, dtype=bool), 3, states)
            assert table[3, :, 5].min() == reached

    def test_unreachable_rows_stay_inf(self):
        n = 6
        src, dst = np.arange(n - 1), np.arange(1, n)
        states = kernels.BlendStates(4)
        layout = kernels.edge_layout(src, dst, np.zeros(n - 1), np.zeros(n - 1, dtype=bool), n)
        seed = np.full((states.size, n), np.inf)
        seed[states.anchor, 3] = 0.0
        table = kernels.walk_distances(layout, seed, np.ones(n, dtype=bool), 8, states)
        assert table.shape == (9, states.size, n)
        assert table[2, states.p0(2), 5] == 0.0
        assert np.isinf(table[3:]).all()
        assert np.isinf(np.delete(table[1].min(axis=0), 4)).all()
        single = kernels.edge_layout(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), 1)
        seed = np.zeros((states.size, 1))
        only_seed = kernels.walk_distances(single, seed, np.ones(1, dtype=bool), 3, states)
        assert (only_seed[0] == 0.0).all() and np.isinf(only_seed[1:]).all()
