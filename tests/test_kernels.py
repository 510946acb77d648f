import numpy as np

from motiongraph import kernels


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
# walk relaxation against a plain-Python exact-length Bellman-Ford
# ---------------------------------------------------------------------------


def random_walk_graph(rng, n):
    """Natural chain plus random extra edges, no self-edges or duplicates."""
    pairs = {(i, i + 1): 0.0 for i in range(n - 1)}
    for _ in range(3 * n):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b and (a, b) not in pairs:
            # few distinct costs, so equal-cost walks (and ties) are common
            pairs[a, b] = float(rng.choice([0.25, 0.5, 0.1, 0.3]))
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    cost = np.array(list(pairs.values()))
    return src, dst, cost


def bellman_ford(src, dst, cost, n, start, allowed, n_steps):
    """dist[l][v] and the smallest-index predecessor realizing it, in Python floats."""
    inf = float("inf")
    edges = sorted(zip(src.tolist(), dst.tolist(), cost.tolist()))
    dist = [[inf] * n for _ in range(n_steps + 1)]
    parent = [[-1] * n for _ in range(n_steps + 1)]
    dist[0][start] = 0.0
    for step in range(1, n_steps + 1):
        for u, v, c in edges:  # ascending u, so the first strict win is the smallest
            base = dist[step - 1][u]
            if step > 1 and not allowed[u]:
                continue
            if base + c < dist[step][v]:
                dist[step][v] = base + c
                parent[step][v] = u
    return dist, parent


class TestWalkDistances:
    def test_bit_exact_with_smallest_predecessor(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            n = int(rng.integers(5, 30))
            src, dst, cost = random_walk_graph(rng, n)
            allowed = rng.random(n) > 0.2
            start = int(rng.integers(0, n))
            allowed[start] = trial % 2 == 0  # half the starts are themselves blocked
            layout = kernels.edge_layout(src, dst, cost, n)
            steps = 9
            dist = kernels.walk_distances(layout, start, allowed, steps)
            ref, parent = bellman_ford(src, dst, cost, n, start, allowed, steps)
            assert dist.tobytes() == np.array(ref).tobytes()
            for length in range(1, steps + 1):
                for v in np.flatnonzero(np.isfinite(dist[length])):
                    walk = kernels.walk_back(layout, dist, allowed, length, int(v))
                    assert len(walk) == length + 1 and walk[0] == start
                    for step in range(length, 0, -1):
                        assert walk[step - 1] == parent[step][walk[step]]
                    assert all(allowed[u] for u in walk[1:-1])

    def test_start_exempt_from_allowed(self):
        # 0 -> 1 -> 2 -> 0: a blocked start may begin a walk but not recur in one.
        src, dst, cost = np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([0.5, 0.25, 0.125])
        allowed = np.array([False, True, True])
        layout = kernels.edge_layout(src, dst, cost, 3)
        dist = kernels.walk_distances(layout, 0, allowed, 5)
        assert dist[1].tolist() == [np.inf, 0.5, np.inf]
        assert dist[3].tolist() == [0.875, np.inf, np.inf]
        assert np.isinf(dist[4:]).all()  # continuing past the blocked start is not allowed
        assert kernels.walk_back(layout, dist, allowed, 3, 0) == [0, 1, 2, 0]

    def test_unreachable_rows_stay_inf(self):
        n = 6
        src, dst = np.arange(n - 1), np.arange(1, n)
        layout = kernels.edge_layout(src, dst, np.zeros(n - 1), n)
        dist = kernels.walk_distances(layout, 3, np.ones(n, dtype=bool), 8)
        assert dist.shape == (9, n)
        assert dist[2, 5] == 0.0
        assert np.isinf(dist[3:]).all()
        assert np.isinf(np.delete(dist[1], 4)).all()
        empty = kernels.edge_layout(np.zeros(0), np.zeros(0), np.zeros(0), 2)
        only_start = kernels.walk_distances(empty, 1, np.ones(2, dtype=bool), 3)
        assert only_start[0].tolist() == [np.inf, 0.0] and np.isinf(only_start[1:]).all()

    def test_extended_table_equals_fresh(self):
        rng = np.random.default_rng(4)
        n = 25
        src, dst, cost = random_walk_graph(rng, n)
        allowed = rng.random(n) > 0.2
        layout = kernels.edge_layout(src, dst, cost, n)
        for start in (0, 11, 24):
            fresh = kernels.walk_distances(layout, start, allowed, 14)
            short = kernels.walk_distances(layout, start, allowed, 5)
            extended = kernels.walk_distances(layout, start, allowed, 14, short)
            assert extended.tobytes() == fresh.tobytes()
            assert kernels.walk_distances(layout, start, allowed, 9, extended) is extended
