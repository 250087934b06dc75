import numpy as np
import pytest

from advdual.errors import NegativeEpsilon, NonFiniteCoordinate, ValidationError
from advdual.ground import (
    build_ground,
    dilate,
    distances,
    inf_ball,
    segment_argmax,
    sliding_max_1d,
    sup_ball,
)

from conftest import brute_distances, brute_neighbors, naive_window_max

LINE = np.array([[0.0], [0.5], [1.0]])


def line_ground(eps=0.6):
    return build_ground(LINE, "l2", eps)


def test_neighbors_three_point_line():
    g = line_ground()
    assert sorted(g.neighbors(0)) == [0, 1]
    assert sorted(g.neighbors(1)) == [0, 1, 2]
    assert sorted(g.neighbors(2)) == [1, 2]


def test_epsilon_zero_neighbors_are_singletons():
    g = line_ground(0.0)
    for i in range(3):
        assert list(g.neighbors(i)) == [i]


def test_linf_diagonal_adjacency():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    g = build_ground(pts, "linf", 1.0)
    assert sorted(g.neighbors(0)) == [0, 1]
    g2 = build_ground(pts, "l2", 1.0)  # euclidean distance sqrt(2) > 1
    assert list(g2.neighbors(0)) == [0]


def test_neighbor_symmetry_random():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 2, (30, 2))
    g = build_ground(pts, "l1", 0.7)
    sets = [set(g.neighbors(i).tolist()) for i in range(30)]
    for i in range(30):
        assert i in sets[i]
        for j in sets[i]:
            assert i in sets[j]


def _assert_matches_brute(pts, norm, eps):
    g = build_ground(pts, norm, eps)
    ref = brute_neighbors(np.asarray(pts, dtype=float), norm, eps)
    assert np.array_equal(g.indptr, np.cumsum([0] + [len(r) for r in ref]))
    assert np.array_equal(g.indices, np.concatenate(ref))


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_neighbor_index_matches_brute_oracle(d, norm):
    rng = np.random.default_rng(5)
    for n in (1, 60, 300):
        pts = rng.uniform(0, 3, (n, d))
        for eps in (0.0, 0.3, 0.8):
            _assert_matches_brute(pts, norm, eps)
    # a lattice at radii equal to lattice distances: every tie is kept
    h = 0.1
    axes = np.meshgrid(*([np.arange(5) * h] * d), indexing="ij")
    lattice = np.stack(axes, axis=-1).reshape(-1, d)
    for eps in (h, 2 * h, np.sqrt(2) * h, np.sqrt(3) * h):
        _assert_matches_brute(lattice, norm, eps)


def test_neighbor_index_keeps_l2_diagonal_ties():
    # at eps = sqrt(2) h the diagonal neighbors of a lattice sit at distance
    # eps to within a rounding error, which an unpadded tree query drops
    h = 0.1
    lattice = np.stack(np.meshgrid(np.arange(6) * h, np.arange(6) * h,
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    _assert_matches_brute(lattice, "l2", np.sqrt(2) * h)


def test_neighbor_index_refined_and_duplicate_points():
    from advdual.io import refine_points
    rng = np.random.default_rng(14)
    for _ in range(10):
        pts = rng.uniform(0, 2, (12, 1))
        for eps in (0.1, 0.3, 0.6):
            full = refine_points(pts, 0.6, 1, "l2")
            _assert_matches_brute(full, "l2", eps)
    dup = np.array([[0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.0, 1.0]])
    for norm in ("l1", "l2", "linf"):
        _assert_matches_brute(dup, norm, 0.0)
        assert list(build_ground(dup, norm, 0.0).neighbors(0)) == [0, 2, 3]


def test_distances_broadcast_matches_brute():
    rng = np.random.default_rng(15)
    pts = rng.uniform(-1, 1, (9, 3))
    for norm in ("l1", "l2", "linf"):
        assert np.array_equal(distances(pts[:, None], pts[None], norm),
                              brute_distances(pts, norm))
    with pytest.raises(ValueError):
        distances(pts, pts, "l3")


def test_neighbor_csr_matches_row_loop():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        g = build_ground(rng.uniform(0, 2, (n, 2)), "l1", float(rng.uniform(0, 1)))
        rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        indptr, indices = g.neighbor_csr(rows)
        segs = [g.neighbors(i) for i in rows]
        assert np.array_equal(indptr, np.cumsum([0] + [len(s) for s in segs]))
        assert np.array_equal(indices, np.concatenate(segs) if segs else [])


def test_segment_argmax_first_maximum():
    rng = np.random.default_rng(13)
    for _ in range(100):
        lens = rng.integers(1, 6, int(rng.integers(0, 8)))
        indptr = np.concatenate(([0], np.cumsum(lens)))
        vals = rng.integers(0, 3, indptr[-1]).astype(float)  # ties on purpose
        ref = [a + int(np.argmax(vals[a:b])) for a, b in zip(indptr[:-1], indptr[1:])]
        assert np.array_equal(segment_argmax(vals, indptr), ref)


def test_build_ground_errors():
    with pytest.raises(NonFiniteCoordinate):
        build_ground(np.array([[0.0], [np.nan]]), "l2", 0.1)
    with pytest.raises(NegativeEpsilon):
        build_ground(LINE, "l2", -0.1)
    # every rejection is a ValidationError, which the CLI turns into exit 2
    for points, norm, eps in ((LINE, "l3", 0.1), ([[0.0], [1.0, 2.0]], "l2", 0.1),
                              ([], "l2", 0.1), ([[]], "l2", 0.1), (LINE, "l2", -0.1),
                              ([[0.0], [np.inf]], "l2", 0.1)):
        with pytest.raises(ValidationError):
            build_ground(points, norm, eps)


def test_sup_ball_example():
    g = line_ground()
    assert np.array_equal(sup_ball(g, np.array([0.0, 1.0, 2.0])),
                          [1.0, 2.0, 2.0])


def test_inf_ball_example():
    g = line_ground()
    assert np.array_equal(inf_ball(g, np.array([0.0, 1.0, 2.0])),
                          [0.0, 0.0, 1.0])


def test_eps_zero_is_identity():
    g = line_ground(0.0)
    f = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(sup_ball(g, f), f)
    assert np.array_equal(inf_ball(g, f), f)


def test_constant_field_fixed_point():
    g = line_ground()
    f = np.full(3, 1.25)
    assert np.array_equal(sup_ball(g, f), f)


def test_sup_dominates_and_monotone():
    rng = np.random.default_rng(0)
    g = build_ground(rng.uniform(0, 2, (25, 1)), "l2", 0.4)
    f = rng.normal(size=25)
    fp = f + rng.uniform(0, 1, 25)
    assert np.all(sup_ball(g, f) >= f)
    assert np.all(sup_ball(g, fp) >= sup_ball(g, f))


def test_inf_is_negated_sup():
    rng = np.random.default_rng(1)
    g = build_ground(rng.uniform(0, 2, (20, 2)), "linf", 0.5)
    f = rng.normal(size=20)
    assert np.array_equal(inf_ball(g, f), -sup_ball(g, -f))


def test_infinite_values_propagate():
    g = line_ground()
    f = np.array([-np.inf, 0.0, np.inf])
    assert np.array_equal(sup_ball(g, f), [0.0, np.inf, np.inf])
    assert np.array_equal(inf_ball(g, f), [-np.inf, -np.inf, 0.0])


def test_level_set_dilation_identity():
    rng = np.random.default_rng(7)
    g = build_ground(rng.uniform(0, 2, (40, 2)), "l2", 0.45)
    for _ in range(25):
        f = rng.normal(size=40)
        a = float(rng.normal())
        lhs = set(np.flatnonzero(sup_ball(g, f) > a).tolist())
        rhs = dilate(g, set(np.flatnonzero(f > a).tolist()))
        assert lhs == set(rhs)


def test_dilation_indicator_identity():
    rng = np.random.default_rng(8)
    g = build_ground(rng.uniform(0, 2, (30, 1)), "l2", 0.3)
    a = {2, 7, 11}
    ind = np.zeros(30)
    ind[list(a)] = 1.0
    assert set(np.flatnonzero(sup_ball(g, ind) > 0.5).tolist()) == set(dilate(g, a))


def test_dilate_examples():
    g = line_ground()
    assert set(dilate(g, {1})) == {0, 1, 2}
    assert set(dilate(g, {2})) == {1, 2}
    assert set(dilate(g, set())) == set()
    g0 = line_ground(0.0)
    assert set(dilate(g0, {0, 2})) == {0, 2}


def test_double_dilation_is_two_epsilon():
    # on a grid fine enough that every 2-epsilon hop has a stepping stone,
    # dilating twice equals dilating once with the doubled radius
    rng = np.random.default_rng(9)
    pts = (np.arange(35) * 0.1).reshape(-1, 1)
    g = build_ground(pts, "l2", 0.42)
    g2 = build_ground(pts, "l2", 0.84)
    f = rng.normal(size=35)
    assert np.array_equal(sup_ball(g, sup_ball(g, f)), sup_ball(g2, f))


def test_sliding_max_examples():
    assert np.array_equal(sliding_max_1d(np.array([0.0, 1.0, 2.0]), 1),
                          [1.0, 2.0, 2.0])
    f = np.array([5.0, -2.0, 3.0])
    assert np.array_equal(sliding_max_1d(f, 0), f)


def test_sliding_max_matches_naive():
    rng = np.random.default_rng(11)
    v = rng.normal(size=1000)
    assert np.array_equal(sliding_max_1d(v, 7), naive_window_max(v, 7))


def test_sliding_max_operation_budget():
    v = np.random.default_rng(13).normal(size=4096)
    _, ops = sliding_max_1d(v, 16, count_ops=True)
    assert ops <= 3 * v.size
