import numpy as np
import pytest

from advdual.errors import NegativeEpsilon, NonFiniteCoordinate, NonUniformGrid
from advdual.ground import (
    build_ground,
    dilate,
    inf_ball,
    segment_argmax,
    sliding_max_1d,
    sliding_max_field,
    sup_ball,
)

from conftest import naive_window_max

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


def test_accelerator_matches_brute():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        pts = rng.uniform(0, 3, (60, d))
        for norm in ("l1", "l2", "linf"):
            gb = build_ground(pts, norm, 0.8, accelerator="brute")
            gg = build_ground(pts, norm, 0.8, accelerator="grid")
            assert np.array_equal(gb.indptr, gg.indptr)
            assert np.array_equal(gb.indices, gg.indices)


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


def test_sliding_max_matches_sup_ball_on_uniform_grid():
    rng = np.random.default_rng(12)
    xs = np.arange(50) * 0.1
    g = build_ground(xs.reshape(-1, 1), "l2", 0.35)
    f = rng.normal(size=50)
    assert np.array_equal(sliding_max_field(g, f), sup_ball(g, f))


def test_sliding_max_field_rejects_nonuniform():
    g = build_ground(np.array([[0.0], [0.1], [0.5]]), "l2", 0.2)
    with pytest.raises(NonUniformGrid):
        sliding_max_field(g, np.zeros(3))


def test_sliding_max_operation_budget():
    v = np.random.default_rng(13).normal(size=4096)
    _, ops = sliding_max_1d(v, 16, count_ops=True)
    assert ops <= 3 * v.size
