import numpy as np
import pytest

from advdual import measures
from advdual.cli import _pipeline
from advdual.errors import MassMismatch, NegativeMass, ValidationError
from advdual.ground import build_ground, distances, sup_ball
from advdual.measures import (
    Coupling,
    SourceBalls,
    TwoClassMeasure,
    coupling_in_delta,
    greedy_attack,
    pushforward,
    route,
    transported_integral,
    winf_distance,
    winf_feasible,
)

from conftest import hall_winf, identity_coupling, transport_lp_feasible
from test_acceptance import _mixed_scale_draws, _scatter_l2


def test_two_class_measure_validation():
    m = TwoClassMeasure.build([0.25, 0.0], [0.5, 0.25])
    assert m.total == pytest.approx(1.0)
    with pytest.raises(NegativeMass):
        TwoClassMeasure.build([-0.1, 0.2], [0.1, 0.1])


def test_identity_pushforward():
    p = np.array([0.2, 0.0, 0.8])
    c = identity_coupling(p)
    assert np.allclose(pushforward(c), p)


def test_split_pushforward():
    c = Coupling.build([0, 0], [0, 1], [0.5, 0.5], 2)
    assert np.allclose(pushforward(c), [0.5, 0.5])


def test_pushforward_conserves_total():
    rng = np.random.default_rng(2)
    src = rng.integers(0, 10, 30)
    dst = rng.integers(0, 10, 30)
    w = rng.uniform(0, 1, 30)
    c = Coupling.build(src, dst, w, 10)
    assert pushforward(c).sum() == pytest.approx(w.sum(), abs=1e-12)


def test_coupling_rejects_negative_weight():
    with pytest.raises(NegativeMass):
        Coupling.build([0], [0], [-0.1], 2)
    with pytest.raises(ValidationError):
        Coupling.build([0], [5], [0.1], 2)


def test_winf_feasible_single_edge():
    g = build_ground(np.array([[0.0], [1.0]]), "l2", 1.0)
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert winf_feasible(g, p, q, 1.0)
    assert not winf_feasible(g, p, q, 0.9)
    assert winf_feasible(g, p, p, 0.0)


def test_winf_feasible_mass_mismatch():
    g = build_ground(np.array([[0.0], [1.0]]), "l2", 1.0)
    with pytest.raises(MassMismatch):
        winf_feasible(g, np.array([1.0, 0.0]), np.array([0.0, 0.5]), 1.0)


def test_winf_four_point_matching():
    pts = np.array([[0.0], [1.0], [0.4], [1.4]])
    g = build_ground(pts, "l2", 0.0)
    p = np.array([0.5, 0.5, 0.0, 0.0])
    q = np.array([0.0, 0.0, 0.5, 0.5])
    assert winf_feasible(g, p, q, 0.4)
    assert not winf_feasible(g, p, q, 0.39)
    assert winf_distance(g, p, q) == pytest.approx(0.4)


def test_winf_distance_basics():
    g = build_ground(np.array([[0.0], [1.0]]), "l2", 1.0)
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert winf_distance(g, p, q) == pytest.approx(1.0)
    assert winf_distance(g, p, p) == 0.0


def test_winf_feasible_monotone_in_eps():
    rng = np.random.default_rng(6)
    g = build_ground(rng.uniform(0, 2, (6, 1)), "l2", 1.0)
    p = rng.uniform(0, 1, 6)
    q = rng.permutation(p)
    feas = [winf_feasible(g, p, q, e) for e in np.linspace(0, 2.5, 12)]
    assert feas == sorted(feas)


def test_winf_matches_hall_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        g = build_ground(rng.uniform(0, 2, (n, 2)), "l2", 1.0)
        p = rng.uniform(0, 1, n)
        q = np.zeros(n)
        q[rng.permutation(n)] = p
        assert winf_distance(g, p, q) == hall_winf(g, p, q)
    # coordinates on a 0.1 grid: many pairs tie at one distance up to the
    # last bit, so the oracle must decide "within" exactly as the package
    for t in range(60):
        n = int(rng.integers(2, 7))
        g = build_ground(np.round(rng.uniform(0, 2, (n, 2)), 1),
                         ("l1", "l2", "linf")[t % 3], 1.0)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert winf_distance(g, p, q) == hall_winf(g, p, q)


def test_winf_unbalanced_target_matches_hall_oracle():
    # targets drawn independently of the sources, not as a permutation of
    # them, so the max-flow meets partial matchings and split mass
    rng = np.random.default_rng(16)
    for t in range(120):
        n = int(rng.integers(2, 7))
        g = build_ground(rng.uniform(0, 2, (n, int(rng.integers(1, 3)))),
                         ("l1", "l2", "linf")[t % 3], 0.0)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.full(n, rng.uniform(0.2, 2.0)))
        if t % 4 == 0:
            p[rng.integers(n)] = 0.0
            p /= p.sum()
        assert winf_distance(g, p, q) == hall_winf(g, p, q)


def test_winf_feasible_decides_shortfalls_below_the_int32_unit():
    # two disjoint matchings, each target a mass d off its source: the most
    # that moves is 1 - d, and d is below the first max-flow's unit (its
    # needs sum to 2, so 2^-28), so the repair flow decides it, exactly at
    # FLOW_SLACK = 1e-10
    g = build_ground(np.array([[0.0], [0.1], [5.0], [5.1]]), "l2", 0.2)
    p = np.array([0.5, 0.0, 0.5, 0.0])
    for d, ok in ((1e-9, False), (3e-10, False), (1.5e-10, False), (5e-11, True), (0.0, True)):
        q = np.array([0.0, 0.5 + d, 0.0, 0.5 - d])
        assert winf_feasible(g, p, q) == ok, d


def test_route_repairs_only_the_shortfalls_of_block_nodes():
    # the arc within block 0 carries node 1's need to node 2 exactly in the
    # first max-flow; node 0 is in no block, so its need is no shortfall and
    # runs no repair
    tail, head, block = np.array([1, 0]), np.array([2, 2]), np.array([-1, 0, 0])
    for outside in (0.0, 0.3):
        flow, reach, runs = route(tail, head, block, np.array([outside, 0.5, -0.5]))
        assert runs == 1, outside
        assert flow.tolist() == [0.5, 0.0] and not reach.any(), outside


def test_route_runs_a_whole_block_beside_a_rounded_one_as_alone():
    # block 0 holds whole needs 2, -1 and -1 (nodes 0-2), block 1 the needs
    # 0.1 and 0.2 sent to node 5, whose rounding a repair routes.  Node 0
    # reaches node 1 only: the whole block's first max-flow is exact, the
    # repair leaves it as it was, and its residual graph reaches nodes 0
    # and 1 as it does when the block is routed alone
    tail, head = np.array([0, 3, 4]), np.array([1, 5, 5])
    block = np.array([0, 0, 0, 1, 1, 1])
    need = np.array([2.0, -1.0, -1.0, 0.1, 0.2, -(0.1 + 0.2)])
    flow, reach, runs = route(tail, head, block, need)
    alone, alone_reach, alone_runs = route(tail, head, np.where(block == 0, 0, -1), need)
    assert runs == 2 and alone_runs == 1
    assert flow[0] == alone[0] == 1.0
    np.testing.assert_allclose(flow[1:], [0.1, 0.2], rtol=1e-15)
    assert reach.tolist() == alone_reach.tolist() == [True, True] + [False] * 4


def test_route_keys_are_unique_on_the_mixed_scale_draws(monkeypatch):
    # every key of the arc layout appears once: within each row of every
    # graph handed to maximum_flow the columns strictly rise, so the order
    # of an unstable sort is the stable one
    seen, real = [], measures.maximum_flow

    def record(graph, *args, **kwargs):
        rows = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
        step = np.diff(graph.indices.astype(np.int64))
        seen.append(bool(np.all(step[rows[1:] == rows[:-1]] > 0)))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(measures, "maximum_flow", record)
    for pts, norm, eps, measure in _mixed_scale_draws(7, 40):
        _pipeline(build_ground(pts, norm, eps), measure, None)
    assert len(seen) > 40 and all(seen)


def test_whole_masses_make_every_winf_step_one_max_flow(monkeypatch):
    # equal masses, normalised as the winf command does: every bisection
    # step's needs are whole, so each route is one exact max-flow, and the
    # distance is the one the rounded needs and their repairs find
    runs, real = [], measures.route

    def route(*args):
        out = real(*args)
        runs.append(out[2])
        return out

    monkeypatch.setattr(measures, "route", route)
    g, measure = _scatter_l2(200)
    p, q = measure.mass0 / measure.mass0.sum(), measure.mass1 / measure.mass1.sum()
    d = winf_distance(g, p, q)
    assert len(runs) > 5 and set(runs) == {1}
    runs.clear()
    monkeypatch.setattr(measures, "whole", lambda mass: None)
    assert winf_distance(g, p, q) == d and 2 in runs


def test_winf_flow_matches_the_transport_program_at_scale():
    # the 200-point scatter recipe under each norm, its class measures
    # normalised as the winf command does: at the distance winf_distance
    # returns, the max-flow and the transport linear program both move
    # every mass, and at the spectrum value below it neither does
    g2, measure = _scatter_l2(200)
    p = measure.mass0 / measure.mass0.sum()
    q = measure.mass1 / measure.mass1.sum()
    src, dst = g2.points[p > 0], g2.points[q > 0]
    for norm in ("l1", "l2", "linf"):
        g = build_ground(g2.points, norm, g2.epsilon)
        spectrum = np.unique(distances(src[:, None], dst[None], norm))
        d = winf_distance(g, p, q)
        below = spectrum[np.searchsorted(spectrum, d) - 1]
        assert winf_feasible(g, p, q, d) and transport_lp_feasible(g, p, q, d), norm
        assert not winf_feasible(g, p, q, below), norm
        assert not transport_lp_feasible(g, p, q, below), norm


def test_greedy_attack_example(twopoint):
    g, _ = twopoint
    field = np.array([0.0, 2.0, 1.0])  # values at points 0, 1, 0.5
    p = np.array([1.0, 0.0, 0.0])
    c = greedy_attack(g, field, p)
    assert c.triples() == [(0, 2, 1.0)]


def test_greedy_attack_identity_at_eps_zero():
    g = build_ground(np.array([[0.0], [1.0]]), "l2", 0.0)
    p = np.array([0.3, 0.7])
    c = greedy_attack(g, np.array([5.0, -1.0]), p)
    assert np.allclose(pushforward(c), p)


def test_greedy_attack_exchange_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 25))
        g = build_ground(rng.uniform(0, 2, (n, 1)), "l2", 0.4)
        field = rng.normal(size=n)
        p = rng.uniform(0, 1, n)
        c = greedy_attack(g, field, p)
        expect = float((p * sup_ball(g, field)).sum())
        assert transported_integral(g, field, c) == pytest.approx(expect, abs=1e-12)


def test_greedy_attack_ties_lowest_index():
    g = build_ground(np.array([[0.0], [0.1], [0.2]]), "l2", 0.25)
    c = greedy_attack(g, np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert c.triples() == [(1, 0, 1.0)]


def test_coupling_stays_in_delta():
    g = build_ground(np.array([[0.0], [0.5], [1.0]]), "l2", 0.6)
    ok = Coupling.build([0], [1], [1.0], 3)
    bad = Coupling.build([0], [2], [1.0], 3)
    assert coupling_in_delta(g, ok)
    assert not coupling_in_delta(g, bad)


def test_coupling_pushforward_within_eps_of_source():
    rng = np.random.default_rng(10)
    g = build_ground(rng.uniform(0, 2, (8, 1)), "l2", 0.5)
    p = rng.uniform(0.1, 1, 8)
    c = greedy_attack(g, rng.normal(size=8), p)
    assert winf_distance(g, p, pushforward(c)) <= g.epsilon


def _source_ball_cases():
    """Duplicate points at epsilon 0 with zero-mass points, one empty class,
    no mass at all, and drawn 2-D instances; each with a field holding
    +-inf, per-point values holding +inf and entry weights that leave some
    balls with none."""
    rng = np.random.default_rng(3)
    dup = build_ground(np.array([[0.0], [0.0], [1.0], [1.0], [2.0]]), "l2", 0.0)
    yield dup, TwoClassMeasure.build([0.5, 0.0, 0.25, 0.0, 0.0], [0.0, 0.5, 0.25, 0.0, 0.0])
    line = build_ground(np.array([[0.0], [0.5], [1.0], [0.5]]), "linf", 0.5)
    yield line, TwoClassMeasure.build([0.0, 0.0, 0.0, 0.0], [0.25, 0.0, 1.0, 0.5])
    yield line, TwoClassMeasure.build([0.25, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    yield line, TwoClassMeasure.build([0.0] * 4, [0.0] * 4)
    for k in range(6):
        n = int(rng.integers(3, 12))
        g = build_ground(rng.uniform(0, 2, (n, 2)), ("l1", "l2", "linf")[k % 3],
                         float(rng.uniform(0.2, 1.0)))
        mass = rng.uniform(size=(2, n)) * (rng.uniform(size=(2, n)) < 0.6)
        yield g, TwoClassMeasure.build(mass[0], mass[1])


def test_source_balls_match_ball_by_ball_loops():
    rng = np.random.default_rng(4)
    for g, measure in _source_ball_cases():
        b = SourceBalls(g, measure)
        f = rng.choice([-np.inf, -1.0, 0.0, 0.5, np.inf], g.n)
        h = rng.choice([0.0, 0.25, 1.0, 3.0, np.inf], (2, g.n))  # h0, h1
        x = rng.choice([-1.0, 0.0, 0.5, 2.0], b.ix.size)
        w = b.renormalize(x, f)
        worst, renorm, pairs = [0.0, 0.0], [], ([], [])
        m, cap = np.zeros((2, g.n)), np.full((2, g.n), np.inf)
        reach = np.zeros((2, g.n), dtype=bool)
        balls = []
        at = 0
        for c, (mass, sign) in enumerate(((measure.mass0, 1.0), (measure.mass1, -1.0))):
            for i in np.flatnonzero(mass > 0):
                ball = g.neighbors(i)
                balls.append((c, sign, ball))
                worst[c] += mass[i] * h[c, ball].max()
                y = np.maximum(x[at:at + ball.size], 0.0)
                if y.sum() == 0:
                    # no weight: all on the first extremum of f on the ball
                    y[np.argmax(sign * f[ball])] = 1.0
                y = y * (mass[i] / y.sum())
                renorm.append(y)
                np.add.at(m[c], ball, y)
                pairs[c].extend((i, j, v) for j, v in zip(ball, y) if v > 0)
                reach[c, ball] = True
                at += ball.size
        assert at == b.ix.size
        on_k = reach[0] & reach[1]
        for c, sign, ball in balls:
            vals = (sign * f[ball])[on_k[ball]]
            cap[c, ball] = np.minimum(cap[c, ball], vals.max(initial=-np.inf))
        # class 1 first; the sums of one class in another order
        np.testing.assert_allclose(b.worst(h[1], h[0]), worst[::-1], rtol=1e-14, atol=0)
        # the same sums in the same order: equal to the last bit
        assert w.tolist() == np.concatenate(renorm or [np.zeros(0)]).tolist()
        assert np.array_equal([pushforward(c) for c in b.couplings(w)], m)
        for c, coupling in enumerate(b.couplings(w)):
            assert coupling.n == g.n and coupling.triples() == pairs[c]
        # each point one class reaches takes its cap unless its score is
        # already infinite in that class's direction
        want = f.copy()
        only0 = reach[0] & ~on_k & (f != -np.inf)
        only1 = reach[1] & ~on_k & (f != np.inf)
        want[only0], want[only1] = cap[0, only0], -cap[1, only1]
        done = f.copy()
        assert b.complete(done) is done
        assert np.array_equal(done, want)
        assert np.array_equal(b.reach, reach)
        assert np.array_equal(b.on_k, on_k) and np.array_equal(b.K, np.flatnonzero(on_k))
