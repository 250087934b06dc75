import numpy as np
import pytest

from advdual.errors import MassMismatch, NegativeMass, ValidationError
from advdual.ground import build_ground, sup_ball
from advdual.measures import (
    Coupling,
    SourceBalls,
    TwoClassMeasure,
    coupling_in_delta,
    greedy_attack,
    pushforward,
    transported_integral,
    winf_distance,
    winf_feasible,
)

from conftest import hall_winf, identity_coupling


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
    # them, so the transport program meets partial matchings and split mass
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
    +-inf, a mask and entry weights that leave some balls with none."""
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
        on = rng.uniform(size=g.n) < 0.6
        x = rng.choice([-1.0, 0.0, 0.5, 2.0], b.ix.size)
        w = b.renormalize(x)
        top, renorm, pairs = [], [], ([], [])
        m, cap = np.zeros((2, g.n)), np.full((2, g.n), np.inf)
        reach = np.zeros((2, g.n), dtype=bool)
        at = 0
        for c, (mass, sign) in enumerate(((measure.mass0, 1.0), (measure.mass1, -1.0))):
            for i in np.flatnonzero(mass > 0):
                ball = g.neighbors(i)
                top.append((sign * f[ball]).max())
                y = np.maximum(x[at:at + ball.size], 0.0)
                y = np.ones(ball.size) if y.sum() == 0 else y
                y = y * (mass[i] / y.sum())
                renorm.append(y)
                np.add.at(m[c], ball, y)
                pairs[c].extend((i, j, v) for j, v in zip(ball, y) if v > 0)
                vals = (sign * f[ball])[on[ball]]
                cap[c, ball] = np.minimum(cap[c, ball], vals.max(initial=-np.inf))
                reach[c, ball] = True
                at += ball.size
        assert at == b.ix.size
        assert b.top(f).tolist() == top
        # the same sums in the same order: equal to the last bit
        assert w.tolist() == np.concatenate(renorm or [np.zeros(0)]).tolist()
        assert np.array_equal(b.push(w), m)
        for c, coupling in enumerate(b.couplings(w)):
            assert coupling.n == g.n and coupling.triples() == pairs[c]
        assert np.array_equal(b.cap(f, on), cap)
        assert np.array_equal(b.reach, reach)
