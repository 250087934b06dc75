import numpy as np
import pytest

from advdual.dualsolve import brute_dual, dual_objective, solve_dual
from advdual.errors import InstanceTooLarge, NegativeMass
from advdual.ground import build_ground
from advdual.losses import get_loss
from advdual.measures import TwoClassMeasure, coupling_in_delta, pushforward, winf_feasible
from advdual.primalsolve import risk_adv, solve_exp_primal


EXP = get_loss("exp")
LOG = get_loss("logistic")
HINGE = get_loss("hinge")
ZO = get_loss("zero-one")


def _hinted(g, measure):
    """The exponential dual pair read off the exponential primal's field."""
    return solve_dual(g, measure, solve_exp_primal(g, measure).f)


def test_dual_objective_half_collision():
    # equal masses colliding at one point: s * cstar(1/2) = 1 * 1 for exp
    assert dual_objective(EXP, [0.5], [0.5]) == pytest.approx(1.0)
    assert dual_objective(LOG, [0.5], [0.5]) == pytest.approx(np.log(2.0))
    assert dual_objective(HINGE, [0.5], [0.5]) == pytest.approx(1.0)
    assert dual_objective(ZO, [0.5], [0.5]) == pytest.approx(0.5)


def test_dual_objective_disjoint_support():
    # masses never meet: cstar(0) = cstar(1) = 0 for all losses
    for loss in (EXP, LOG, HINGE, ZO):
        assert dual_objective(loss, [0.5, 0.0], [0.0, 0.5]) == 0.0


def test_dual_objective_partial_overlap():
    # zero-one: s * min(eta, 1 - eta) summed
    assert dual_objective(ZO, [0.3], [0.5]) == pytest.approx(0.3)


def test_dual_objective_rejects_negative():
    with pytest.raises(NegativeMass):
        dual_objective(EXP, [-0.1], [0.2])


def test_dual_objective_concave_along_segments():
    rng = np.random.default_rng(3)
    for loss in (EXP, LOG, HINGE, ZO):
        for _ in range(30):
            a0, a1 = rng.uniform(0, 1, (2, 5))
            b0, b1 = rng.uniform(0, 1, (2, 5))
            t = rng.uniform()
            mid = dual_objective(loss, t * a0 + (1 - t) * b0, t * a1 + (1 - t) * b1)
            assert mid >= t * dual_objective(loss, a0, a1) + \
                (1 - t) * dual_objective(loss, b0, b1) - 1e-12


def test_weak_duality_random_fields(twopoint):
    g, measure = twopoint
    rng = np.random.default_rng(5)
    sol = _hinted(g, measure)
    for loss in (EXP, LOG, HINGE):
        dual = dual_objective(loss, sol.m0, sol.m1)
        for _ in range(20):
            f = rng.normal(scale=2.0, size=g.n)
            assert risk_adv(loss, f, g, measure) >= dual - 1e-9


def test_solve_dual_twopoint_exp(twopoint):
    g, measure = twopoint
    sol = _hinted(g, measure)
    assert sol.converged
    assert sol.objective == pytest.approx(1.0, abs=1e-8)
    # both class masses meet at the midpoint
    assert sol.m0[2] == pytest.approx(0.5, abs=1e-8)
    assert sol.m1[2] == pytest.approx(0.5, abs=1e-8)


def test_solve_dual_twopoint_zero_one(twopoint):
    g, measure = twopoint
    sol = _hinted(g, measure)
    assert dual_objective(ZO, sol.m0, sol.m1) == pytest.approx(0.5, abs=1e-8)


def test_solve_dual_eps_zero_is_pointwise():
    pts = np.array([[0.0], [0.3], [0.7]])
    g = build_ground(pts, "l2", 0.0)
    p0 = np.array([0.2, 0.1, 0.0])
    p1 = np.array([0.1, 0.3, 0.3])
    measure = TwoClassMeasure.build(p0, p1)
    sol = _hinted(g, measure)
    # no transport possible: marginals are the masses themselves
    assert np.allclose(sol.m0, p0, atol=1e-12)
    assert np.allclose(sol.m1, p1, atol=1e-12)
    assert sol.objective == pytest.approx(dual_objective(EXP, p0, p1), abs=1e-12)


def test_solution_couplings_feasible(oracle_instances):
    for name, g, measure in oracle_instances:
        sol = _hinted(g, measure)
        assert coupling_in_delta(g, sol.coupling0), name
        assert coupling_in_delta(g, sol.coupling1), name
        assert np.allclose(pushforward(sol.coupling0), sol.m0, atol=1e-12)
        assert np.allclose(pushforward(sol.coupling1), sol.m1, atol=1e-12)
        assert winf_feasible(g, measure.mass0, sol.m0, g.epsilon + 1e-9)
        assert winf_feasible(g, measure.mass1, sol.m1, g.epsilon + 1e-9)


def test_solve_dual_matches_brute(oracle_instances):
    # loss universality: the one exponential pair is optimal for every loss
    for name, g, measure in oracle_instances:
        sol = _hinted(g, measure)
        for loss in (EXP, LOG, HINGE, ZO):
            ref = brute_dual(loss, g, measure, grid_steps=60)
            value = dual_objective(loss, sol.m0, sol.m1)
            assert value >= ref - 2e-3, (name, loss.kind)


def test_brute_dual_twopoint(twopoint):
    g, measure = twopoint
    assert brute_dual(EXP, g, measure, grid_steps=60) == pytest.approx(1.0, abs=1e-3)


def test_brute_dual_too_large():
    g = build_ground(np.linspace(0, 1, 12)[:, None], "l2", 0.3)
    p = np.full(12, 1 / 24)
    measure = TwoClassMeasure.build(p, p)
    with pytest.raises(InstanceTooLarge):
        brute_dual(EXP, g, measure, grid_steps=200)


def test_solve_dual_deterministic(twopoint):
    g, measure = twopoint
    a = _hinted(g, measure)
    b = _hinted(g, measure)
    assert a.objective == b.objective
    assert np.array_equal(a.m0, b.m0) and np.array_equal(a.m1, b.m1)


def _assert_feasible_dual(g, measure, sol):
    assert coupling_in_delta(g, sol.coupling0)
    assert coupling_in_delta(g, sol.coupling1)
    assert np.allclose(pushforward(sol.coupling0), sol.m0, atol=1e-12)
    assert np.allclose(pushforward(sol.coupling1), sol.m1, atol=1e-12)
    assert np.allclose(sol.coupling0.source_marginal(), measure.mass0, atol=1e-12)
    assert np.allclose(sol.coupling1.source_marginal(), measure.mass1, atol=1e-12)


def test_hinted_dual_matches_brute(oracle_instances):
    for name, g, measure in oracle_instances:
        ps = solve_exp_primal(g, measure)
        sol = solve_dual(g, measure, ps.f)
        assert sol.objective >= brute_dual(EXP, g, measure, 60) - 2e-3, name
        _assert_feasible_dual(g, measure, sol)
        assert sol.converged, name
        assert sol.history[-1] == sol.objective
        assert max(sol.history) <= ps.risk + 1e-9, name


def test_hinted_dual_splits_tied_source():
    # the class-1 source at 1.5 ties between the meeting points 0.75 and
    # 2.25; the optimum splits it 1:2 like the class-0 masses it meets,
    # which a greedy read-off (all mass to one tied target) cannot do
    g = build_ground(np.array([[0.0], [0.75], [1.5], [2.25], [3.0]]), "l2", 0.75)
    measure = TwoClassMeasure.build([0.2, 0.0, 0.0, 0.0, 0.4],
                                    [0.0, 0.0, 0.3, 0.0, 0.0])
    ps = solve_exp_primal(g, measure)
    sol = solve_dual(g, measure, ps.f)
    assert sol.objective >= brute_dual(EXP, g, measure, 60) - 2e-3
    assert sol.objective == pytest.approx(2.0 * np.sqrt(0.3 * 0.6), abs=1e-6)
    assert sol.m1[1] == pytest.approx(0.1, abs=1e-3)
    assert sol.m1[3] == pytest.approx(0.2, abs=1e-3)
    _assert_feasible_dual(g, measure, sol)
    assert sol.converged


def test_hinted_dual_single_class():
    g = build_ground(np.array([[0.0], [0.5], [1.0]]), "l2", 0.6)
    measure = TwoClassMeasure.build([0.0, 0.0, 0.0], [0.3, 0.0, 0.2])
    ps = solve_exp_primal(g, measure)
    sol = solve_dual(g, measure, ps.f)
    assert sol.objective == 0.0
    assert sol.coupling0.w.size == 0
    _assert_feasible_dual(g, measure, sol)
    assert sol.converged


def test_hinted_dual_infinite_scores():
    # the outer points see only one class within two epsilon, so the primal
    # snaps them to -inf and +inf; the inner pair meets at 0.5
    g = build_ground(np.array([[-5.0], [0.0], [0.5], [1.0], [5.0]]), "l2", 0.6)
    measure = TwoClassMeasure.build([0.2, 0.25, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.25, 0.3])
    ps = solve_exp_primal(g, measure)
    assert ps.f[0] == -np.inf and ps.f[4] == np.inf
    sol = solve_dual(g, measure, ps.f)
    assert sol.objective >= brute_dual(EXP, g, measure, 60) - 2e-3
    assert sol.objective == pytest.approx(0.5, abs=1e-6)
    _assert_feasible_dual(g, measure, sol)
    assert sol.converged


def test_hinted_dual_flags_unbalanced_hint(twopoint):
    # sigmoid(0.6) at the meeting point cannot balance the equal masses that
    # meet there, so the hint and the optimal couplings leave slack
    g, measure = twopoint
    sol = solve_dual(g, measure, np.array([-1.0, 1.0, 0.3]))
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert not sol.converged


def test_eta_star_bounds(oracle_instances):
    for _, g, measure in oracle_instances:
        sol = _hinted(g, measure)
        eta = sol.eta_star()
        assert np.all(eta >= 0.0) and np.all(eta <= 1.0)
