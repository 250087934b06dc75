import warnings

import numpy as np
import pytest

from advdual.certify import uncertified, universality_check
from advdual.cli import _pipeline
from advdual.dualsolve import solve_dual
from advdual.errors import InfeasiblePair, InstanceTooLarge
from advdual.ground import build_ground
from advdual.losses import get_loss
from advdual.measures import TwoClassMeasure
from advdual.primalsolve import (
    HPair,
    _ExpPrimalProblem,
    brute_primal,
    construct_f,
    eta_hat,
    hpair_feasible,
    risk_adv,
    solve_exp_primal,
    theta,
    threshold_classifier,
)


EXP = get_loss("exp")
LOG = get_loss("logistic")
HINGE = get_loss("hinge")
ZO = get_loss("zero-one")


def test_risk_adv_twopoint_zero_field(twopoint):
    g, measure = twopoint
    # f = 0 everywhere: phi(0) = 1 for exp, so risk is total mass
    assert risk_adv(EXP, np.zeros(3), g, measure) == pytest.approx(1.0)
    assert risk_adv(LOG, np.zeros(3), g, measure) == pytest.approx(np.log(2.0))
    assert risk_adv(HINGE, np.zeros(3), g, measure) == pytest.approx(1.0)


def test_risk_adv_eps_zero_no_perturbation():
    g = build_ground(np.array([[0.0], [1.0]]), "l2", 0.0)
    measure = TwoClassMeasure.build([0.5, 0.0], [0.0, 0.5])
    f = np.array([-3.0, 3.0])
    expect = 0.5 * np.exp(-3.0) + 0.5 * np.exp(-3.0)
    assert risk_adv(EXP, f, g, measure) == pytest.approx(expect)


def test_risk_adv_perturbation_only_hurts(twopoint):
    g, measure = twopoint
    g0 = build_ground(g.points, g.norm, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.normal(size=3)
        assert risk_adv(EXP, f, g, measure) >= risk_adv(EXP, f, g0, measure) - 1e-12


def test_hpair_feasible_exponential_product():
    assert hpair_feasible(EXP, [2.0, 1.0], [0.5, 1.0])
    assert not hpair_feasible(EXP, [2.0], [0.4])
    assert hpair_feasible(EXP, [np.inf], [0.0])
    assert not hpair_feasible(EXP, [-1.0], [2.0])


def test_hpair_feasible_general_losses():
    # hinge phi pair at f = 0: h0 = h1 = 1 dominates cstar everywhere
    assert hpair_feasible(HINGE, [1.0], [1.0])
    assert not hpair_feasible(HINGE, [0.4], [0.4])
    assert hpair_feasible(LOG, [np.log(2.0)], [np.log(2.0)])


def test_theta_matches_risk_on_loss_pairs(twopoint):
    g, measure = twopoint
    rng = np.random.default_rng(2)
    for loss in (EXP, LOG, HINGE):
        for _ in range(10):
            f = rng.normal(size=3)
            hp = HPair(h0=loss.phi(-f), h1=loss.phi(f))
            assert theta(loss, hp, g, measure) == pytest.approx(
                risk_adv(loss, f, g, measure), abs=1e-12)


def test_theta_rejects_infeasible(twopoint):
    g, measure = twopoint
    with pytest.raises(InfeasiblePair):
        theta(EXP, HPair(h0=np.zeros(3), h1=np.zeros(3)), g, measure)


def test_solve_exp_primal_eps_zero_closed_form():
    # without perturbation the optimum is f = 0.5 * log(p1/p0) per point
    g = build_ground(np.array([[0.0], [1.0]]), "l2", 0.0)
    p0 = np.array([0.3, 0.1])
    p1 = np.array([0.1, 0.4])
    measure = TwoClassMeasure.build(p0, p1)
    sol = solve_exp_primal(g, measure)
    expect = 2.0 * np.sqrt(p0 * p1).sum()
    assert sol.risk == pytest.approx(expect, abs=1e-9)
    assert np.allclose(sol.f, 0.5 * np.log(p1 / p0), atol=1e-5)


def test_solve_exp_primal_twopoint(twopoint):
    g, measure = twopoint
    sol = solve_exp_primal(g, measure)
    assert sol.risk == pytest.approx(1.0, abs=1e-8)
    # symmetric instance: midpoint score must vanish
    assert abs(sol.f[2]) < 1e-6


def test_solve_exp_primal_single_class():
    g = build_ground(np.array([[0.0], [0.4]]), "l2", 0.5)
    measure = TwoClassMeasure.build([0.0, 0.0], [0.6, 0.4])
    sol = solve_exp_primal(g, measure)
    # only class 1 present: scores diverge to +inf and the risk vanishes
    assert sol.risk == pytest.approx(0.0, abs=1e-12)
    assert np.all(sol.f == np.inf)


@pytest.mark.parametrize("mass0, mass1", [([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
                                          ([0.0, 0.0, 0.0], [0.2, 0.3, 0.0]),
                                          ([0.0, 0.4, 0.0], [0.0, 0.0, 0.0])])
def test_solve_exp_primal_empty_classes(mass0, mass1):
    # no mass at all: the zero field at risk 0; one empty class: every point
    # that mass reaches within two epsilon is snapped to the infinite score
    g = build_ground(np.array([[0.0], [0.5], [3.0]]), "l2", 0.5)
    measure = TwoClassMeasure.build(mass0, mass1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_exp_primal(g, measure)
    assert sol.risk == pytest.approx(0.0, abs=1e-12)
    reached = np.array([True, True, False]) if measure.total else np.zeros(3, bool)
    snapped = np.inf if sum(mass1) else -np.inf
    assert np.all(sol.f[reached] == snapped)
    assert np.all(sol.f[~reached] == 0.0)


def _drawn_instances():
    """Small random instances with epsilon 0 (every fourth), duplicate
    points, zero-mass points and, every third, one empty class."""
    rng = np.random.default_rng(13)
    for k in range(12):
        n = int(rng.integers(4, 13))
        pts = rng.uniform(0.0, 2.0, (n, int(rng.integers(1, 3))))
        pts[-2:] = pts[:2]
        eps = 0.0 if k % 4 == 0 else float(rng.uniform(0.1, 1.0))
        g = build_ground(pts, str(rng.choice(["l1", "l2", "linf"])), eps)
        mass = rng.uniform(size=(2, n)) * (rng.uniform(size=(2, n)) < 0.6)
        mass[:, 0] = 0.5
        if k % 3 == 2:
            mass[k % 2] = 0.0
        yield g, TwoClassMeasure.build(mass[0], mass[1]), 2.0 * rng.normal(size=n)


def _two_loop_value_grad(g, measure, f, tau):
    # the objective per unit mass written out ball by ball, class by class
    val, grad = 0.0, np.zeros(g.n)
    for mass, sign in ((measure.mass0, 1.0), (measure.mass1, -1.0)):
        for i in np.flatnonzero(mass > 0):
            ball = g.neighbors(i)
            v = sign * f[ball]
            z = np.exp((v - v.max()) / tau)
            term = mass[i] * np.exp(v.max() + tau * np.log(z.sum()))
            val += term
            np.add.at(grad, ball, sign * term * z / z.sum())
    return val / measure.total, grad / measure.total


@pytest.mark.parametrize("tau", [1e-1, 1e-2, 1e-3])
def test_exp_primal_value_grad_matches_reference(tau):
    for g, measure, f in _drawn_instances():
        prob = _ExpPrimalProblem(g, measure)
        val, grad = prob.value_grad(f, tau)
        ref_val, ref_grad = _two_loop_value_grad(g, measure, f, tau)
        assert val == pytest.approx(ref_val, rel=1e-10, abs=1e-13)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-13)
        # central differences, steps small against tau
        h = 1e-3 * tau
        fd = [(prob.value_grad(f + h * e, tau)[0] - prob.value_grad(f - h * e, tau)[0])
              / (2.0 * h) for e in np.eye(g.n)]
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
        assert prob.risk(f) == pytest.approx(risk_adv(EXP, f, g, measure) / measure.total,
                                             rel=1e-12)


def test_solve_exp_primal_matches_brute(oracle_instances):
    for name, g, measure in oracle_instances:
        sol = solve_exp_primal(g, measure)
        ref = brute_primal(EXP, g, measure)
        assert sol.risk <= ref + 1e-6, name


def test_solve_exp_primal_matches_dual(oracle_instances):
    for name, g, measure in oracle_instances:
        sol = solve_exp_primal(g, measure)
        dual = solve_dual(g, measure, sol.f)
        assert sol.risk - dual.objective <= 1e-6 * max(1.0, sol.risk), name
        assert sol.risk >= dual.objective - 1e-9


@pytest.mark.parametrize("scale", [1.0, 0.01, 100.0])
def test_solve_exp_primal_stage_work_on_a_scatter(scale):
    # 400 uniform points in [0, 2]^2 with class-1 mass scale/400 where a draw
    # falls below sigmoid(4(x - 1)), class 0 elsewhere; l1 at epsilon 0.3.
    # The stages stop at the default L-BFGS-B tolerances on the risk per
    # unit mass (286 iterations at scale 1 with scipy 1.17.1), so the work
    # and the verdict do not depend on the total mass.
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 2.0, (400, 2))
    label = rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-4.0 * (pts[:, 0] - 1.0)))
    measure = TwoClassMeasure.build(np.where(label, 0.0, scale / 400),
                                    np.where(label, scale / 400, 0.0))
    g = build_ground(pts, "l1", 0.3)
    assert solve_exp_primal(g, measure).iterations <= 600
    ds, _ = _pipeline(g, measure, 1e-4)
    certs = universality_check(ds.f, ds.witness, ["exp", "logistic", "hinge"], g,
                               measure).certificates
    assert set(certs) == {"exponential", "logistic", "hinge"}
    assert uncertified(certs, 1e-4, measure.total) == []


def test_solve_exp_primal_deterministic(twopoint):
    g, measure = twopoint
    a = solve_exp_primal(g, measure)
    b = solve_exp_primal(g, measure)
    assert np.array_equal(a.f, b.f)
    assert a.risk == b.risk


def test_eta_hat_examples():
    assert np.allclose(eta_hat([0.0]), [0.5])
    assert np.allclose(eta_hat([np.inf, -np.inf]), [1.0, 0.0])
    assert eta_hat([0.5 * np.log(3.0)])[0] == pytest.approx(0.75)


def test_eta_hat_round_trip():
    # exponential alpha_opt inverts eta_hat away from the endpoints
    etas = np.linspace(0.01, 0.99, 33)
    f = construct_f(EXP, etas)
    assert np.allclose(eta_hat(f), etas, atol=1e-12)


def test_construct_f_examples():
    # exponential: 0.5 * log(eta / (1 - eta))
    assert construct_f(EXP, [0.5])[0] == 0.0
    assert construct_f(EXP, [0.75])[0] == pytest.approx(0.5 * np.log(3.0))
    # hinge: sign-like steps
    assert construct_f(HINGE, [0.2])[0] == -1.0
    assert construct_f(HINGE, [0.8])[0] == 1.0
    # zero-one: the thresholded classifier
    assert np.array_equal(construct_f(ZO, [0.2, 0.5, 0.9]), [-1.0, -1.0, 1.0])


def test_construct_f_monotone():
    etas = np.linspace(0.0, 1.0, 201)
    for loss in (EXP, LOG, HINGE):
        f = construct_f(loss, etas)
        assert np.all(np.diff(f) >= -1e-12)


def test_threshold_classifier():
    assert np.array_equal(threshold_classifier([0.2, 0.5, 0.9]), [-1.0, -1.0, 1.0])


def test_classify_risk_adv_twopoint(twopoint):
    g, measure = twopoint
    # optimal sign field still collides at the shared midpoint
    assert risk_adv(ZO, np.array([-1.0, 1.0, 0.0]), g, measure) \
        == pytest.approx(0.5)
    # with no perturbation a correct classifier has zero risk
    g0 = build_ground(g.points, g.norm, 0.0)
    assert risk_adv(ZO, np.array([-1.0, 1.0, 0.0]), g0, measure) == 0.0


def test_brute_primal_rejects_large():
    g = build_ground(np.linspace(0, 1, 4)[:, None], "l2", 0.3)
    p = np.full(4, 0.125)
    with pytest.raises(InstanceTooLarge):
        brute_primal(EXP, g, TwoClassMeasure.build(p, p))


def test_risk_adv_convex_in_h_space(twopoint):
    # theta is linear in (h0, h1), so convexity shows up along phi images
    g, measure = twopoint
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = loss_pair(EXP, rng.normal(size=3))
        b = loss_pair(EXP, rng.normal(size=3))
        t = rng.uniform()
        mix = HPair(h0=t * a.h0 + (1 - t) * b.h0, h1=t * a.h1 + (1 - t) * b.h1)
        lhs = theta(EXP, mix, g, measure)
        rhs = t * theta(EXP, a, g, measure) + (1 - t) * theta(EXP, b, g, measure)
        assert lhs <= rhs + 1e-12


def loss_pair(loss, f):
    return HPair(h0=loss.phi(-f), h1=loss.phi(f))
