import os
import sys
import warnings

import numpy as np
import pytest

from advdual import io as adio
from advdual.certify import certify, uncertified, universality_check
from advdual.cli import _pipeline
from advdual.dualsolve import solve_dual
from advdual import ground, primalsolve
from advdual.errors import InfeasiblePair, InstanceTooLarge
from advdual.ground import build_ground
from advdual.losses import get_loss
from advdual.measures import SourceBalls, TwoClassMeasure, Witness
from advdual.primalsolve import (
    HPair,
    brute_primal,
    construct_f,
    eta_hat,
    hpair_feasible,
    risk_adv,
    solve_exp_primal,
    solve_exp_primals,
    theta,
    threshold_classifier,
)

from conftest import ROOT, ball_by_ball_risk, identity_coupling
from test_acceptance import _mixed_scale_draws, _random_instance


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


@pytest.mark.parametrize("m", [2, 4, 6])
def test_theta_rejects_wrong_length_pair(twopoint, m):
    # a feasible pair of any length but n is refused, not read past its end
    # or into the other class's half
    g, measure = twopoint
    with pytest.raises(ValueError, match="shape"):
        theta(EXP, HPair(h0=np.ones(m), h1=np.ones(m)), g, measure)


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
    # that mass reaches within epsilon is snapped to the infinite score
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


def _criterion_01_suite():
    rng = np.random.default_rng(12345)
    return [_random_instance(rng) for _ in range(50)]


def test_solve_exp_primal_is_exact_on_the_suite():
    # the risk of the level field meets the dual value of the couplings on
    # its levels, a witness validated on its own, to float round-off
    for k, (g, measure) in enumerate(_criterion_01_suite()):
        ps = solve_exp_primal(g, measure)
        ds = solve_dual(g, measure, ps.f)
        assert abs(ps.risk - ds.objective) <= 1e-12 * measure.total, k


def test_solve_exp_primal_caps_points_one_class_reaches():
    # a point one class reaches holds exactly the cap of the K scores, the
    # rule solve_dual applies; no class reaches a point: score 0; and the
    # risk is the exact risk of the returned field
    for k, (g, measure) in enumerate(_criterion_01_suite()):
        sol = solve_exp_primal(g, measure)
        b = SourceBalls(g, measure)
        assert np.array_equal(b.complete(np.where(b.on_k, sol.f, 0.0)), sol.f), k
        assert np.all(sol.f[~b.reach[0] & ~b.reach[1]] == 0.0), k
        assert np.all(np.isfinite(sol.f[b.on_k])), k
        assert sol.risk == risk_adv(EXP, sol.f, g, measure), k


def test_solve_exp_primal_builds_no_neighbour_index(twopoint, monkeypatch):
    # the primal reads only the source balls of the ground set it is given
    instances = [twopoint, *_criterion_01_suite()[:5]]

    def refuse(*args, **kwargs):
        raise AssertionError("solve_exp_primal built a neighbour index")

    monkeypatch.setattr(primalsolve, "build_ground", refuse)
    monkeypatch.setattr(ground, "build_ground", refuse)
    for g, measure in instances:
        assert np.isfinite(solve_exp_primal(g, measure).risk)


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


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0, 1e-300, 1e300])
def test_exp_primal_exact_on_drawn_instances(scale):
    # epsilon 0, duplicate points, zero-mass points and one empty class: the
    # level field's risk meets the dual value to round-off at every mass
    # scale, the extreme ones included (the flows read masses per unit of
    # total mass), and the field depends only on the mass ratios
    for k, (g, measure, _) in enumerate(_drawn_instances()):
        scaled = TwoClassMeasure.build(scale * measure.mass0, scale * measure.mass1)
        ps = solve_exp_primal(g, scaled)
        ds = solve_dual(g, scaled, ps.f)
        assert abs(ps.risk - ds.objective) <= 1e-12 * scaled.total, k
        np.testing.assert_allclose(ps.f, solve_exp_primal(g, measure).f, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["exp", "logistic", "hinge", "zero-one"])
def test_risks_match_the_ball_by_ball_sum(name):
    # risk_adv, theta and the certificate's primal value sum over the source
    # balls alone; the sum over every point's ball agrees to 4 ulp, on
    # criterion 01's suite and on instances with epsilon 0, one empty class
    # and zero-mass points, every other field with +-inf scores
    loss, rng = get_loss(name), np.random.default_rng(21)
    cases = [*_criterion_01_suite(), *((g, m) for g, m, _ in _drawn_instances())]
    for k, (g, measure) in enumerate(cases):
        f = 2.0 * rng.normal(size=g.n)
        if k % 2:
            f[rng.uniform(size=g.n) < 0.2] = rng.choice([-np.inf, np.inf])
        h1, h0 = loss.margins(f)
        ref = ball_by_ball_risk(g, measure, h1, h0)
        witness = Witness(SourceBalls(g, measure), identity_coupling(measure.mass0),
                          identity_coupling(measure.mass1))
        # the identity witness may leave inf - inf in a residual
        with np.errstate(invalid="ignore"):
            cert = certify(loss, f, witness)
        values = (risk_adv(loss, f, g, measure), theta(loss, HPair(h0=h0, h1=h1), g, measure),
                  cert.primal_value)
        for v in values:
            assert v == ref or abs(v - ref) <= 4 * np.spacing(abs(ref)), (k, v, ref)


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
    # Every split and level test reads mass ratios (14 max-flows at each
    # scale), so the work and the verdict do not depend on the total mass.
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 2.0, (400, 2))
    label = rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-4.0 * (pts[:, 0] - 1.0)))
    measure = TwoClassMeasure.build(np.where(label, 0.0, scale / 400),
                                    np.where(label, scale / 400, 0.0))
    g = build_ground(pts, "l1", 0.3)
    assert solve_exp_primal(g, measure).iterations <= 600
    ds, _ = _pipeline(g, measure, 1e-4)
    certs = universality_check(ds.f, ds.witness, ["exp", "logistic", "hinge"]).certificates
    assert set(certs) == {"exponential", "logistic", "hinge"}
    assert uncertified(certs, 1e-4, measure.total) == []


def test_lockstep_solves_equal_the_solo_solves(tmp_path, monkeypatch):
    # a sweep solves its epsilon grid in one lockstep primal, here the
    # bench's sweep grid on its sweep1d instances and on 20 mixed-scale
    # draws: each ground's solution is bit for bit its solo one, and one
    # route per round serves every ground, as many as the slowest needs
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    grid = [float(eps) for eps in workloads.SWEEP_EPS.split(",")]
    cases = [adio.load_instance(path)
             for path in workloads.write_instances("sweep1d", str(tmp_path))]
    cases += [(build_ground(pts, norm, eps), measure)
              for pts, norm, eps, measure in _mixed_scale_draws(3, 20)]
    calls, real = [], primalsolve.route
    monkeypatch.setattr(primalsolve, "route", lambda *a: calls.append(1) or real(*a))
    for k, (g, measure) in enumerate(cases):
        grounds = [build_ground(g.points, g.norm, eps) for eps in grid]
        solo, rounds = [], []
        for ground in grounds:
            calls.clear()
            solo.append(solve_exp_primal(ground, measure))
            rounds.append(len(calls))
        calls.clear()
        lockstep = solve_exp_primals(grounds, measure)
        assert len(calls) == max(rounds), k
        for eps, ground, one, ps in zip(grid, grounds, solo, lockstep):
            assert ps.balls.g is ground
            for name in ("f", "odds", "flow", "settled"):
                a, b = getattr(ps, name), getattr(one, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (k, eps, name)


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
