import importlib

import numpy as np
import pytest

from advdual.certify import (
    TOL,
    Certificate,
    certify,
    slackness,
    snap_eta,
    support_conditions,
    uncertified,
    universality_check,
)
from advdual.dualsolve import DualSolution, solve_dual
from advdual.errors import InfeasibleDual
from advdual.ground import build_ground
from advdual.losses import get_loss
from advdual.measures import Coupling, TwoClassMeasure, winf_feasible
from advdual.primalsolve import construct_f, eta_hat, risk_adv, solve_exp_primal


EXP = get_loss("exp")
LOG = get_loss("logistic")
HINGE = get_loss("hinge")
ZO = get_loss("zero-one")


def _solve_pair(g, measure):
    primal = solve_exp_primal(g, measure)
    dual = solve_dual(g, measure, primal.f)
    return primal, dual


def test_twopoint_certificate_tight(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    cert = certify(EXP, primal.f, dual, g, measure)
    assert cert.gap <= TOL
    assert cert.gap == pytest.approx(0.0, abs=1e-8)
    assert cert.slack_sup_r1 < 1e-8 and cert.slack_sup_r0 < 1e-8
    assert cert.slack_pointwise < 1e-8
    assert cert.support_violation == 0.0
    assert cert.winf_ok == (True, True)


def test_residual_identity(oracle_instances):
    for name, g, measure in oracle_instances:
        primal, dual = _solve_pair(g, measure)
        for loss in (EXP, LOG, HINGE, ZO):
            eta = snap_eta(eta_hat(primal.f))
            f = primal.f if loss is EXP else construct_f(loss, eta)
            cert = certify(loss, f, dual, g, measure, eta=eta)
            total = cert.slack_sup_r1 + cert.slack_sup_r0 + cert.slack_pointwise
            assert total == pytest.approx(cert.gap, abs=1e-12), (name, loss.kind)
            assert cert.slack_sup_r1 >= -1e-12
            assert cert.slack_sup_r0 >= -1e-12
            assert cert.slack_pointwise >= -1e-12


def test_perturbed_field_raises_residual(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    f = primal.f.copy()
    f[2] += 0.1  # shift the score at the shared support midpoint
    cert = certify(EXP, f, dual, g, measure)
    assert cert.gap > 1e-3
    total = cert.slack_sup_r1 + cert.slack_sup_r0 + cert.slack_pointwise
    assert total == pytest.approx(cert.gap, abs=1e-12)
    assert max(cert.slack_sup_r1, cert.slack_sup_r0, cert.slack_pointwise) > 1e-3


def test_support_conditions_detects_bad_destination(twopoint):
    g, measure = twopoint
    # eta increasing along [0, 0.5, 1]; class-1 mass at point 1 must flow to
    # the ball minimizer (the midpoint), flowing to itself violates support
    eta = np.array([0.0, 1.0, 0.5])
    good = DualSolution(
        coupling0=Coupling.build([0], [2], [0.5], 3),
        coupling1=Coupling.build([1], [2], [0.5], 3),
        m0=np.array([0.0, 0.0, 0.5]), m1=np.array([0.0, 0.0, 0.5]),
        objective=1.0, iterations=0)
    assert support_conditions(eta, good, g) == 0.0
    bad = DualSolution(
        coupling0=good.coupling0,
        coupling1=Coupling.build([1], [1], [0.5], 3),
        m0=good.m0, m1=np.array([0.0, 0.5, 0.0]),
        objective=0.0, iterations=0)
    assert support_conditions(eta, bad, g) == pytest.approx(0.5)


def test_certificate_symmetry_under_class_swap(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    swapped = TwoClassMeasure.build(measure.mass1, measure.mass0)
    sp, sd = _solve_pair(g, swapped)
    assert np.allclose(sp.f, -primal.f, atol=1e-6)
    ca = certify(EXP, primal.f, dual, g, measure)
    cb = certify(EXP, sp.f, sd, g, swapped)
    assert cb.primal_value == pytest.approx(ca.primal_value, abs=1e-8)
    assert cb.dual_value == pytest.approx(ca.dual_value, abs=1e-8)


def test_infeasible_dual_rejected(twopoint):
    g, measure = twopoint
    # coupling jumps the full unit distance, far beyond epsilon = 0.6
    far = DualSolution(
        coupling0=Coupling.build([0], [1], [0.5], 3),
        coupling1=Coupling.build([1], [0], [0.5], 3),
        m0=np.array([0.0, 0.5, 0.0]), m1=np.array([0.5, 0.0, 0.0]),
        objective=1.0, iterations=0)
    with pytest.raises(InfeasibleDual):
        certify(EXP, np.zeros(3), far, g, measure)
    # wrong source marginal
    short = DualSolution(
        coupling0=Coupling.build([0], [2], [0.25], 3),
        coupling1=Coupling.build([1], [2], [0.5], 3),
        m0=np.array([0.0, 0.0, 0.25]), m1=np.array([0.0, 0.0, 0.5]),
        objective=1.0, iterations=0)
    with pytest.raises(InfeasibleDual):
        certify(EXP, np.zeros(3), short, g, measure)


def test_dual_masses_must_match_pushforward(twopoint):
    g, measure = twopoint
    c0 = Coupling.build([0], [2], [0.5], 3)
    c1 = Coupling.build([1], [2], [0.5], 3)
    # couplings on epsilon-edges with the right sources, but one stored mass
    # vector is not where they move the class measure
    for m0, m1 in (([0.5, 0.0, 0.0], [0.0, 0.0, 0.5]),
                   ([0.0, 0.0, 0.5], [0.0, 0.25, 0.25])):
        bad = DualSolution(coupling0=c0, coupling1=c1, m0=np.array(m0),
                           m1=np.array(m1), objective=1.0, iterations=0)
        with pytest.raises(InfeasibleDual):
            certify(EXP, np.zeros(3), bad, g, measure)
        with pytest.raises(InfeasibleDual):
            slackness(EXP, np.zeros(3), bad, g, measure)
        for losses in (("exp", "zero-one"), ("zero-one",)):
            with pytest.raises(InfeasibleDual):
                universality_check(np.full(3, 0.5), bad, losses, g, measure)


def test_derived_winf_flags_match_max_flow(oracle_instances):
    losses = ("exp", "logistic", "hinge", "zero-one")
    for name, g, measure in oracle_instances:
        primal, dual = _solve_pair(g, measure)
        # max-flow stays the reference for the flags read off the witness
        ref = (winf_feasible(g, measure.mass0, dual.m0, g.epsilon),
               winf_feasible(g, measure.mass1, dual.m1, g.epsilon))
        certs = universality_check(eta_hat(primal.f), dual, losses, g, measure)
        for kind, cert in certs.items():
            assert cert.winf_ok == ref, (name, kind)


def test_snap_eta():
    out = snap_eta([0.5 + 5e-7, 0.5 - 5e-7, 0.3, 1.0 + 1e-15])
    assert out[0] == 0.5 and out[1] == 0.5
    assert out[2] == 0.3
    assert out[3] == 1.0


def test_universality_all_losses(oracle_instances):
    losses = ("exp", "logistic", "hinge", "zero-one")
    for name, g, measure in oracle_instances:
        primal, dual = _solve_pair(g, measure)
        certs = universality_check(eta_hat(primal.f), dual, losses, g, measure)
        # the zero-one entry is judged like the others
        assert uncertified(certs, None, measure.total) == [], name
        zo = certs["zero_one_dual"]
        assert min(zo.slack_sup_r1, zo.slack_sup_r0, zo.slack_pointwise) >= -1e-12
        assert zo.support_violation == certs["exponential"].support_violation


def test_universality_twopoint_values(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    certs = universality_check(eta_hat(primal.f), dual,
                               ("exp", "logistic", "hinge", "zero-one"),
                               g, measure)
    assert certs["exponential"].primal_value == pytest.approx(1.0, abs=1e-6)
    assert certs["logistic"].primal_value == pytest.approx(np.log(2.0), abs=1e-6)
    assert certs["hinge"].primal_value == pytest.approx(1.0, abs=1e-6)
    assert certs["zero_one_dual"].primal_value == pytest.approx(0.5, abs=1e-9)
    assert certs["zero_one_dual"].dual_value == pytest.approx(0.5, abs=1e-6)


def test_as_dict_round_keys(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    d = certify(EXP, primal.f, dual, g, measure).as_dict()
    assert d["loss"] == "exponential"
    assert set(d) == {"loss", "primal_value", "dual_value", "gap",
                      "slack_sup_r1", "slack_sup_r0", "slack_pointwise",
                      "support_violation", "winf_ok"}


def test_universality_validates_witness_once_per_loss(twopoint, monkeypatch):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    # the package exports the function ``certify`` under the module's name
    certify_mod = importlib.import_module("advdual.certify")
    calls = []
    real = certify_mod._check_dual_feasible
    monkeypatch.setattr(certify_mod, "_check_dual_feasible",
                        lambda *a: calls.append(1) or real(*a))
    universality_check(eta_hat(primal.f), dual,
                       ("exp", "logistic", "hinge", "zero-one"), g, measure)
    assert len(calls) == 4


def test_slackness_matches_certificate(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    f = primal.f + np.array([0.0, 0.0, 0.1])
    cert = certify(LOG, f, dual, g, measure)
    assert slackness(LOG, f, dual, g, measure) == (
        cert.slack_sup_r1, cert.slack_sup_r0, cert.slack_pointwise)
    assert cert.primal_value == risk_adv(LOG, f, g, measure)


def test_uncertified_verdict():
    def cert(kind, gap):
        return Certificate(loss=kind, primal_value=gap, dual_value=0.0, gap=gap,
                           slack_sup_r1=gap, slack_sup_r0=0.0, slack_pointwise=0.0,
                           support_violation=0.0, winf_ok=(True, True))

    certs = {"exponential": cert("exponential", 5e-5),
             "logistic": cert("logistic", 5e-4),
             "hinge": cert("hinge", float("nan")),
             "zero_one_dual": cert("zero_one_dual", 1e-3)}
    # one default tolerance, 1e-4, for every loss; a NaN gap is never
    # certified
    assert uncertified(certs, None, 1.0) == ["logistic", "hinge", "zero_one_dual"]
    assert uncertified(certs, 1e-3, 1.0) == ["hinge"]
    assert uncertified(certs, 1e-5, 1.0) == list(certs)
    # the tolerance is per unit of total mass
    assert uncertified(certs, None, 10.0) == ["hinge"]
    assert uncertified(certs, 1e-3, 0.1) == ["logistic", "hinge", "zero_one_dual"]
