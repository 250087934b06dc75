import dataclasses
import os
import shutil

import numpy as np
import pytest

from advdual import measures
from advdual.certify import (
    TOL,
    Certificate,
    certify,
    snap_eta,
    support_conditions,
    uncertified,
    universality_check,
)
from advdual.cli import main
from advdual.dualsolve import solve_dual
from advdual.errors import InfeasibleDual
from advdual.losses import get_loss
from advdual.measures import (Coupling, SourceBalls, TwoClassMeasure, Witness, pushforward,
                              winf_feasible)
from advdual.primalsolve import construct_f, eta_hat, risk_adv, solve_exp_primal

from conftest import ROOT


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
    cert = certify(EXP, primal.f, dual.witness)
    assert cert.gap <= TOL
    assert cert.gap == pytest.approx(0.0, abs=1e-8)
    assert cert.slack_sup_r1 < 1e-8 and cert.slack_sup_r0 < 1e-8
    assert cert.slack_pointwise < 1e-8
    assert support_conditions(eta_hat(primal.f), dual.witness) == 0.0


def test_residual_identity(oracle_instances):
    for name, g, measure in oracle_instances:
        primal, dual = _solve_pair(g, measure)
        for loss in (EXP, LOG, HINGE, ZO):
            eta = snap_eta(eta_hat(primal.f))
            f = primal.f if loss is EXP else construct_f(loss, eta)
            cert = certify(loss, f, dual.witness)
            assert cert.primal_value == risk_adv(loss, f, g, measure), (name, loss.kind)
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
    cert = certify(EXP, f, dual.witness)
    assert cert.gap > 1e-3
    total = cert.slack_sup_r1 + cert.slack_sup_r0 + cert.slack_pointwise
    assert total == pytest.approx(cert.gap, abs=1e-12)
    assert max(cert.slack_sup_r1, cert.slack_sup_r0, cert.slack_pointwise) > 1e-3


def test_support_conditions_detects_bad_destination(twopoint):
    g, measure = twopoint
    # eta increasing along [0, 0.5, 1]; class-1 mass at point 1 must flow to
    # the ball minimizer (the midpoint), flowing to itself violates support
    eta = np.array([0.0, 1.0, 0.5])
    balls, c0 = SourceBalls(g, measure), Coupling.build([0], [2], [0.5], 3)
    good = Witness(balls, c0, Coupling.build([1], [2], [0.5], 3))
    assert support_conditions(eta, good) == 0.0
    bad = Witness(balls, c0, Coupling.build([1], [1], [0.5], 3))
    assert support_conditions(eta, bad) == pytest.approx(0.5)


def test_certificate_symmetry_under_class_swap(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    swapped = TwoClassMeasure.build(measure.mass1, measure.mass0)
    sp, sd = _solve_pair(g, swapped)
    assert np.allclose(sp.f, -primal.f, atol=1e-6)
    ca = certify(EXP, primal.f, dual.witness)
    cb = certify(EXP, sp.f, sd.witness)
    assert cb.primal_value == pytest.approx(ca.primal_value, abs=1e-8)
    assert cb.dual_value == pytest.approx(ca.dual_value, abs=1e-8)


def test_infeasible_dual_rejected(twopoint):
    g, measure = twopoint
    # coupling jumps the full unit distance, far beyond epsilon = 0.6
    with pytest.raises(InfeasibleDual, match="beyond epsilon"):
        Witness(SourceBalls(g, measure), Coupling.build([0], [1], [0.5], 3),
                Coupling.build([1], [0], [0.5], 3))
    # wrong source marginal
    with pytest.raises(InfeasibleDual, match="source marginal"):
        Witness(SourceBalls(g, measure), Coupling.build([0], [2], [0.25], 3),
                Coupling.build([1], [2], [0.5], 3))


def test_witness_rejects_coupling_of_another_ground_size(twopoint):
    # a coupling built for 4 points on the 3-point ground is no witness,
    # whatever its edges
    g, measure = twopoint
    with pytest.raises(InfeasibleDual, match="built for 4 points"):
        Witness(SourceBalls(g, measure), Coupling.build([0], [2], [0.5], 4),
                Coupling.build([1], [2], [0.5], 3))


def test_dual_masses_must_match_pushforward(twopoint):
    g, measure = twopoint
    c0 = Coupling.build([0], [2], [0.5], 3)
    c1 = Coupling.build([1], [2], [0.5], 3)
    # a witness takes no masses: its m0, m1 are its couplings' pushforwards,
    # bit for bit (test_io.py checks that load_result rejects stored masses
    # off them), and its certificate's residual triple sums to the gap
    good = Witness(SourceBalls(g, measure), c0, c1)
    assert good.m0.tobytes() == pushforward(c0).tobytes()
    assert good.m1.tobytes() == pushforward(c1).tobytes()
    assert good.m0.tolist() == good.m1.tolist() == [0.0, 0.0, 0.5]
    cert = certify(EXP, np.zeros(3), good)
    total = cert.slack_sup_r1 + cert.slack_sup_r0 + cert.slack_pointwise
    assert total == pytest.approx(cert.gap, abs=1e-12)


def test_derived_winf_flags_match_max_flow(oracle_instances):
    for name, g, measure in oracle_instances:
        _, dual = _solve_pair(g, measure)
        # every witness the solver validates is W-infinity feasible by
        # max-flow, the reference
        w = dual.witness
        assert winf_feasible(g, measure.mass0, w.m0, g.epsilon), name
        assert winf_feasible(g, measure.mass1, w.m1, g.epsilon), name


def test_snap_eta():
    # only round-off snaps to one half: an exact level share 5e-7 from it
    # keeps its side
    out = snap_eta([0.5 + 1e-13, 0.5 - 1e-13, 0.5 + 5e-7, 0.5 - 5e-7, 0.3, 1.0 + 1e-15])
    assert out[0] == 0.5 and out[1] == 0.5
    assert out[2] == 0.5 + 5e-7 and out[3] == 0.5 - 5e-7
    assert out[4] == 0.3
    assert out[5] == 1.0


def test_universality_all_losses(oracle_instances):
    losses = ("exp", "logistic", "hinge", "zero-one")
    for name, g, measure in oracle_instances:
        primal, dual = _solve_pair(g, measure)
        certs = universality_check(primal.f, dual.witness, losses).certificates
        # the zero-one entry is judged like the others
        assert uncertified(certs, None, measure.total) == [], name
        zo = certs["zero_one_dual"]
        assert min(zo.slack_sup_r1, zo.slack_sup_r0, zo.slack_pointwise) >= -1e-12


def test_universality_twopoint_values(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    result = universality_check(primal.f, dual.witness, ("exp", "logistic", "hinge", "zero-one"))
    # the Result carries the field and witness it was read off, and their
    # support check
    assert result.f is primal.f and result.witness is dual.witness
    assert result.support_violation == support_conditions(eta_hat(primal.f), dual.witness)
    certs = result.certificates
    assert certs["exponential"].primal_value == pytest.approx(1.0, abs=1e-6)
    assert certs["logistic"].primal_value == pytest.approx(np.log(2.0), abs=1e-6)
    assert certs["hinge"].primal_value == pytest.approx(1.0, abs=1e-6)
    assert certs["zero_one_dual"].primal_value == pytest.approx(0.5, abs=1e-9)
    assert certs["zero_one_dual"].dual_value == pytest.approx(0.5, abs=1e-6)


def test_as_dict_round_keys(twopoint):
    g, measure = twopoint
    primal, dual = _solve_pair(g, measure)
    cert = certify(EXP, primal.f, dual.witness)
    d = dataclasses.asdict(cert)
    assert d["loss"] == "exponential"
    assert list(d) == ["loss", "primal_value", "dual_value", "gap",
                       "slack_sup_r1", "slack_sup_r0", "slack_pointwise"]


def test_witness_validated_once_per_solve_and_verify(tmp_path, monkeypatch):
    # the couplings are checked when the witness is made: once by the solve,
    # whatever --loss asks for, and once by verify, never per loss
    inst = str(tmp_path / "twopoint.json")
    shutil.copy(os.path.join(ROOT, "instances", "twopoint.json"), inst)
    out = str(tmp_path / "res.json")
    calls = []
    real = measures.Witness.__init__
    monkeypatch.setattr(measures.Witness, "__init__",
                        lambda *a: calls.append(1) or real(*a))
    assert main(["solve", inst, "--loss", "all", "--out", out]) == 0
    assert len(calls) == 1
    assert main(["verify", inst, out]) == 0
    assert len(calls) == 2


def test_layouts_built_per_command(tmp_path, monkeypatch):
    # the witness carries the SourceBalls layout it was validated on: a solve
    # builds one, for the primal, which hands it to the dual, whose witness
    # every certificate reads; verify one, for the witness it loads; sweep
    # one per epsilon
    inst = str(tmp_path / "twopoint.json")
    shutil.copy(os.path.join(ROOT, "instances", "twopoint.json"), inst)
    out = str(tmp_path / "res.json")
    calls = []
    real = measures.SourceBalls.__init__
    monkeypatch.setattr(measures.SourceBalls, "__init__",
                        lambda *a: calls.append(1) or real(*a))
    counts = []
    for argv in (["solve", inst, "--loss", "all", "--out", out], ["verify", inst, out],
                 ["sweep", inst, "--eps", "0.2,0.4", "--out", str(tmp_path / "sw")]):
        calls.clear()
        assert main(argv) == 0, argv
        counts.append(len(calls))
    assert counts == [1, 1, 2]


def test_uncertified_verdict():
    def cert(kind, gap):
        return Certificate(loss=kind, primal_value=gap, dual_value=0.0, gap=gap,
                           slack_sup_r1=gap, slack_sup_r0=0.0, slack_pointwise=0.0)

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
