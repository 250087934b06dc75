"""Property-based invariants over randomly generated inputs."""

import os
import re
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from advdual import dualsolve
from advdual.certify import uncertified, universality_check
from advdual.cli import _pipeline, main
from advdual.dualsolve import brute_dual, solve_dual
from advdual.ground import build_ground, inf_ball, sliding_max_1d, sup_ball
from advdual.io import load_instance, save_instance
from advdual.losses import get_loss
from advdual.measures import (
    SourceBalls,
    greedy_attack,
    pushforward,
    winf_distance,
)
from advdual.primalsolve import brute_primal, solve_exp_primal

from conftest import naive_window_max


finite_floats = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def ground_and_field(draw):
    n = draw(st.integers(2, 15))
    pts = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    eps = draw(st.floats(0.0, 1.5))
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    f = draw(st.lists(finite_floats, min_size=n, max_size=n))
    g = build_ground(np.asarray(pts)[:, None], norm, eps)
    return g, np.asarray(f)


@settings(max_examples=60, deadline=None)
@given(ground_and_field())
def test_sup_inf_ball_envelope(gf):
    g, f = gf
    hi, lo = sup_ball(g, f), inf_ball(g, f)
    assert np.all(hi >= f) and np.all(lo <= f)
    # duality of the two operators under negation
    assert np.array_equal(lo, -sup_ball(g, -f))


@settings(max_examples=60, deadline=None)
@given(ground_and_field())
def test_sup_ball_monotone_and_idempotent_on_masks(gf):
    g, f = gf
    hi = sup_ball(g, f)
    # monotonicity: shifting the field up shifts the envelope up
    assert np.all(sup_ball(g, f + 1.0) >= hi + 1.0 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(ground_and_field())
def test_greedy_attack_is_worst_case(gf):
    g, f = gf
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0, 1.0, g.n)
    c = greedy_attack(g, f, p)
    q = pushforward(c)
    assert q.sum() == np.float64(p.sum()) or abs(q.sum() - p.sum()) < 1e-12
    assert winf_distance(g, p, q) <= g.epsilon + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=400), st.integers(0, 12))
def test_sliding_max_matches_naive(values, k):
    x = np.asarray(values)
    assert np.array_equal(sliding_max_1d(x, k), naive_window_max(x, k))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=50))
def test_cstar_dominated_by_conditional_risk(etas):
    eta = np.asarray(etas)
    rng = np.random.default_rng(1)
    for name in ("exp", "logistic", "hinge"):
        loss = get_loss(name)
        alpha = rng.normal(scale=3.0, size=eta.size)
        cond = eta * loss.phi(alpha) + (1.0 - eta) * loss.phi(-alpha)
        assert np.all(cond >= loss.cstar(eta) - 1e-12)


@st.composite
def tiny_instance(draw, max_n=5, max_refinement=2):
    """Up to ``max_n`` points on a coarse 2-D grid, so duplicate points and
    pairs exactly epsilon apart are common; epsilon may be 0; refinement up
    to ``max_refinement``, whose level-1 midpoints of pairs 2 epsilon apart
    lie exactly epsilon from both ends; masses come from a few values
    including 0, scaled by 0.01, 1 or 100, and either class may be empty.
    Returns the instance file's fields, refinement level last."""
    n = draw(st.integers(1, max_n))
    coord = st.sampled_from([0.0, 0.5, 1.0])
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    eps = draw(st.sampled_from([0.0, 0.5, 1.0]))
    mass = st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n)
    m0, m1 = np.array(draw(mass)), np.array(draw(mass))
    if draw(st.booleans()):
        (m0 if draw(st.booleans()) else m1)[:] = 0.0
    if m0.sum() + m1.sum() == 0.0:
        m1[0] = 1.0
    scale = draw(st.sampled_from([1.0, 0.01, 100.0]))
    return pts, norm, eps, scale * m0, scale * m1, draw(st.integers(0, max_refinement))


def _build(inst):
    """The ground set and measure of the drawn instance file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        save_instance(path, *inst)
        return load_instance(path)


@settings(max_examples=25, deadline=None)
@given(tiny_instance())
# total mass 2 on one point repeated: a loop stopping at a gap relative to
# the risk (1.3e-4 here) passed the tolerance that solve then judges as
# absolute
@example((np.zeros((4, 2)), "l1", 0.0, np.array([0.0, 0.25, 0.25, 1.0]),
          np.array([0.0, 0.0, 0.25, 0.25]), 0))
def test_residuals_sum_to_gap_and_round_trip_verifies(inst):
    g, measure = _build(inst)
    ds, _ = _pipeline(g, measure, 1e-4)
    certs = universality_check(ds.f, ds.witness, ["exp", "logistic", "hinge", "zero-one"],
                               g, measure).certificates
    for kind, c in certs.items():
        total = c.slack_sup_r1 + c.slack_sup_r0 + c.slack_pointwise
        assert abs(total - c.gap) <= 1e-12, (kind, total, c.gap)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "inst.json"), os.path.join(tmp, "res.json")
        save_instance(path, *inst)
        assert main(["solve", path, "--loss", "all", "--out", out]) == 0
        assert main(["verify", path, out]) == 0


@settings(max_examples=10, deadline=None)
@given(tiny_instance())
def test_two_solves_write_identical_bytes(inst):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        save_instance(path, *inst)
        texts = []
        for k in range(2):
            out = os.path.join(tmp, f"res{k}.json")
            assert main(["solve", path, "--loss", "all", "--out", out]) == 0
            with open(out, encoding="utf-8") as fh:
                texts.append(re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', fh.read()))
    assert texts[0] == texts[1]


@settings(max_examples=10, deadline=None)
@given(tiny_instance(max_n=3, max_refinement=0))
def test_weak_duality_against_brute_oracles(inst):
    # every grid point of brute_dual is a feasible dual and brute_primal
    # returns the risk of one score field (one sign classifier for the
    # zero-one loss), so neither may cross the solver's values
    g, measure = _build(inst)
    ds, _ = _pipeline(g, measure, 1e-4)
    certs = universality_check(ds.f, ds.witness, ["exp", "logistic", "hinge", "zero-one"],
                               g, measure).certificates
    slack = 1e-9 * max(1.0, measure.total)
    for kind, c in certs.items():
        loss = get_loss(kind)
        primal, dual = brute_primal(loss, g, measure), brute_dual(loss, g, measure, 4)
        assert dual <= c.primal_value + slack, (kind, dual, c.primal_value)
        assert c.dual_value <= primal + slack, (kind, c.dual_value, primal)


@st.composite
def seeded_instance(draw):
    """A tiny instance and a seed field drawn from a few values with +-inf,
    so that ties at a ball extremum and infinite extrema are common."""
    inst = draw(tiny_instance())
    n = _build(inst)[0].n
    value = st.sampled_from([-np.inf, -1.0, 0.0, 1.0, np.inf])
    return inst, np.array(draw(st.lists(value, min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None)
@given(seeded_instance())
# epsilon 0 on duplicate points, each source's ball holding a tie or an
# infinite extremum
@example(((np.zeros((4, 2)), "l2", 0.0, np.array([0.25, 0.0, 1.0, 0.25]),
           np.array([0.0, 1.0, 0.25, 0.25]), 0),
          np.array([np.inf, -np.inf, 1.0, 1.0])))
@example(((np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.5, 0.0]]), "linf", 0.5,
           np.array([1.0, 0.0, 0.25, 0.0]), np.array([0.0, 0.25, 0.0, 1.0]), 0),
          np.array([0.0, 0.0, -np.inf, np.inf])))
def test_degenerate_inputs_keep_an_edge_per_source_and_price_out(case):
    # every source keeps an edge in the first model and, at the end of every
    # program, no left-out edge prices out, for the drawn seed and for the
    # primal's; the primal-seeded pair certifies at 1e-6
    inst, drawn = case
    g, measure = _build(inst)
    balls = SourceBalls(g, measure)
    ends = []
    real = dualsolve._CutLP.solve

    def solve(lp):
        out = real(lp)
        y = np.asarray(lp.highs.getSolution().row_dual)
        ends.append(lp.reduced_costs(y)[~lp.in_model].min(initial=np.inf) >= -lp.dual_tol)
        return out

    for f in (drawn, solve_exp_primal(g, measure).f):
        first = dualsolve._CutLP(balls, f)
        assert np.all(np.bincount(first.src_row[first.cols], minlength=balls.src.size) > 0)
        ends.clear()
        with mock.patch.object(dualsolve._CutLP, "solve", solve):
            sol = solve_dual(g, measure, f, 1e-6 * measure.total)
        assert ends and all(ends)
    certs = universality_check(sol.f, sol.witness, ["exp"], g, measure).certificates
    assert uncertified(certs, 1e-6, measure.total) == []
