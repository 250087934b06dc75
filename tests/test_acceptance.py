"""End-to-end acceptance gate.

Each test prints one machine-greppable pass/fail line.  The random suite
(50 seeded instances, n up to 40 points in one or two dimensions) is solved
once per session and shared by the duality, slackness, and support checks.
"""

import time

import numpy as np
import pytest

from advdual.certify import certify, support_conditions, universality_check
from advdual.cli import _pipeline
from advdual.dualsolve import brute_dual, solve_dual
from advdual.ground import build_ground, dilate, sliding_max_1d, sup_ball
from advdual.losses import conditional_risk, get_loss, transform_h
from advdual.measures import (TwoClassMeasure, greedy_attack, transported_integral,
                              winf_distance)
from advdual.primalsolve import (
    brute_primal,
    eta_hat,
    hpair_feasible,
    risk_adv,
    solve_exp_primal,
    theta,
)

from conftest import alpha_opt_numeric, cstar_numeric, exact_dual_lp, hall_winf


EXP = get_loss("exp")
NORMS = ("l1", "l2", "linf")


def _report(idx: int, desc: str, ok: bool) -> None:
    print(f"[criterion {idx:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {idx} failed: {desc}"


def _random_instance(rng):
    n = int(rng.integers(5, 41))
    d = int(rng.integers(1, 3))
    pts = rng.uniform(0.0, 2.0, (n, d))
    norm = NORMS[int(rng.integers(3))]
    eps = float(rng.uniform(0.05, 1.0))
    m0 = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
    m1 = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
    if m0.sum() == 0.0:
        m0[0] = 0.5
    if m1.sum() == 0.0:
        m1[-1] = 0.5
    tot = m0.sum() + m1.sum()
    g = build_ground(pts, norm, eps)
    return g, TwoClassMeasure.build(m0 / tot, m1 / tot)


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(12345)
    out = []
    t0 = time.perf_counter()
    for _ in range(50):
        g, measure = _random_instance(rng)
        ds, _ = _pipeline(g, measure, 1e-4)
        out.append((g, measure, ds))
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_01_strong_duality(random_suite, oracle_instances):
    suite, elapsed = random_suite
    pairs = [(risk_adv(EXP, ds.f, g, measure), ds.objective) for g, measure, ds in suite]
    worst = max((risk - dual) / max(risk, 1e-30) for risk, dual in pairs)

    t0 = time.perf_counter()
    diffs = []
    for name, g, measure in oracle_instances:
        ds, _ = _pipeline(g, measure, 1e-4)
        diffs.append(abs(risk_adv(EXP, ds.f, g, measure) - brute_primal(EXP, g, measure)))
        diffs.append(abs(ds.objective - brute_dual(EXP, g, measure, 60)))
    runtime = elapsed + (time.perf_counter() - t0)
    ok = worst <= 1e-3 and all(d <= 2e-3 for d in diffs) and runtime <= 60.0
    _report(1, f"strong duality worst gap {worst:.2e} <= 1e-3 on 50 instances, "
               f"worst brute disagreement {max(diffs):.2e} <= 2e-3, "
               f"runtime {runtime:.1f}s <= 60s", ok)


def test_criterion_02_weak_duality(random_suite, oracle_instances):
    ok = True
    suite, _ = random_suite
    for g, measure, ds in suite:
        ok = ok and risk_adv(EXP, ds.f, g, measure) >= ds.objective - 1e-9
        ok = ok and theta(EXP, ds.hpair, g, measure) >= ds.objective - 1e-9
    rng = np.random.default_rng(77)
    for name, g, measure in oracle_instances:
        ds = solve_dual(g, measure, solve_exp_primal(g, measure).f)
        for _ in range(40):
            f = rng.normal(scale=3.0, size=g.n)
            ok = ok and risk_adv(EXP, f, g, measure) >= ds.objective - 1e-9
    _report(2, "weak duality holds across all iterates and random fields", ok)


def _slackness(f, ds, g, measure):
    """The exponential certificate's residual triple (r1, r0, r_pt)."""
    cert = certify(EXP, f, ds.witness)
    return cert.slack_sup_r1, cert.slack_sup_r0, cert.slack_pointwise


def test_criterion_03_complementary_slackness(random_suite, oracle_instances):
    ok = True
    suite, _ = random_suite
    for g, measure, ds in suite:
        ok = ok and max(_slackness(ds.f, ds, g, measure)) <= 1e-3 * measure.total
    # a 0.1 score shift at a kink support point must blow up a residual;
    # this is a first-order effect only when transport is active (eps > 0)
    for name, g, measure in oracle_instances:
        if g.epsilon == 0.0:
            continue
        ps = solve_exp_primal(g, measure)
        ds = solve_dual(g, measure, ps.f)
        s = ds.witness.m0 + ds.witness.m1
        best = 0.0
        for j in np.flatnonzero((s > 1e-12) & np.isfinite(ps.f)):
            f = ps.f.copy()
            f[j] += 0.1
            best = max(best, max(_slackness(f, ds, g, measure)))
        ok = ok and best > 1e-2 * measure.total
    _report(3, "slackness residuals <= 1e-3 at optima; 0.1 perturbation "
               "raises a residual above 1e-2", ok)


def test_criterion_04_loss_universality(oracle_instances):
    ok = True
    for name, g, measure in oracle_instances:
        ps = solve_exp_primal(g, measure)
        ds = solve_dual(g, measure, ps.f)
        certs = universality_check(ps.f, ds.witness, ("logistic", "hinge")).certificates
        for cert in certs.values():
            ok = ok and cert.gap <= 1e-3
    _report(4, "one exponential dual pair certifies logistic and hinge "
               "within 1e-3", ok)


def test_criterion_05_support_conditions(random_suite, oracle_instances):
    ok = True
    suite, _ = random_suite
    for g, measure, ds in suite:
        bad = support_conditions(eta_hat(ds.f), ds.witness)
        ok = ok and bad <= 1e-3 * measure.total
    for name, g, measure in oracle_instances:
        ps = solve_exp_primal(g, measure)
        ds = solve_dual(g, measure, ps.f)
        bad = support_conditions(eta_hat(ps.f), ds.witness)
        ok = ok and bad <= 1e-3 * measure.total
    _report(5, "coupling support violation <= 1e-3 of total mass", ok)


def test_criterion_06_winf_exact():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = build_ground(rng.uniform(0, 2, (n, int(rng.integers(1, 3)))),
                         NORMS[int(rng.integers(3))], 0.0)
        p = rng.uniform(0, 1, n)
        q = np.zeros(n)
        q[rng.permutation(n)] = p
        ok = ok and winf_distance(g, p, q) == hall_winf(g, p, q)
    _report(6, "flow W-infinity equals exhaustive matching search exactly "
               "on 200 pairs", ok)


def test_criterion_07_exchange_identity():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 40))
        g = build_ground(rng.uniform(0, 2, (n, int(rng.integers(1, 3)))),
                         NORMS[int(rng.integers(3))], float(rng.uniform(0, 1)))
        field = rng.normal(size=n)
        p = rng.uniform(0, 1, n)
        c = greedy_attack(g, field, p)
        lhs = transported_integral(g, field, c)
        rhs = float(np.dot(p, sup_ball(g, field)))
        ok = ok and lhs == rhs
    _report(7, "ball supremum integral equals greedy transported integral "
               "exactly on 200 fields", ok)


def test_criterion_08_level_set_dilation():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 40))
        g = build_ground(rng.uniform(0, 2, (n, int(rng.integers(1, 3)))),
                         NORMS[int(rng.integers(3))], float(rng.uniform(0, 1)))
        f = rng.normal(size=n)
        t = float(rng.normal())
        lhs = dilate(g, np.flatnonzero(f > t))
        rhs = np.flatnonzero(sup_ball(g, f) > t)
        ok = ok and np.array_equal(lhs, rhs)
    _report(8, "epsilon-dilation of upper level sets matches level sets of "
               "the ball supremum on 200 pairs", ok)


def test_criterion_09_alpha_monotone_consistent():
    etas = np.linspace(0.0, 1.0, 1001)
    ok = True
    for name in ("exp", "logistic", "hinge"):
        loss = get_loss(name)
        alpha = loss.alpha_opt(etas)
        ok = ok and bool(np.all(np.diff(alpha) >= -1e-6))
        cond = conditional_risk(loss, etas, alpha)
        ok = ok and float(np.nanmax(np.abs(cond - loss.cstar(etas)))) <= 1e-6
        inner = etas[(etas > 1e-3) & (etas < 1 - 1e-3)]
        ok = ok and float(np.max(np.abs(
            loss.alpha_opt(inner) - alpha_opt_numeric(loss, inner)))) <= 1e-4
    _report(9, "pointwise minimizers monotone and conditional-risk "
               "consistent on a 1001 grid", ok)


def test_criterion_10_exponential_closed_forms():
    etas = np.linspace(0.0, 1.0, 1001)
    closed = 2.0 * np.sqrt(etas * (1.0 - etas))
    ok = bool(np.max(np.abs(EXP.cstar(etas) - closed)) <= 1e-12)
    ok = ok and bool(np.max(np.abs(cstar_numeric(EXP, etas) - closed)) <= 1e-8)
    h1 = np.linspace(1e-3, 20.0, 1001)
    h0 = transform_h(EXP, h1)
    ok = ok and bool(np.max(np.abs(h0 * h1 - 1.0)) <= 1e-8)
    _report(10, "exponential conditional minimum and transform identity "
                "match numeric optimization within 1e-8", ok)


def test_criterion_11_sliding_max_performance():
    rng = np.random.default_rng(11)
    n, k = 1_000_000, 32
    x = rng.normal(size=n)
    out, ops = sliding_max_1d(x, k, count_ops=True)
    pad = np.concatenate([np.full(k, -np.inf), x, np.full(k, -np.inf)])
    naive = np.lib.stride_tricks.sliding_window_view(pad, 2 * k + 1).max(axis=1)
    ok = bool(np.array_equal(out, naive)) and ops <= 3 * n
    _report(11, f"sliding window maximum exact on n=1e6 with {ops} <= 3n "
                "max operations", ok)


def test_criterion_12_epsilon_monotonicity(oracle_instances):
    ok = True
    losses = ("exp", "logistic", "hinge", "zero-one")
    for name, g, measure in oracle_instances:
        cols = {get_loss(x).kind: [] for x in losses}
        for eps in (0.0, 0.15, 0.3, 0.45, 0.6):
            ge = build_ground(g.points, g.norm, eps)
            ds, _ = _pipeline(ge, measure, 1e-4)
            certs = universality_check(ds.f, ds.witness, losses).certificates
            for kind, cert in certs.items():
                cols[kind].append((cert.primal_value, cert.dual_value))
        for kind, vals in cols.items():
            for col in (0, 1):
                seq = [v[col] for v in vals]
                ok = ok and all(b >= a - 1e-6 for a, b in zip(seq, seq[1:]))
    _report(12, "sweep primal and dual values non-decreasing in epsilon "
                "within 1e-6", ok)


def _scatter_l2(n=400, eps=0.3, seed=1):
    """n uniform points in [0, 2]^2, each given mass 1/n in class 1 with
    probability sigmoid(4 (x - 1)) and in class 0 otherwise, under l2."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 2.0, (n, 2))
    label = rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-4.0 * (pts[:, 0] - 1.0)))
    m1 = np.where(label, 1.0 / n, 0.0)
    return build_ground(pts, "l2", eps), TwoClassMeasure.build(1.0 / n - m1, m1)


def _assert_certified(g, measure, ds, tol, name):
    """The returned pair's exponential gap is within tolerance, and the
    multiplier pair bounds the field's risk."""
    risk = risk_adv(EXP, ds.f, g, measure)
    assert risk - ds.objective <= tol, name
    assert hpair_feasible(EXP, ds.hpair.h0, ds.hpair.h1), name
    assert theta(EXP, ds.hpair, g, measure) >= risk - 1e-12 * max(1.0, risk), name


def test_pipeline_convergence_is_certified(random_suite, oracle_instances):
    suite, _ = random_suite
    for k, (g, measure, ds) in enumerate(suite):
        _assert_certified(g, measure, ds, 1e-4, f"suite {k}")
    for name, g, measure in oracle_instances:
        ds, _ = _pipeline(g, measure, 1e-4)
        _assert_certified(g, measure, ds, 1e-4, name)
    g, measure = _scatter_l2()
    ds, _ = _pipeline(g, measure, 1e-4)
    _assert_certified(g, measure, ds, 1e-4, "scatter l2")


def test_suite_certified_at_tol_1e5():
    # criterion 01's suite at ten times its tolerance: the later cut rounds
    # take up to 15 programs here
    rng = np.random.default_rng(12345)
    for k in range(50):
        g, measure = _random_instance(rng)
        ds, _ = _pipeline(g, measure, 1e-5)
        _assert_certified(g, measure, ds, 1e-5, f"suite {k}")


def test_scatter_l2_certified_at_tol_1e6():
    g, measure = _scatter_l2()
    ds, _ = _pipeline(g, measure, 1e-6)
    _assert_certified(g, measure, ds, 1e-6, "scatter l2")


@pytest.mark.parametrize("seed, draw", [(3, 106), (2, 105), (5, 112), (1, 14), (5, 44)])
def test_fresh_draw_exponential_certificate(seed, draw):
    # draws of the suite family on which an earlier dual stopped short (the
    # 106th from seed 3 reported a gap of 0.095 as certified), or on which
    # its dual simplex ended with HiGHS status 15 (the 14th from seed 1 and
    # the 44th from seed 5)
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        g, measure = _random_instance(rng)
    ds, _ = _pipeline(g, measure, 1e-4)
    cert = universality_check(ds.f, ds.witness, ["exp"]).certificates["exponential"]
    assert cert.gap <= 1e-4
    _assert_certified(g, measure, ds, 1e-4, f"seed {seed} draw {draw}")


def test_universality_exact_at_full_size(random_suite):
    # on criterion 01's suite and the 400-point scatter, the exponential
    # couplings reach the exact hinge and zero-one duals on every edge, and
    # the thresholded classifier's adversarial 0-1 risk meets the zero-one one
    suite, _ = random_suite
    cases = [(f"suite {k}", *case) for k, case in enumerate(suite)]
    g, measure = _scatter_l2()
    cases.append(("scatter l2", g, measure, _pipeline(g, measure, 1e-4)[0]))
    for name, g, measure, ds in cases:
        certs = universality_check(ds.f, ds.witness, ["hinge", "zero-one"]).certificates
        slack = 1e-9 * measure.total
        exact = {kind: exact_dual_lp(get_loss(kind), g, measure) for kind in certs}
        for kind, c in certs.items():
            assert abs(c.dual_value - exact[kind]) <= slack, (name, kind, c.dual_value)
        zo = certs["zero_one_dual"]
        assert zo.primal_value - exact["zero_one_dual"] <= slack, (name, zo.primal_value)


def _assert_all_losses_exact(g, measure, ds, name):
    """Every loss's certificate of the pair, and its support check, at
    float64 round-off: 1e-12 per unit mass."""
    result = universality_check(ds.f, ds.witness, ["exp", "logistic", "hinge", "zero-one"])
    for kind, cert in result.certificates.items():
        assert cert.gap <= 1e-12 * measure.total, (name, kind, cert.gap)
    assert result.support_violation <= 1e-12 * measure.total, name


def test_scatter_l2_800_certified_in_its_first_program():
    # twice the bench's scatter size: the flows that closed the primal's
    # levels give a pair exact for every loss, and the pipeline's dual runs
    # no max-flow of its own.  Given the field alone, the dual's first
    # program, one max-flow on every level and at most one repair of its
    # rounding, does the same
    g, measure = _scatter_l2(800)
    ds, prov = _pipeline(g, measure, 1e-4)
    assert prov["dual_iterations"] == 0
    bare = solve_dual(g, measure, solve_exp_primal(g, measure).f)
    assert 1 <= bare.iterations <= 2
    _assert_all_losses_exact(g, measure, bare, "scatter l2 800 from its field")
    _assert_all_losses_exact(g, measure, ds, "scatter l2 800")
    _assert_certified(g, measure, ds, 1e-12, "scatter l2 800")


def test_scatter_l2_1600_solves_exactly_within_its_cpu_bound():
    # four times the bench's scatter size, the size a user waits on: the
    # primal, the dual and the certificates of all four losses.  The bound
    # sits between the tangent-cut route this solve replaced, which took
    # 15.7 CPU s on a 2-core Xeon host, and the 0.5 CPU s the level flows
    # take on it, so it fails only on a large regression
    g, measure = _scatter_l2(1600)
    t0 = time.process_time()
    ds, _ = _pipeline(g, measure, 1e-4)
    _assert_all_losses_exact(g, measure, ds, "scatter l2 1600")
    assert time.process_time() - t0 <= 10.0


def test_winf_800_within_its_cpu_bound():
    # twice the bench's scatter size, its class measures normalised as the
    # winf command does.  The bound sits between the HiGHS transport linear
    # program per bisection step, which took 13.5 CPU s on a 2-core Xeon
    # host, and the 0.63 CPU s the max-flow takes on it, so it fails only on
    # a large regression
    g, measure = _scatter_l2(800)
    p = measure.mass0 / measure.mass0.sum()
    q = measure.mass1 / measure.mass1.sum()
    t0 = time.process_time()
    d = winf_distance(g, p, q)
    assert time.process_time() - t0 <= 4.0
    assert d == 0.9228154971935951
