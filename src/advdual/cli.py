"""Command-line entry point.

Subcommands: solve (full pipeline plus certificates), sweep (epsilon grid to
CSV/SVG), winf (infinity-Wasserstein distance between the class measures),
attack (emit the distribution-level universal attack), verify (re-check a
stored result), oracle (brute-force reference values for tiny fixtures).

Exit codes: 0 success, 2 parse/validation failure, 3 nonconvergence or an
uncertified gap, 4 certificate mismatch in verify.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import io as adio
from .certify import TOL_EXP, TOL_UNIVERSAL, universality_check
from .dualsolve import DualSolution, brute_dual, dual_objective, solve_dual
from .errors import AdvdualError, InstanceTooLarge, ParseError, ValidationError
from .ground import build_ground
from .losses import get_loss
from .measures import Coupling, winf_distance
from .primalsolve import brute_primal, eta_hat, solve_exp_primal

LOSS_CHOICES = ("exp", "logistic", "hinge", "zero-one")
ALL_LOSSES = list(LOSS_CHOICES)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="advdual",
        description="Adversarial surrogate risk and its transport dual on "
                    "finite ground sets, with optimality certificates.")
    sub = ap.add_subparsers(dest="command", required=True)
    losses = LOSS_CHOICES + ("all",)
    exp_tol = "exponential gap tolerance the pipeline solves to (default 1e-4)"

    p = sub.add_parser("solve", help="solve primal and dual, certify, write result")
    p.add_argument("instance")
    p.add_argument("--loss", choices=losses, default="exp", help="surrogate loss")
    p.add_argument("--tol", type=float,
                   help="gap tolerance of every loss (default 1e-4 exp, 1e-3 other losses)")
    p.add_argument("--out", help="result JSON path (default <instance>_result.json)")

    p = sub.add_parser("sweep", help="solve across an epsilon grid, emit CSV")
    p.add_argument("instance")
    p.add_argument("--eps", required=True,
                   help="comma-separated epsilon grid, e.g. 0,0.3,0.6")
    p.add_argument("--loss", choices=losses, default="all", help="surrogate loss")
    p.add_argument("--tol", type=float, help=exp_tol)
    p.add_argument("--out", help="output stem (default <instance>_sweep)")
    p.add_argument("--format", choices=("csv", "svg", "both"), default="csv")

    p = sub.add_parser("winf", help="infinity-Wasserstein distance between "
                                    "the normalized class measures")
    p.add_argument("instance")

    p = sub.add_parser("attack", help="emit the universal distribution-level attack")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, help=exp_tol)
    p.add_argument("--out", help="also write the couplings to this JSON path")

    p = sub.add_parser("verify", help="re-check a stored result against its instance")
    p.add_argument("instance")
    p.add_argument("result")

    p = sub.add_parser("oracle", help="brute-force reference values (tiny instances)")
    p.add_argument("instance")
    p.add_argument("--loss", choices=losses, default="exp", help="surrogate loss")
    p.add_argument("--grid-steps", type=int, default=60)
    return ap


def _loss_tol(name: str, tol) -> float:
    if tol is not None:
        return float(tol)
    return TOL_EXP if name == "exp" else TOL_UNIVERSAL


def _requested_losses(arg: str) -> list[str]:
    return ALL_LOSSES if arg == "all" else [arg]


def _pipeline(g, measure, tol: float):
    """Exponential primal, then its dual read off complementary slackness;
    when that gap is loose, one Polyak polish of the primal against the dual
    bound and a second slackness solve on the sharper score field."""
    t0 = time.perf_counter()
    ps = solve_exp_primal(g, measure)
    ds = solve_dual(g, measure, ps.f, tol)
    if ps.risk - ds.objective > 0.25 * tol * max(1.0, abs(ps.risk)):
        ps2 = solve_exp_primal(g, measure, lower_bound=ds.objective)
        if ps2.risk < ps.risk:
            ps = ps2
        ds2 = solve_dual(g, measure, ps.f, tol)
        if ds2.objective > ds.objective:
            ds = ds2
    runtime_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    return ps, ds, runtime_ms


def _result_dict(instance_path, g, ps, ds, certs, tol, runtime_ms) -> dict:
    eta = eta_hat(ps.f)
    return {
        "schema_version": adio.SCHEMA_VERSION,
        "instance": {
            "path": os.path.basename(instance_path),
            "n_points": int(g.n),
            "norm": g.norm,
            "epsilon": float(g.epsilon),
        },
        "provenance": {
            "tol": float(tol),
            "primal_iterations": int(ps.iterations),
            "dual_iterations": int(ds.iterations),
            "runtime_ms": int(runtime_ms),
        },
        "f": ps.f,
        "eta_hat": eta,
        "m0": ds.m0,
        "m1": ds.m1,
        "couplings": {
            "class0": ds.coupling0.triples(),
            "class1": ds.coupling1.triples(),
        },
        "certificates": {name: c.as_dict() for name, c in certs.items()},
    }


def _print_cert_line(name: str, cert) -> None:
    tag = "  DIAGNOSTIC" if cert.diagnostic else ""
    print(f"{name}: primal={cert.primal_value:.12g} "
          f"dual={cert.dual_value:.12g} gap={cert.gap:.6g}{tag}")


def cmd_solve(args) -> int:
    g, measure = adio.load_instance(args.instance)
    # the exponential certificate is always computed, and judged at its own
    # tolerance whatever --loss asks for
    tol = _loss_tol("exp", args.tol)
    ps, ds, runtime_ms = _pipeline(g, measure, tol)
    eta = eta_hat(ps.f)
    names = sorted(set(_requested_losses(args.loss)) | {"exp"})
    certs = universality_check(eta, ds, names, g, measure)
    result = _result_dict(args.instance, g, ps, ds, certs, tol, runtime_ms)
    out = args.out or os.path.splitext(args.instance)[0] + "_result.json"
    adio.save_result(out, result)

    code = 0
    for loss_name in _requested_losses(args.loss):
        kind = get_loss(loss_name).kind
        cert = certs[kind]
        _print_cert_line(loss_name, cert)
        if cert.diagnostic:
            print("warning: zero-one gap is diagnostic only; optimality of "
                  "the thresholded classifier is not certified")
            continue
        if cert.gap > _loss_tol(loss_name, args.tol):
            code = 3
    if not (ps.converged and ds.converged):
        code = 3
    print(f"result written to {out}")
    return code


def cmd_sweep(args) -> int:
    g, measure = adio.load_instance(args.instance)
    try:
        eps_grid = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError as e:
        raise ValidationError(f"bad --eps value: {e}") from e
    if not eps_grid:
        raise ValidationError("empty epsilon grid")
    uniq = sorted(set(eps_grid))
    if len(uniq) < len(eps_grid):
        print("warning: duplicate epsilon values removed", file=sys.stderr)
    losses = _requested_losses(args.loss)
    rows = []
    code = 0
    for eps in uniq:
        t0 = time.perf_counter()
        try:
            ge = build_ground(g.points, g.norm, eps)
            tol = _loss_tol("exp", args.tol)
            ps, ds, _ = _pipeline(ge, measure, tol)
            certs = universality_check(eta_hat(ps.f), ds, losses, ge, measure)
        except AdvdualError as e:
            print(f"warning: eps={eps:g} failed: {e}", file=sys.stderr)
            for loss_name in losses:
                rows.append(dict(eps=eps, loss=loss_name, primal=float("nan"),
                                 dual=float("nan"), gap=float("nan"),
                                 iters=0, runtime_ms=0))
            code = 3
            continue
        ms = int(round(1000.0 * (time.perf_counter() - t0)))
        for loss_name in losses:
            cert = certs[get_loss(loss_name).kind]
            rows.append(dict(eps=eps, loss=loss_name, primal=cert.primal_value,
                             dual=cert.dual_value, gap=cert.gap,
                             iters=ps.iterations + ds.iterations,
                             runtime_ms=ms))
    stem = args.out or os.path.splitext(args.instance)[0] + "_sweep"
    stem = os.path.splitext(stem)[0] if stem.endswith(".csv") else stem
    if args.format in ("csv", "both"):
        adio.save_sweep_csv(stem + ".csv", rows)
        print(f"sweep written to {stem}.csv")
    if args.format in ("svg", "both"):
        adio.save_sweep_svg(stem + ".svg", rows)
        print(f"chart written to {stem}.svg")
    return code


def cmd_winf(args) -> int:
    g, measure = adio.load_instance(args.instance)
    t0, t1 = float(measure.mass0.sum()), float(measure.mass1.sum())
    if t0 <= 0 or t1 <= 0:
        raise ValidationError("both classes need positive mass")
    d = winf_distance(g, measure.mass0 / t0, measure.mass1 / t1)
    print(f"winf={d:.17g}")
    return 0


def cmd_attack(args) -> int:
    g, measure = adio.load_instance(args.instance)
    tol = _loss_tol("exp", args.tol)
    ps, ds, runtime_ms = _pipeline(g, measure, tol)
    for label, c in (("class0", ds.coupling0), ("class1", ds.coupling1)):
        for i, j, w in c.triples():
            print(f"{label} {i} -> {j} mass {w:.17g}")
    if args.out:
        adio.save_result(args.out, {
            "couplings": {"class0": ds.coupling0.triples(),
                          "class1": ds.coupling1.triples()},
            "m0": ds.m0, "m1": ds.m1,
            "provenance": {"runtime_ms": runtime_ms},
        })
        print(f"attack written to {args.out}")
    return 0


def cmd_verify(args) -> int:
    g, measure = adio.load_instance(args.instance)
    data = adio.load_result(args.result)

    def fail(msg: str) -> int:
        print(f"verify FAILED: {msg}")
        return 4

    try:
        f = np.asarray(data["f"], dtype=float)
        eta = np.asarray(data["eta_hat"], dtype=float)
        tr0 = data["couplings"]["class0"]
        tr1 = data["couplings"]["class1"]
        m0 = np.asarray(data["m0"], dtype=float)
        m1 = np.asarray(data["m1"], dtype=float)
        stored = data["certificates"]
    except KeyError as e:
        raise ValidationError(f"result file missing field {e}") from e
    if any(v.shape != (g.n,) for v in (f, eta, m0, m1)):
        return fail(f"stored vector lengths do not match the instance "
                    f"ground set ({g.n} points)")
    if not np.all(np.abs(eta_hat(f) - eta) <= 1e-12):
        return fail("stored eta_hat does not match the stored score field f")
    try:
        c0 = Coupling.build([t[0] for t in tr0], [t[1] for t in tr0],
                            [t[2] for t in tr0], g.n)
        c1 = Coupling.build([t[0] for t in tr1], [t[1] for t in tr1],
                            [t[2] for t in tr1], g.n)
    except AdvdualError as e:
        return fail(f"stored couplings invalid: {e}")
    try:
        # universality_check rejects masses that are not the couplings'
        # pushforwards before it scores each loss
        dual = DualSolution(coupling0=c0, coupling1=c1, m0=m0, m1=m1,
                            objective=dual_objective(get_loss("exp"), m0, m1),
                            iterations=0, converged=True, history=[])
        fresh = universality_check(eta, dual, list(stored), g, measure)
    except AdvdualError as e:
        return fail(str(e))
    for kind, cert in stored.items():
        if kind not in fresh:
            return fail(f"unknown certificate entry {kind!r}")
        got = fresh[kind].as_dict()
        for key in ("primal_value", "dual_value", "gap", "slack_sup_r1",
                    "slack_sup_r0", "slack_pointwise", "support_violation"):
            a, b = cert.get(key), got.get(key)
            if (a is None) != (b is None):
                return fail(f"{kind}.{key}: stored {a!r} vs recomputed {b!r}")
            if a is not None and not abs(float(a) - float(b)) <= 1e-9:
                return fail(f"{kind}.{key}: stored {a!r} vs recomputed {b!r}")
        for key in ("winf_ok", "diagnostic"):
            if cert.get(key) != got[key]:
                return fail(f"{kind}.{key}: stored {cert.get(key)!r} vs "
                            f"recomputed {got[key]!r}")
        if not got["diagnostic"]:
            tol = TOL_EXP if kind == "exponential" else TOL_UNIVERSAL
            if not float(cert["gap"]) <= tol:
                return fail(f"{kind}.gap {cert['gap']!r} exceeds tolerance {tol}")
    print("verify OK")
    return 0


def cmd_oracle(args) -> int:
    g, measure = adio.load_instance(args.instance)
    names = _requested_losses(args.loss)
    for loss_name in names:
        loss = get_loss(loss_name)
        dual = brute_dual(loss, g, measure, args.grid_steps)
        line = f"{loss_name}: brute_dual={dual:.12g}"
        if loss.kind != "zero_one_dual":
            primal = brute_primal(loss, g, measure)
            line += f" brute_primal={primal:.12g}"
        print(line)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "winf": cmd_winf,
    "attack": cmd_attack,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InstanceTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AdvdualError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
