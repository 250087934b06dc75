"""Command-line entry point.

Subcommands: solve (full pipeline plus certificates), sweep (epsilon grid to
CSV/SVG), winf (infinity-Wasserstein distance between the class measures),
attack (emit the distribution-level universal attack), verify (re-check a
stored result), oracle (brute-force reference values for tiny fixtures).

Every command that solves judges the solve by ``certify.uncertified``: the
losses whose certificate gap exceeds the one tolerance, zero-one included.

Exit codes: 0 success, 2 parse/validation failure, 3 an uncertified gap in
solve, sweep or attack (or a solver error), 4 a stored result that verify
rejects: malformed, not reproduced by its witness, or uncertified.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from . import io as adio
from .certify import Certificate, gap_tol, uncertified, universality_check
from .dualsolve import DualSolution, brute_dual, dual_objective, solve_dual
from .errors import AdvdualError, InstanceTooLarge, ParseError, ValidationError
from .ground import build_ground
from .losses import LOSS_KINDS, get_loss
from .measures import Coupling, winf_distance
from .primalsolve import PrimalSolution, brute_primal, eta_hat, solve_exp_primal

LOSS_CHOICES = ("exp", "logistic", "hinge", "zero-one")
ALL_LOSSES = list(LOSS_CHOICES)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="advdual",
        description="Adversarial surrogate risk and its transport dual on "
                    "finite ground sets, with optimality certificates.")
    sub = ap.add_subparsers(dest="command", required=True)
    losses = LOSS_CHOICES + ("all",)
    tol_help = ("gap tolerance per unit of total mass (default 1e-4 for every loss); gaps "
                "below about 1e-7 are out of reach, as the cut loop runs out of tangents")

    p = sub.add_parser("solve", help="solve primal and dual, certify, write result")
    p.add_argument("instance")
    p.add_argument("--loss", choices=losses, default="exp", help="surrogate loss")
    p.add_argument("--tol", type=float, help=tol_help)
    p.add_argument("--out", help="result JSON path (default <instance>_result.json)")

    p = sub.add_parser("sweep", help="solve across an epsilon grid, emit CSV")
    p.add_argument("instance")
    p.add_argument("--eps", required=True,
                   help="comma-separated epsilon grid, e.g. 0,0.3,0.6")
    p.add_argument("--loss", choices=losses, default="all", help="surrogate loss")
    p.add_argument("--tol", type=float, help=tol_help)
    p.add_argument("--out", help="output stem (default <instance>_sweep)")
    p.add_argument("--format", choices=("csv", "svg", "both"), default="csv")

    p = sub.add_parser("winf", help="infinity-Wasserstein distance between "
                                    "the normalized class measures")
    p.add_argument("instance")

    p = sub.add_parser("attack", help="emit the universal distribution-level attack")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, help=tol_help)
    p.add_argument("--out", help="also write the couplings to this JSON path")

    p = sub.add_parser("verify", help="re-check a stored result against its instance")
    p.add_argument("instance")
    p.add_argument("result")

    p = sub.add_parser("oracle", help="brute-force reference values (tiny instances)")
    p.add_argument("instance")
    p.add_argument("--loss", choices=losses, default="exp", help="surrogate loss")
    p.add_argument("--grid-steps", type=int, default=60)
    return ap


def _requested_losses(arg: str) -> list[str]:
    return ALL_LOSSES if arg == "all" else [arg]


def _load_solvable(path: str):
    """The instance at ``path``, which must carry mass: every verdict is per
    unit of total mass, and a gap tolerance of 0 judges nothing."""
    g, measure = adio.load_instance(path)
    if measure.total <= 0:
        raise ValidationError("the instance has no mass; a solve needs a "
                              "positive total mass")
    return g, measure


def _pipeline(g, measure, tol: float | None):
    """Smoothed L-BFGS exponential primal, then the tangent-cut programs
    (``solve_dual``) seeded by its field, until their exponential gap is
    within ``gap_tol(tol, measure.total)``, the gap every certificate is
    judged at, or they stop improving.  The programs'
    couplings and the field read off their cut multipliers are returned as
    the primal and dual solutions; their certificates judge them."""
    t0 = time.perf_counter()
    ps = solve_exp_primal(g, measure)
    ds = solve_dual(g, measure, ps.f, gap_tol(tol, measure.total))
    ps = PrimalSolution(f=ds.f, risk=ds.risk, iterations=ps.iterations)
    runtime_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    return ps, ds, runtime_ms


def _result_dict(instance_path, g, ps, ds, certs, tol, runtime_ms) -> dict:
    """Result file contents; ``tol`` is the --tol the solve was given, or
    None, and ``verify`` judges every certificate through ``gap_tol`` with
    it and the instance's total mass."""
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
            "tol": None if tol is None else float(tol),
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
    print(f"{name}: primal={cert.primal_value:.12g} "
          f"dual={cert.dual_value:.12g} gap={cert.gap:.6g}")


def _warn_uncertified(certs: dict[str, Certificate], tol: float | None,
                      total: float, where: str = "") -> list[str]:
    """``uncertified(certs, tol, total)``, with one stderr warning per kind."""
    bad = uncertified(certs, tol, total)
    for kind in bad:
        print(f"warning: {where}{kind} gap {certs[kind].gap:.6g} is not "
              f"certified at tol {gap_tol(tol, total):g}", file=sys.stderr)
    return bad


def cmd_solve(args) -> int:
    g, measure = _load_solvable(args.instance)
    # the exponential certificate is always computed and judged, whatever
    # --loss asks for
    ps, ds, runtime_ms = _pipeline(g, measure, args.tol)
    eta = eta_hat(ps.f)
    names = sorted(set(_requested_losses(args.loss)) | {"exp"})
    certs = universality_check(eta, ds, names, g, measure)
    result = _result_dict(args.instance, g, ps, ds, certs, args.tol, runtime_ms)
    out = args.out or os.path.splitext(args.instance)[0] + "_result.json"
    adio.save_result(out, result)

    for loss_name in _requested_losses(args.loss):
        _print_cert_line(loss_name, certs[get_loss(loss_name).kind])
    print(f"result written to {out}")
    return 3 if _warn_uncertified(certs, args.tol, measure.total) else 0


def cmd_sweep(args) -> int:
    g, measure = _load_solvable(args.instance)
    try:
        eps_grid = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError as e:
        raise ValidationError(f"bad --eps value: {e}") from e
    if not eps_grid:
        raise ValidationError("empty epsilon grid")
    bad = [eps for eps in eps_grid if not (math.isfinite(eps) and eps >= 0)]
    if bad:
        raise ValidationError(f"--eps values must be finite and nonnegative, "
                              f"got {bad[0]}")
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
            ps, ds, _ = _pipeline(ge, measure, args.tol)
            certs = universality_check(eta_hat(ps.f), ds, losses, ge, measure)
        except AdvdualError as e:
            print(f"warning: eps={eps:g} failed: {e}", file=sys.stderr)
            for loss_name in losses:
                rows.append(dict(eps=eps, loss=loss_name, primal=float("nan"),
                                 dual=float("nan"), gap=float("nan"),
                                 primal_iters=0, dual_iters=0, runtime_ms=0))
            code = 3
            continue
        ms = int(round(1000.0 * (time.perf_counter() - t0)))
        if _warn_uncertified(certs, args.tol, measure.total, f"eps={eps:g}: "):
            code = 3
        for loss_name in losses:
            cert = certs[get_loss(loss_name).kind]
            rows.append(dict(eps=eps, loss=loss_name, primal=cert.primal_value,
                             dual=cert.dual_value, gap=cert.gap,
                             primal_iters=ps.iterations,
                             dual_iters=ds.iterations,
                             runtime_ms=ms))
    stem = args.out or os.path.splitext(args.instance)[0] + "_sweep"
    stem = stem[:-4] if stem.endswith((".csv", ".svg")) else stem
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
    g, measure = _load_solvable(args.instance)
    ps, ds, runtime_ms = _pipeline(g, measure, args.tol)
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
    certs = universality_check(eta_hat(ps.f), ds, ["exp"], g, measure)
    if _warn_uncertified(certs, args.tol, measure.total):
        print("warning: the couplings are not an optimal attack", file=sys.stderr)
        return 3
    return 0


def _stored_matches(stored, fresh) -> bool:
    """A stored certificate value against its recomputation: floats within
    1e-9 (a NaN never matches), everything else exactly."""
    if isinstance(fresh, float):
        return (isinstance(stored, (int, float)) and not isinstance(stored, bool)
                and abs(stored - fresh) <= 1e-9)
    return stored == fresh


def cmd_verify(args) -> int:
    g, measure = adio.load_instance(args.instance)

    def fail(msg: str) -> int:
        print(f"verify FAILED: {msg}")
        return 4

    try:
        # a file that is not JSON stays a parse error (exit 2)
        data = adio.load_result(args.result)
    except ValidationError as e:
        return fail(str(e))
    try:
        f, eta, m0, m1 = (np.asarray(data[k], dtype=float)
                          for k in ("f", "eta_hat", "m0", "m1"))
        tr0, tr1 = (np.asarray(data["couplings"][k], dtype=float)
                    for k in ("class0", "class1"))
        stored = data["certificates"]
        solve_tol = data["provenance"]["tol"]
    except KeyError as e:
        return fail(f"result file missing field {e}")
    except (TypeError, ValueError) as e:
        return fail(f"malformed result file: {e}")
    if not isinstance(stored, dict):
        return fail("certificates must be an object")
    if solve_tol is not None and not isinstance(solve_tol, (int, float)):
        return fail(f"provenance.tol must be a number or null, got {solve_tol!r}")
    if any(t.size and (t.ndim != 2 or t.shape[1] != 3) for t in (tr0, tr1)):
        return fail("coupling entries must be [source, target, weight] triples")
    unknown = [k for k, c in stored.items()
               if k not in LOSS_KINDS or not isinstance(c, dict)]
    if unknown:
        return fail(f"unknown or malformed certificate entry {unknown[0]!r}")
    if any(v.shape != (g.n,) for v in (f, eta, m0, m1)):
        return fail(f"stored vector lengths do not match the instance "
                    f"ground set ({g.n} points)")
    if not np.all(np.abs(eta_hat(f) - eta) <= 1e-12):
        return fail("stored eta_hat does not match the stored score field f")
    try:
        c0, c1 = (Coupling.build(*t.reshape(-1, 3).T, g.n) for t in (tr0, tr1))
    except AdvdualError as e:
        return fail(f"stored couplings invalid: {e}")
    try:
        # universality_check rejects masses that are not the couplings'
        # pushforwards before it scores each loss
        dual = DualSolution(coupling0=c0, coupling1=c1, m0=m0, m1=m1,
                            objective=dual_objective(get_loss("exp"), m0, m1),
                            iterations=0)
        fresh = universality_check(eta, dual, list(stored), g, measure)
    except AdvdualError as e:
        return fail(str(e))
    for kind, cert in stored.items():
        got = fresh[kind].as_dict()
        for key in sorted(set(cert) | set(got)):
            if not _stored_matches(cert.get(key), got.get(key)):
                return fail(f"{kind}.{key}: stored {cert.get(key)!r} vs "
                            f"recomputed {got.get(key)!r}")
    bad = uncertified(fresh, solve_tol, measure.total)
    if bad:
        return fail(f"{bad[0]}.gap {stored[bad[0]]['gap']!r} exceeds tolerance "
                    f"{gap_tol(solve_tol, measure.total)}")
    print("verify OK")
    return 0


def cmd_oracle(args) -> int:
    g, measure = adio.load_instance(args.instance)
    names = _requested_losses(args.loss)
    for loss_name in names:
        loss = get_loss(loss_name)
        dual = brute_dual(loss, g, measure, args.grid_steps)
        primal = brute_primal(loss, g, measure)
        print(f"{loss_name}: brute_dual={dual:.12g} brute_primal={primal:.12g}")
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
    except (ParseError, ValidationError, InstanceTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AdvdualError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
