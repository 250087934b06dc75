"""Command-line entry point.

Subcommands: solve (full pipeline plus certificates), sweep (epsilon grid to
CSV/SVG), winf (infinity-Wasserstein distance between the class measures),
attack (print the universal attack's couplings and the gap of every loss
they are certified for; --out writes them as a result file), verify
(re-check a stored result), oracle (brute-force reference values for tiny
fixtures).

Every command that solves judges the solve by ``certify.uncertified``: the
losses whose certificate gap exceeds the one tolerance, zero-one included.

Exit codes: 0 success, 2 parse/validation failure or an output file that
cannot be written (found before any solve), 3 an uncertified gap in solve,
sweep or attack (or a solver error), 4 a stored result that verify rejects:
malformed, not reproduced by its witness, or uncertified.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import asdict

from . import io as adio
from .certify import Certificate, check_tol, gap_tol, uncertified, universality_check
from .dualsolve import brute_dual, solve_dual
from .errors import AdvdualError, InstanceTooLarge, ParseError, ValidationError, WriteError
from .ground import build_ground
from .losses import get_loss
from .measures import winf_distance
from .primalsolve import brute_primal, solve_exp_primal

LOSS_CHOICES = ("exp", "logistic", "hinge", "zero-one")
ALL_LOSSES = list(LOSS_CHOICES)


def _tol_arg(text: str) -> float:
    """--tol: a number that ``check_tol`` accepts."""
    try:
        return check_tol(float(text))
    except ValidationError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _grid_steps_arg(text: str) -> int:
    """--grid-steps: an integer of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="advdual",
        description="Adversarial surrogate risk and its transport dual on "
                    "finite ground sets, with optimality certificates.")
    sub = ap.add_subparsers(dest="command", required=True)
    losses = LOSS_CHOICES + ("all",)
    tol_help = "gap tolerance per unit of total mass (default 1e-4 for every loss)"

    p = sub.add_parser("solve", help="solve primal and dual, certify, write result")
    p.add_argument("instance")
    p.add_argument("--loss", choices=losses, default="exp", help="surrogate loss")
    p.add_argument("--tol", type=_tol_arg, help=tol_help)
    p.add_argument("--out", help="result JSON path (default <instance>_result.json)")

    p = sub.add_parser("sweep", help="solve across an epsilon grid, emit CSV")
    p.add_argument("instance")
    p.add_argument("--eps", required=True,
                   help="comma-separated epsilon grid, e.g. 0,0.3,0.6")
    p.add_argument("--loss", choices=losses, default="all", help="surrogate loss")
    p.add_argument("--tol", type=_tol_arg, help=tol_help)
    p.add_argument("--out", help="output stem (default <instance>_sweep)")
    p.add_argument("--format", choices=("csv", "svg", "both"), default="csv")

    p = sub.add_parser("winf", help="infinity-Wasserstein distance between "
                                    "the normalized class measures")
    p.add_argument("instance")

    p = sub.add_parser("attack", help="emit the universal distribution-level attack, "
                                      "certified for every loss")
    p.add_argument("instance")
    p.add_argument("--tol", type=_tol_arg, help=tol_help)
    p.add_argument("--out", help="also write the result file (couplings and "
                                 "every loss's certificate) to this path")

    p = sub.add_parser("verify", help="re-check a stored result against its instance")
    p.add_argument("instance")
    p.add_argument("result")

    p = sub.add_parser("oracle", help="brute-force reference values (tiny instances)")
    p.add_argument("instance")
    p.add_argument("--loss", choices=losses, default="exp", help="surrogate loss")
    p.add_argument("--grid-steps", type=_grid_steps_arg, default=60)
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
    """The exact exponential primal (``solve_exp_primal``, nested max-flow
    cuts), then the couplings on its levels (``solve_dual``), read off the
    flows and the layout the primal hands over.  Returns the dual's
    solution, whose couplings and field ``universality_check`` judges, and
    the provenance a result file stores: ``tol``, which judges every
    certificate, the primal's max-flows and those the dual ran beyond them,
    0 unless ``nest`` pooled or refilled a level of both classes."""
    t0 = time.perf_counter()
    ps = solve_exp_primal(g, measure)
    ds = solve_dual(g, measure, ps)
    runtime_ms = int(round(1000.0 * (time.perf_counter() - t0)))
    return ds, {"tol": tol, "primal_iterations": ps.iterations,
                "dual_iterations": ds.iterations, "runtime_ms": runtime_ms}


def _solve_and_write(args, losses, out):
    """Solve the instance, certify ``losses`` and, whatever they are, the
    exponential loss, and write the result file ``out`` unless it is None,
    whose writability is checked before the solve; returns the ``Result``
    and the instance's total mass."""
    if out is not None:
        adio.check_writable(out)
    g, measure = _load_solvable(args.instance)
    ds, provenance = _pipeline(g, measure, args.tol)
    result = universality_check(ds.f, ds.witness, sorted(set(losses) | {"exp"}))
    if out is not None:
        adio.save_result(out, args.instance, result, provenance)
    return result, measure.total


def _warn_uncertified(certs: dict[str, Certificate], tol: float | None,
                      total: float, where: str = "") -> list[str]:
    """``uncertified(certs, tol, total)``, with one stderr warning per kind."""
    bad = uncertified(certs, tol, total)
    for kind in bad:
        print(f"warning: {where}{kind} gap {certs[kind].gap:.6g} is not "
              f"certified at tol {gap_tol(tol, total):g}", file=sys.stderr)
    return bad


def cmd_solve(args) -> int:
    out = args.out or os.path.splitext(args.instance)[0] + "_result.json"
    result, total = _solve_and_write(args, _requested_losses(args.loss), out)
    certs = result.certificates
    for loss_name in _requested_losses(args.loss):
        cert = certs[get_loss(loss_name).kind]
        print(f"{loss_name}: primal={cert.primal_value:.12g} "
              f"dual={cert.dual_value:.12g} gap={cert.gap:.6g}")
    print(f"result written to {out}")
    return 3 if _warn_uncertified(certs, args.tol, total) else 0


def cmd_sweep(args) -> int:
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
    stem = args.out or os.path.splitext(args.instance)[0] + "_sweep"
    stem = stem[:-4] if stem.endswith((".csv", ".svg")) else stem
    outs = {fmt: f"{stem}.{fmt}" for fmt in ("csv", "svg") if args.format in (fmt, "both")}
    for path in outs.values():
        adio.check_writable(path)
    g, measure = _load_solvable(args.instance)
    uniq = sorted(set(eps_grid))
    if len(uniq) < len(eps_grid):
        print("warning: duplicate epsilon values removed", file=sys.stderr)
    losses = _requested_losses(args.loss)
    rows = []
    code = 0
    for eps in uniq:
        try:
            ds, provenance = _pipeline(build_ground(g.points, g.norm, eps), measure, args.tol)
            certs = universality_check(ds.f, ds.witness, losses).certificates
        except AdvdualError as e:
            print(f"warning: eps={eps:g} failed: {e}", file=sys.stderr)
            for loss_name in losses:
                rows.append(dict(eps=eps, loss=loss_name, primal=float("nan"),
                                 dual=float("nan"), gap=float("nan"),
                                 primal_iters=0, dual_iters=0, runtime_ms=0))
            code = 3
            continue
        if _warn_uncertified(certs, args.tol, measure.total, f"eps={eps:g}: "):
            code = 3
        for loss_name in losses:
            cert = certs[get_loss(loss_name).kind]
            rows.append(dict(eps=eps, loss=loss_name, primal=cert.primal_value,
                             dual=cert.dual_value, gap=cert.gap,
                             primal_iters=provenance["primal_iterations"],
                             dual_iters=provenance["dual_iterations"],
                             runtime_ms=provenance["runtime_ms"]))
    if "csv" in outs:
        adio.save_sweep_csv(outs["csv"], rows)
        print(f"sweep written to {outs['csv']}")
    if "svg" in outs:
        adio.save_sweep_svg(outs["svg"], rows)
        print(f"chart written to {outs['svg']}")
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
    """The solve's couplings, printed with the gap of every loss they are
    certified for, and with --out written as the result file that ``solve
    --loss all`` writes."""
    result, total = _solve_and_write(args, ALL_LOSSES, args.out)
    for label, c in (("class0", result.witness.c0), ("class1", result.witness.c1)):
        for i, j, w in c.triples():
            print(f"{label} {i} -> {j} mass {w:.17g}")
    for loss_name in ALL_LOSSES:
        print(f"{loss_name}: gap={result.certificates[get_loss(loss_name).kind].gap:.6g}")
    if args.out:
        print(f"attack written to {args.out}")
    if _warn_uncertified(result.certificates, args.tol, total):
        print("warning: the couplings are not an optimal attack", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    g, measure = adio.load_instance(args.instance)

    def fail(msg: str) -> int:
        print(f"verify FAILED: {msg}")
        return 4

    try:
        stored, tol = adio.load_result(args.result, g, measure)
        fresh = universality_check(stored.f, stored.witness, list(stored.certificates))
    except ParseError:
        raise  # a file that is not JSON stays a parse error (exit 2)
    except AdvdualError as e:
        return fail(str(e))
    # every stored number against its recomputation, within 1e-9; a NaN
    # never matches
    checks = [(f"{kind}.{key}", value, getattr(fresh.certificates[kind], key))
              for kind, cert in stored.certificates.items()
              for key, value in asdict(cert).items() if key != "loss"]
    checks.append(("support_violation", stored.support_violation, fresh.support_violation))
    for name, value, recomputed in checks:
        if not abs(value - recomputed) <= 1e-9:
            return fail(f"{name}: stored {value!r} vs recomputed {recomputed!r}")
    bad = uncertified(fresh.certificates, tol, measure.total)
    if bad:
        return fail(f"{bad[0]}.gap {stored.certificates[bad[0]].gap!r} exceeds tolerance "
                    f"{gap_tol(tol, measure.total)}")
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
    except (ParseError, ValidationError, InstanceTooLarge, WriteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AdvdualError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
