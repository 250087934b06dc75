"""Benchmark of advdual's certified solves, driven through its CLI in-process.

    python3 bench/run.py --workload suite50 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

Run from the repository root.  One run writes the workload's fixed instance
files, then repeats whole rounds of the workload's CLI operations until
``--seconds`` have passed, and checks every output against an independent
recomputation (bench/check.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end to end with ``--trace 0`` and per layer with ``--trace 1``.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# one thread for BLAS and OpenMP; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import check  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("suite50", "scatter2d", "sweep1d")
SETUP_REPEATS = 9


class Package:
    """The advdual modules a run drives, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "advdual" or m.startswith("advdual.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("advdual.cli")
        self.io = importlib.import_module("advdual.io")
        self.primalsolve = importlib.import_module("advdual.primalsolve")
        self.certify = importlib.import_module("advdual.certify")


def setup(workload: str, workdir: str):
    """Import the package and write the instance files, SETUP_REPEATS
    times; returns the last package, the instance paths and the median
    set-up time.  The first time also imports numpy, scipy and networkx;
    the median leaves that out."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage from the previous import is not set-up cost
        t0 = time.perf_counter()
        adv = Package()
        paths = workloads.write_instances(workload, workdir)
        times.append(time.perf_counter() - t0)
    return adv, paths, statistics.median(times)


@dataclass
class Op:
    """Outcome of one CLI operation."""

    kind: str
    seconds: float
    failed: bool
    # a failure explained by a loose exponential gap alone, with a sound
    # witness that reproduces the stored numbers: the hinted dual LP
    # stopping short
    attributed: bool


def judge(kind, argv, code, text, last_solve) -> tuple[list[str], bool]:
    """Problems with an operation's outcome, and whether its failure is
    attributed to the dual LP fault."""
    if kind == "verify":
        if code == 0 and "verify OK" in text:
            return [], False
        return [f"exit code {code}"], (
            code == 4 and last_solve is not None and last_solve.attributed
            and "exponential.gap" in text and "exceeds tolerance" in text)
    out = argv[argv.index("--out") + 1]
    try:
        if kind == "sweep":
            return ([f"exit code {code}"] if code != 0 else check.check_sweep(out)), False
        problems = check.check_result(check.Instance(argv[1]), check.read_json(out))
    except (OSError, KeyError, ValueError, TypeError) as e:
        return [f"exit code {code}, output unreadable: {e!r}"], False
    attributed = code == 3 and problems == [check.GAP_PROBLEM]
    if code != 0 and not attributed:
        problems.append(f"exit code {code}")
    return problems, attributed


def run_op(adv, kind, argv, last_solve) -> Op:
    if "--out" in argv:
        # a file left by an earlier round must not pass for this one's output
        with contextlib.suppress(FileNotFoundError):
            os.remove(argv[argv.index("--out") + 1])
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = adv.cli.main(argv)
    except Exception:  # a crash fails the operation; the run goes on
        seconds = time.perf_counter() - t0
        print(f"{kind} {argv[1]} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return Op(kind, seconds, True, False)
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    problems, attributed = judge(kind, argv, code, text, last_solve)
    if problems and not attributed:
        print(f"{kind} {argv[1]} failed: {'; '.join(problems)}\n{text}", file=sys.stderr)
    return Op(kind, seconds, bool(problems), attributed)


def run_round(adv, ops, tracer=None):
    done = []
    last_solve = None
    for kind, argv in ops:
        if tracer is not None:
            tracer.op += 1
        op = run_op(adv, kind, argv, last_solve)
        if kind == "solve":
            last_solve = op
        done.append(op)
    return done


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer totals of one traced round."""
    def dur(s):
        return s.end - s.start

    def total(name):
        return sum(dur(s) for s in spans if s.name == name)

    def count(name, key=None):
        return sum((s.counts.get(key, 0) if key else 1) for s in spans if s.name == name)

    # pipeline time outside the primal and dual spans it made
    inner = sum(dur(s) for s in spans
                if s.name in ("primalsolve.solve", "dualsolve.solve")
                and s.parent is not None and s.parent.name == "cli.pipeline")
    # universality time outside the max-flows made under it
    flows = 0.0
    for s in spans:
        if s.name != "measures.winf_feasible":
            continue
        p = s.parent
        while p is not None and p.name != "certify.universality":
            p = p.parent
        if p is not None:
            flows += dur(s)
    polish = [s for s in spans if s.name == "primalsolve.solve" and s.counts.get("polish")]
    return {
        "cli.solve.s": (total("cli.solve"), "s"),
        "cli.verify.s": (total("cli.verify"), "s"),
        "cli.sweep.s": (total("cli.sweep"), "s"),
        "cli.pipeline.self_s": (total("cli.pipeline") - inner, "s"),
        "io.load_instance.s": (total("io.load_instance"), "s"),
        "io.refine_points.s": (total("io.refine_points"), "s"),
        "io.save_result.s": (total("io.save_result"), "s"),
        "io.result.bytes": (count("io.save_result", "bytes"), "bytes"),
        "io.load_result.s": (total("io.load_result"), "s"),
        "ground.build_ground.s": (total("ground.build_ground"), "s"),
        "ground.build_ground.calls": (count("ground.build_ground"), "count"),
        "ground.edges": (count("ground.build_ground", "edges"), "count"),
        "primalsolve.solve.s": (total("primalsolve.solve"), "s"),
        "primalsolve.solve.calls": (count("primalsolve.solve"), "count"),
        "primalsolve.iterations": (count("primalsolve.solve", "iterations"), "count"),
        "primalsolve.polish.s": (sum(dur(s) for s in polish), "s"),
        "primalsolve.polish.calls": (len(polish), "count"),
        "primalsolve.polish.useful": (sum(s.counts["useful"] for s in polish), "count"),
        "dualsolve.solve.s": (total("dualsolve.solve"), "s"),
        "dualsolve.solve.calls": (count("dualsolve.solve"), "count"),
        "dualsolve.iterations": (count("dualsolve.solve", "iterations"), "count"),
        "dualsolve.resolve.useful": (count("dualsolve.solve", "useful"), "count"),
        "certify.universality.self_s": (total("certify.universality") - flows, "s"),
        "certify.certify.calls": (count("certify.certify"), "count"),
        "measures.winf_feasible.s": (total("measures.winf_feasible"), "s"),
        "measures.winf_feasible.calls": (count("measures.winf_feasible"), "count"),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: str):
    adv, paths, setup_s = setup(workload, workdir)
    selftest_problems = selftest.run(adv, workdir)
    if selftest_problems:
        raise SystemExit("the output check failed its self-test: "
                         + "; ".join(selftest_problems))
    ops = workloads.operations(workload, paths)

    tracer = Tracer() if traced else None
    rounds, traced_rounds, layer_rounds = [], [], []
    t_start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced rounds, so it can
        # report the tracing overhead against the same inputs
        trace_this = traced and len(rounds) > len(traced_rounds)
        if trace_this:
            first = len(tracer.spans)
            tracer.install(adv)
            try:
                done = run_round(adv, ops, tracer)
            finally:
                tracer.restore()
            traced_rounds.append(done)
            layer_rounds.append(layer_metrics(tracer.spans[first:]))
        else:
            rounds.append(run_round(adv, ops))
        enough = time.perf_counter() - t_start >= seconds
        if enough and (not traced or traced_rounds):
            break

    all_ops = [op for r in rounds + traced_rounds for op in r]
    attempted = len(all_ops)
    failed = sum(op.failed for op in all_ops)
    correct = all(op.attributed for op in all_ops if op.failed)

    def wall(r):
        return sum(op.seconds for op in r)

    if not traced:
        solves = [op.seconds for op in all_ops if op.kind in ("solve", "sweep")]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(wall(r) for r in rounds), "s"),
            "solve_p50_ms": (1000.0 * statistics.median(solves), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {name: (statistics.median(lr[name][0] for lr in layer_rounds), unit)
                   for name, (_, unit) in layer_rounds[0].items()}
        plain = statistics.median(wall(r) for r in rounds)
        with_spans = statistics.median(wall(r) for r in traced_rounds)
        metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")
        os.makedirs(os.path.join(BENCH, "runs"), exist_ok=True)
        tracer.dump(os.path.join(BENCH, "runs", f"trace-{workload}-seed{seed}.jsonl"))
    return correct, attempted, failed, metrics, [wall(r) for r in rounds + traced_rounds]


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[w] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="names the run's files; the inputs are fixed (bench/README.md)")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "advdual", "cli.py")):
        print(f"error: no advdual sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    workdir = os.path.join(BENCH, "runs", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        correct, attempted, failed, metrics, walls = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} round walls (s)="
          f"{' '.join(f'{w:.3f}' for w in walls)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
