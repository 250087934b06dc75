"""Instance families and the CLI operations each workload runs per round.

An operation is one ``advdual`` command run in-process through
``advdual.cli.main``.  Instances are written as JSON in the program's
instance format.

Every workload's instances are fixed; none depends on ``--seed``.  Fresh
draws of each family make some operations fail on some draws and not on
others, and a benchmark's failed share has to be the same on every run.
"""

from __future__ import annotations

import json
import os

import numpy as np

NORMS = ("l1", "l2", "linf")

SWEEP_EPS = "0,0.1,0.2,0.3,0.4,0.5,0.6"

# criterion 01's suite; 3 of 750 fresh draws of this family end with a
# certificate above the CLI's tolerance
SUITE_SEED = 12345
SUITE_INSTANCES = 50

# scatter2d's l1 and l2 instances fail every time, because of a fault in
# the hinted dual LP; the benchmark keeps that failure
SCATTER_SEED = 1
SCATTER_N = 400
SCATTER_EPS = 0.3

# a max-flow inside `sweep` crashes on some fresh draws of this family
SWEEP_SEED = 1
SWEEP_INSTANCES = 6


def _masses(rng, n):
    """Class masses as in the acceptance suite: each point carries a uniform
    mass of each class with probability 0.7, normalized to total one."""
    m0 = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
    m1 = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.7)
    if m0.sum() == 0.0:
        m0[0] = 0.5
    if m1.sum() == 0.0:
        m1[-1] = 0.5
    tot = m0.sum() + m1.sum()
    return m0 / tot, m1 / tot


def _instance(points, norm, eps, m0, m1, refinement=0) -> dict:
    out = {"schema_version": 1, "points": points.tolist(), "norm": norm,
           "epsilon": float(eps), "mass0": m0.tolist(), "mass1": m1.tolist()}
    if refinement:
        out["refinement"] = refinement
    return out


def suite50() -> list[dict]:
    """The acceptance suite, drawn as tests/test_acceptance.py's
    _random_instance draws it: 5-40 points in [0, 2]^d, d in {1, 2}, any
    norm, epsilon in [0.05, 1)."""
    rng = np.random.default_rng(SUITE_SEED)
    out = []
    for _ in range(SUITE_INSTANCES):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 3))
        pts = rng.uniform(0.0, 2.0, (n, d))
        norm = NORMS[int(rng.integers(3))]
        eps = float(rng.uniform(0.05, 1.0))
        out.append(_instance(pts, norm, eps, *_masses(rng, n)))
    return out


def scatter2d() -> list[dict]:
    """400 uniform points in [0, 2]^2, each given mass 1/400 in class 1 with
    probability sigmoid(4 (x - 1)) and in class 0 otherwise; the same
    points at epsilon 0.3 under each norm."""
    rng = np.random.default_rng(SCATTER_SEED)
    pts = rng.uniform(0.0, 2.0, (SCATTER_N, 2))
    eta = 1.0 / (1.0 + np.exp(-4.0 * (pts[:, 0] - 1.0)))
    label = rng.uniform(size=SCATTER_N) < eta
    m1 = np.where(label, 1.0 / SCATTER_N, 0.0)
    m0 = np.where(label, 0.0, 1.0 / SCATTER_N)
    return [_instance(pts, norm, SCATTER_EPS, m0, m1) for norm in NORMS]


def sweep1d() -> list[dict]:
    """Instances of 12 points in [0, 2], refined once at epsilon 0.6, the
    top of the sweep grid, so every swept ball has meeting points."""
    rng = np.random.default_rng(SWEEP_SEED)
    out = []
    for _ in range(SWEEP_INSTANCES):
        pts = rng.uniform(0.0, 2.0, (12, 1))
        out.append(_instance(pts, "l2", 0.6, *_masses(rng, 12), refinement=1))
    return out


FAMILIES = {"suite50": suite50, "scatter2d": scatter2d, "sweep1d": sweep1d}


def write_instances(workload: str, workdir: str) -> list[str]:
    paths = []
    for i, inst in enumerate(FAMILIES[workload]()):
        path = os.path.join(workdir, f"{workload}_{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh)
        paths.append(path)
    return paths


def operations(workload: str, instances: list[str]) -> list[tuple[str, list[str]]]:
    """(kind, argv) per operation of one round, in order."""
    ops = []
    for path in instances:
        stem = os.path.splitext(path)[0]
        if workload == "sweep1d":
            ops.append(("sweep", ["sweep", path, "--eps", SWEEP_EPS,
                                  "--out", stem + "_sweep.csv"]))
        else:
            result = stem + "_result.json"
            ops.append(("solve", ["solve", path, "--loss", "all", "--tol", "1e-4",
                                  "--out", result]))
            ops.append(("verify", ["verify", path, result]))
    return ops
