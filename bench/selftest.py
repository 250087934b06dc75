"""Self-test of the output check (bench/check.py).

    python3 bench/selftest.py

Solves instances/twopoint.json with the CLI, then requires the check to
accept that result and to reject two tampered copies: one with a perturbed
score field and one whose class-0 coupling moves mass farther than epsilon.
Every benchmark run performs it once before measuring.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import sys
import tempfile
import types

import check

HERE = os.path.dirname(os.path.abspath(__file__))
TWOPOINT = os.path.join(os.path.dirname(HERE), "instances", "twopoint.json")


def run(adv, workdir: str) -> list[str]:
    """Problems with the check; empty when it behaves.  ``adv`` has the
    imported ``advdual.cli`` module as its ``cli`` attribute."""
    out = os.path.join(workdir, "selftest_result.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = adv.cli.main(["solve", TWOPOINT, "--loss", "all", "--out", out])
    if code != 0:
        return [f"solving {TWOPOINT} exited with {code}"]
    inst = check.Instance(TWOPOINT)
    good = check.read_json(out)
    problems = []

    found = check.check_result(inst, good)
    if found:
        problems.append(f"the solved result was rejected: {found}")

    bent = copy.deepcopy(good)
    bent["f"][0] = float(bent["f"][0]) + 0.25
    found = check.check_result(inst, bent)
    if not found:
        problems.append("a result with a perturbed f was accepted")

    # move class 0's mass from point 0 to point 1, distance 1 > epsilon 0.6,
    # and restate m0 to match, so that only the edge length is wrong
    far = copy.deepcopy(good)
    far["couplings"]["class0"] = [[0, 1, 0.5]]
    far["m0"] = [0.0, 0.5, 0.0]
    found = check.check_result(inst, far)
    if "class0 coupling moves mass farther than epsilon" not in found:
        problems.append(f"a coupling edge longer than epsilon was not reported: {found}")
    return problems


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import advdual.cli

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        problems = run(types.SimpleNamespace(cli=advdual.cli), tmp)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest OK" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
