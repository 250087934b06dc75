import os

import numpy as np
import pytest

from advdual.certify import universality_check
from advdual.dualsolve import solve_dual
from advdual.errors import InfeasibleDual, NegativeEpsilon, ParseError, ValidationError
from advdual.io import (
    SCHEMA_VERSION,
    SWEEP_HEADER,
    dumps,
    load_instance,
    load_result,
    loads,
    refine_points,
    save_instance,
    save_result,
    save_sweep_csv,
    save_sweep_svg,
    sweep_svg,
)
from advdual.measures import Coupling, SourceBalls, Witness
from advdual.primalsolve import solve_exp_primal

from conftest import ROOT, refine_points_loop


def test_load_bundled_twopoint_instance():
    g, measure = load_instance(os.path.join(ROOT, "instances", "twopoint.json"))
    # refinement level 1 inserts the midpoint of the single 2-epsilon edge
    assert g.n == 3
    assert np.allclose(sorted(g.points[:, 0]), [0.0, 0.5, 1.0])
    assert measure.mass0[0] == 0.5 and measure.mass1[1] == 0.5
    assert measure.mass0[2] == 0.0 and measure.mass1[2] == 0.0
    assert g.epsilon == 0.6 and g.norm == "l2"


def test_instance_round_trip(tmp_path):
    path = str(tmp_path / "inst.json")
    pts = np.array([[0.0, 1.0], [2.0, -0.5]])
    save_instance(path, pts, "linf", 0.25, [0.4, 0.0], [0.0, 0.6])
    g, measure = load_instance(path)
    assert np.array_equal(g.points, pts)
    assert g.norm == "linf" and g.epsilon == 0.25
    assert np.array_equal(measure.mass0, [0.4, 0.0])
    assert np.array_equal(measure.mass1, [0.0, 0.6])


def test_instance_byte_stable(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    pts = [[0.1], [0.7]]
    for path in (a, b):
        save_instance(path, pts, "l2", 1 / 3, [0.5, 0.0], [0.0, 0.5])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_instance_validation_errors(tmp_path):
    path = str(tmp_path / "bad.json")

    def write(data):
        with open(path, "w") as fh:
            fh.write(dumps(data))

    write({"schema_version": 99, "points": [[0]], "norm": "l2",
           "epsilon": 0.1, "mass0": [1], "mass1": [0]})
    with pytest.raises(ValidationError, match="schema_version"):
        load_instance(path)

    write({"schema_version": 1, "points": [[0]], "norm": "l2",
           "epsilon": 0.1, "mass0": [1]})
    with pytest.raises(ValidationError, match="mass1"):
        load_instance(path)

    write({"schema_version": 1, "points": [[0], [1]], "norm": "l2",
           "epsilon": 0.1, "mass0": [1, 0], "mass1": [0, -0.5]})
    with pytest.raises(ValidationError, match=r"mass1\[1\]"):
        load_instance(path)

    write({"schema_version": 1, "points": [[0]], "norm": "manhattan",
           "epsilon": 0.1, "mass0": [1], "mass1": [0]})
    with pytest.raises(ValidationError, match="norm"):
        load_instance(path)


def test_nonfinite_mass_is_a_validation_error(tmp_path):
    # load_instance leaves mass sign and finiteness to TwoClassMeasure.build
    path = str(tmp_path / "bad.json")
    for bad in (float("nan"), float("inf")):
        with open(path, "w") as fh:
            fh.write(dumps({"schema_version": 1, "points": [[0], [1]], "norm": "l2",
                            "epsilon": 0.1, "mass0": [1, bad], "mass1": [0, 0]}))
        with pytest.raises(ValidationError, match="mass0"):
            load_instance(path)


def test_negative_epsilon_message_names_the_file_value(tmp_path):
    # refinement builds its 2-epsilon ground first; the message still names
    # the epsilon the file holds
    path = str(tmp_path / "bad.json")
    for r in (0, 1):
        save_instance(path, [[0.0], [1.0]], "l2", -0.1, [1, 0], [0, 1], refinement=r)
        with pytest.raises(NegativeEpsilon, match=r"got -0\.1$"):
            load_instance(path)


def test_refine_points_levels():
    pts = np.array([[0.0], [1.0]])
    # distance 1 <= 2 * 0.6: the pair is refinable
    assert refine_points(pts, 0.6, 0, "l2").shape[0] == 2
    r1 = refine_points(pts, 0.6, 1, "l2")
    assert r1.shape[0] == 3 and r1[2, 0] == 0.5
    r3 = refine_points(pts, 0.6, 3, "l2")
    assert np.allclose(sorted(r3[:, 0]), [0.0, 0.25, 0.5, 0.75, 1.0])
    # points too far apart to interact are never refined
    assert refine_points(pts, 0.3, 4, "l2").shape[0] == 2
    # drawn point sets, bitwise against the pair-by-pair reference: a
    # duplicate point in each, epsilon 0 in every fifth, levels 0-3, every norm
    rng = np.random.default_rng(7)
    for k in range(240):
        n = int(rng.integers(1, 10))
        drawn = np.round(rng.uniform(0.0, 2.0, (n, int(rng.integers(1, 4)))), 1)
        drawn[-1] = drawn[0]
        eps = 0.0 if k % 5 == 0 else float(rng.uniform(0.0, 1.0))
        r, norm = k % 4, ("l1", "l2", "linf")[k % 3]
        out, ref = refine_points(drawn, eps, r, norm), refine_points_loop(drawn, eps, r, norm)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), k


def test_refine_points_keeps_original_order():
    # every original point stays first, in order, a repeated one included,
    # since load_instance pads the masses after them
    for pts in ([[0.4], [0.0]], [[0.0], [0.0], [1.0]], [[0.0], [0.0]]):
        out = refine_points(np.array(pts), 0.5, 1, "l2")
        assert np.array_equal(out[:len(pts)], pts)


def test_dumps_deterministic_and_sorted():
    a = dumps({"b": 1.0, "a": [np.inf, -np.inf, 0.1]})
    b = dumps({"a": [np.inf, -np.inf, 0.1], "b": 1.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_inf_round_trip():
    data = loads(dumps({"f": [np.inf, -np.inf, 1.5], "v": float("nan")}))
    assert data["f"][0] == np.inf and data["f"][1] == -np.inf
    assert data["f"][2] == 1.5
    assert np.isnan(data["v"])


def test_float_precision_survives():
    x = 0.1 + 0.2  # not representable prettily; %.17g must round-trip
    assert loads(dumps({"x": x}))["x"] == x


def test_result_round_trip(tmp_path, twopoint):
    g, measure = twopoint
    ds = solve_dual(g, measure, solve_exp_primal(g, measure).f)
    result = universality_check(ds.f, ds.witness, ["exp", "hinge"])
    provenance = {"tol": 1e-3, "primal_iterations": 3, "dual_iterations": 5, "runtime_ms": 7}
    path = str(tmp_path / "out.json")
    save_result(path, "dir/twopoint.json", result, provenance)
    with open(path) as fh:
        raw = loads(fh.read())
    assert raw["schema_version"] == SCHEMA_VERSION
    assert raw["instance"]["path"] == "twopoint.json"
    assert raw["provenance"] == provenance
    back, tol = load_result(path, g, measure)
    assert np.array_equal(back.f, result.f)
    assert np.array_equal(back.witness.m0, ds.witness.m0)
    assert np.array_equal(back.witness.m1, ds.witness.m1)
    assert back.witness.c0.triples() == ds.witness.c0.triples()
    assert back.witness.c1.triples() == ds.witness.c1.triples()
    assert back.certificates == result.certificates
    assert (back.support_violation, tol) == (result.support_violation, 1e-3)


@pytest.mark.parametrize("key, masses", [("m0", [0.5, 0.0, 0.0]), ("m1", [0.0, 0.25, 0.25])],
                         ids=["m0", "m1"])
def test_load_result_rejects_masses_off_the_pushforward(tmp_path, twopoint, key, masses):
    # couplings on epsilon-edges with the right sources, but one stored mass
    # vector is not where they move the class measure
    g, measure = twopoint
    witness = Witness(SourceBalls(g, measure), Coupling.build([0], [2], [0.5], 3),
                      Coupling.build([1], [2], [0.5], 3))
    path = str(tmp_path / "out.json")
    save_result(path, "twopoint.json", universality_check(np.zeros(3), witness, ["exp"]),
                {"tol": None})
    back, _ = load_result(path, g, measure)
    assert back.witness.m0.tolist() == back.witness.m1.tolist() == [0.0, 0.0, 0.5]
    with open(path) as fh:
        data = loads(fh.read())
    data[key] = masses
    with open(path, "w") as fh:
        fh.write(dumps(data))
    with pytest.raises(InfeasibleDual, match="pushforward"):
        load_result(path, g, measure)


def test_parse_error_diagnostics(tmp_path, twopoint):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"a": 1,\n  "b": }\n')
    with pytest.raises(ParseError) as exc:
        load_result(path, *twopoint)
    assert "line 2" in str(exc.value)


def test_sweep_csv(tmp_path):
    path = str(tmp_path / "sweep.csv")
    rows = [
        {"eps": 0.0, "loss": "exponential", "primal": 0.0, "dual": 0.0,
         "gap": 0.0, "primal_iters": 10, "dual_iters": 3, "runtime_ms": 1.5},
        {"eps": 0.5, "loss": "exponential", "primal": 1.0, "dual": 1.0,
         "gap": 0.0, "primal_iters": 20, "dual_iters": 4, "runtime_ms": 2.5},
    ]
    save_sweep_csv(path, rows)
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 3
    assert lines[1].startswith("0,exponential,")
    assert lines[1].endswith(",10,3,1")


def test_sweep_svg(tmp_path):
    rows = [
        {"eps": e, "loss": "exponential", "primal": v, "dual": v,
         "gap": 0.0, "primal_iters": 1, "dual_iters": 1, "runtime_ms": 0.0}
        for e, v in [(0.0, 0.0), (0.3, 0.4), (0.6, 1.0)]
    ]
    text = sweep_svg(rows)
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "polyline" in text
    path = str(tmp_path / "sweep.svg")
    save_sweep_svg(path, rows)
    assert open(path).read() == text
