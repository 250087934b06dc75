import numpy as np
import pytest

from advdual.errors import ParseError, ValidationError
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


def test_load_bundled_twopoint_instance():
    g, measure = load_instance("instances/twopoint.json")
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
        save_result(path, data)  # raw deterministic writer

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


def test_refine_points_keeps_original_order():
    pts = np.array([[0.4], [0.0]])
    out = refine_points(pts, 0.5, 1, "l2")
    assert np.array_equal(out[:2], pts)


def test_dumps_deterministic_and_sorted():
    a = dumps({"b": 1.0, "a": [np.inf, -np.inf, 0.1]})
    b = dumps({"a": [np.inf, -np.inf, 0.1], "b": 1.0})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_inf_round_trip(tmp_path):
    path = str(tmp_path / "r.json")
    save_result(path, {"f": [np.inf, -np.inf, 1.5], "v": float("nan")})
    data = load_result(path)
    assert data["f"][0] == np.inf and data["f"][1] == -np.inf
    assert data["f"][2] == 1.5
    assert np.isnan(data["v"])


def test_float_precision_survives():
    x = 0.1 + 0.2  # not representable prettily; %.17g must round-trip
    assert loads(dumps({"x": x}))["x"] == x


def test_result_round_trip(tmp_path):
    path = str(tmp_path / "out.json")
    result = {"instance": {"n": 3}, "f": [0.0, 1.0], "gap": 1e-12}
    save_result(path, result)
    back = load_result(path)
    assert back["schema_version"] == SCHEMA_VERSION
    assert back["f"] == [0.0, 1.0]
    assert back["gap"] == 1e-12


def test_parse_error_diagnostics(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"a": 1,\n  "b": }\n')
    with pytest.raises(ParseError) as exc:
        load_result(path)
    assert "line 2" in str(exc.value)


def test_sweep_csv(tmp_path):
    path = str(tmp_path / "sweep.csv")
    rows = [
        {"eps": 0.0, "loss": "exponential", "primal": 0.0, "dual": 0.0,
         "gap": 0.0, "iters": 10, "runtime_ms": 1.5},
        {"eps": 0.5, "loss": "exponential", "primal": 1.0, "dual": 1.0,
         "gap": 0.0, "iters": 20, "runtime_ms": 2.5},
    ]
    save_sweep_csv(path, rows)
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 3
    assert lines[1].startswith("0,exponential,")


def test_sweep_svg(tmp_path):
    rows = [
        {"eps": e, "loss": "exponential", "primal": v, "dual": v,
         "gap": 0.0, "iters": 1, "runtime_ms": 0.0}
        for e, v in [(0.0, 0.0), (0.3, 0.4), (0.6, 1.0)]
    ]
    text = sweep_svg(rows)
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "polyline" in text
    path = str(tmp_path / "sweep.svg")
    save_sweep_svg(path, rows)
    assert open(path).read() == text
