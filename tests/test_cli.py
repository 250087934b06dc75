import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import advdual
from advdual.cli import main
from advdual.io import load_result, save_instance, save_result

from test_acceptance import _random_instance


INSTANCE = "instances/twopoint.json"


@pytest.fixture()
def inst(tmp_path):
    path = str(tmp_path / "twopoint.json")
    shutil.copy(INSTANCE, path)
    return path


def test_solve_exit_zero(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    assert main(["solve", inst, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "exp" in text and f"result written to {out}" in text
    result = load_result(out)
    assert result["certificates"]["exponential"]["gap"] <= 1e-4
    assert len(result["f"]) == 3


def test_solve_all_losses(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    assert main(["solve", inst, "--loss", "all", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "DIAGNOSTIC" in text
    result = load_result(out)
    kinds = set(result["certificates"])
    assert {"exponential", "logistic", "hinge", "zero_one_dual"} <= kinds


def test_solve_deterministic_bytes(inst, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["solve", inst, "--out", a])
    main(["solve", inst, "--out", b])
    ra, rb = open(a).read(), open(b).read()
    # runtime differs between runs; everything else must match byte-for-byte
    da, db = json.loads(ra), json.loads(rb)
    da["provenance"].pop("runtime_ms")
    db["provenance"].pop("runtime_ms")
    assert da == db


def test_verify_ok(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    capsys.readouterr()
    assert main(["verify", inst, out]) == 0
    assert "FAILED" not in capsys.readouterr().out


def test_verify_tampered_result(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    data = load_result(out)
    data["eta_hat"][2] = 0.9  # no longer matches the stored certificates
    save_result(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert "FAILED" in capsys.readouterr().out


def test_verify_tampered_field(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    data = load_result(out)
    data["f"] = [3.0, 0.0, -5.0]  # eta_hat and the certificates left as solved
    save_result(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert "FAILED" in capsys.readouterr().out


def test_verify_tampered_masses(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    data = load_result(out)
    data["m0"] = [0.0, 0.1, 0.4]  # no longer the class-0 coupling's pushforward
    save_result(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert "pushforward" in capsys.readouterr().out


def test_verify_nan_mass(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--loss", "all", "--out", out])
    for key in ("m0", "m1"):
        data = load_result(out)
        data[key][0] = float("nan")  # written as "nan", read back as NaN
        bad = str(tmp_path / f"bad_{key}.json")
        save_result(bad, data)
        capsys.readouterr()
        assert main(["verify", inst, bad]) == 4, key
        assert "pushforward" in capsys.readouterr().out, key


def test_verify_nan_coupling_weight(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--loss", "all", "--out", out])
    data = load_result(out)
    data["couplings"]["class0"][0][2] = float("nan")
    save_result(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4


def test_solve_all_losses_default_tol_suite_instance(tmp_path, capsys):
    # instance 2 of the acceptance suite needs the pipeline run at the
    # exponential tolerance: at 1e-3 its exponential gap misses the 1e-4 it
    # is judged at
    rng = np.random.default_rng(12345)
    for _ in range(3):
        g, measure = _random_instance(rng)
    path = str(tmp_path / "suite2.json")
    save_instance(path, g.points, g.norm, g.epsilon, measure.mass0,
                  measure.mass1)
    out = str(tmp_path / "res.json")
    assert main(["solve", path, "--loss", "all", "--out", out]) == 0
    assert main(["verify", path, out]) == 0


def test_verify_tampered_certificate(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    for value in (0.25, float("nan")):
        data = load_result(out)
        data["certificates"]["exponential"]["gap"] = value
        bad = str(tmp_path / "bad.json")
        save_result(bad, data)
        capsys.readouterr()
        assert main(["verify", inst, bad]) == 4, value


def test_verify_tampered_flags(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    for key, value in (("winf_ok", [False, True]), ("diagnostic", True)):
        data = load_result(out)
        data["certificates"]["exponential"][key] = value
        bad = str(tmp_path / f"bad_{key}.json")
        save_result(bad, data)
        capsys.readouterr()
        assert main(["verify", inst, bad]) == 4, key


def test_verify_wrong_instance(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    other = str(tmp_path / "other.json")
    data = json.load(open(inst))
    data["epsilon"] = 0.2
    json.dump(data, open(other, "w"))
    capsys.readouterr()
    assert main(["verify", other, out]) == 4


def test_sweep_csv_and_svg(inst, tmp_path, capsys):
    stem = str(tmp_path / "sw")
    code = main(["sweep", inst, "--eps", "0,0.3,0.6", "--format", "both",
                 "--out", stem])
    assert code == 0
    lines = open(stem + ".csv").read().splitlines()
    assert lines[0] == "eps,loss,primal,dual,gap,iters,runtime_ms"
    # all four losses at three epsilon values
    assert len(lines) == 1 + 3 * 4
    assert "<svg" in open(stem + ".svg").read()


def test_sweep_duplicate_eps_warns(inst, tmp_path, capsys):
    stem = str(tmp_path / "sw")
    assert main(["sweep", inst, "--eps", "0.3,0.3", "--out", stem,
                 "--loss", "exp"]) == 0
    assert "duplicate" in capsys.readouterr().err


def test_sweep_bad_eps(inst, capsys):
    assert main(["sweep", inst, "--eps", "0.1,zebra"]) == 2
    assert main(["sweep", inst, "--eps", ","]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps", "0.3", "--format", "json"],  # would write no file
    ["solve", "--format", "json"],
    ["solve", "--seed", "1"],
    ["sweep", "--eps", "0.3", "--seed", "1"],
    ["attack", "--loss", "exp"],
    ["attack", "--seed", "1"],
    ["winf", "--tol", "1e-3"],
    ["verify", "res.json", "--loss", "exp"],
    ["oracle", "--out", "x.json"],
])
def test_unread_flags_rejected(inst, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], inst, *argv[1:]])
    assert exc.value.code == 2


def test_sweep_refined_instance_runs_clean(tmp_path):
    # the 15th draw of a seeded family of refined 1-D sweeps: a networkx
    # max-flow on its certificates raises ValueError under some string-hash
    # seeds, so the sweep must not run one
    rng = np.random.default_rng(10)
    for _ in range(15):
        pts = rng.uniform(0.0, 2.0, (12, 1))
        m0 = rng.uniform(0.0, 1.0, 12) * (rng.uniform(size=12) < 0.7)
        m1 = rng.uniform(0.0, 1.0, 12) * (rng.uniform(size=12) < 0.7)
        if m0.sum() == 0.0:
            m0[0] = 0.5
        if m1.sum() == 0.0:
            m1[-1] = 0.5
        tot = m0.sum() + m1.sum()
    path = str(tmp_path / "draw15.json")
    save_instance(path, pts, "l2", 0.6, m0 / tot, m1 / tot, refinement=1)
    stem = str(tmp_path / "sw")
    src = os.path.dirname(os.path.dirname(advdual.__file__))
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "advdual.cli", "sweep", path,
         "--eps", "0,0.1,0.2,0.3,0.4,0.5,0.6", "--out", stem],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = open(stem + ".csv").read().splitlines()[1:]
    assert len(rows) == 7 * 4
    assert not any("nan" in row for row in rows)


def test_winf(inst, capsys):
    assert main(["winf", inst]) == 0
    out = capsys.readouterr().out
    assert out.startswith("winf=")
    assert float(out.split("=")[1]) == pytest.approx(1.0)


def test_attack_triples(inst, capsys):
    assert main(["attack", inst]) == 0
    out = capsys.readouterr().out
    assert "class0 0 -> 2 mass 0.5" in out
    assert "class1 1 -> 2 mass 0.5" in out


def test_oracle(inst, capsys):
    assert main(["oracle", inst, "--loss", "exp"]) == 0
    out = capsys.readouterr().out
    assert "exp" in out


def test_missing_instance_file(capsys):
    assert main(["solve", "no/such/file.json"]) == 2


def test_broken_json(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    open(path, "w").write("{nope")
    assert main(["solve", path]) == 2


def test_package_exports_resolve():
    missing = [name for name in advdual.__all__ if not hasattr(advdual, name)]
    assert not missing
