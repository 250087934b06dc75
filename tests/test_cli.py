import dataclasses
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import advdual
from advdual import cli
from advdual.cli import main
from advdual.io import dumps, loads, save_instance

from test_acceptance import _random_instance


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCE = "instances/twopoint.json"


def _read(path):
    """A result file's JSON object, as written."""
    with open(path) as fh:
        return loads(fh.read())


def _write(path, data):
    with open(path, "w") as fh:
        fh.write(dumps(data))


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
    result = _read(out)
    assert result["certificates"]["exponential"]["gap"] <= 1e-4
    assert len(result["f"]) == 3


def test_solve_all_losses(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    assert main(["solve", inst, "--loss", "all", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "zero-one: primal=" in text
    result = _read(out)
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
    data = _read(out)
    data["support_violation"] = 0.5  # no longer what the witness gives
    _write(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert "FAILED" in capsys.readouterr().out


def test_verify_tampered_field(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    data = _read(out)
    data["f"] = [3.0, 0.0, -5.0]  # the certificates left as solved
    _write(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert "FAILED" in capsys.readouterr().out


def test_verify_tampered_masses(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    data = _read(out)
    data["m0"] = [0.0, 0.1, 0.4]  # no longer the class-0 coupling's pushforward
    _write(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert "pushforward" in capsys.readouterr().out


def test_verify_nan_mass(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--loss", "all", "--out", out])
    for key in ("m0", "m1"):
        data = _read(out)
        data[key][0] = float("nan")  # written as "nan", read back as NaN
        bad = str(tmp_path / f"bad_{key}.json")
        _write(bad, data)
        capsys.readouterr()
        assert main(["verify", inst, bad]) == 4, key
        assert "pushforward" in capsys.readouterr().out, key


def test_verify_nan_coupling_weight(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--loss", "all", "--out", out])
    data = _read(out)
    data["couplings"]["class0"][0][2] = float("nan")
    _write(out, data)
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


@pytest.mark.parametrize("scale", [100.0, 0.01])
def test_verdict_does_not_depend_on_mass_scale(scale, tmp_path, capsys):
    # the first 8 suite draws with both masses scaled: judged at an absolute
    # gap, 5 of them exited 3 at scale 100
    rng = np.random.default_rng(12345)
    for k in range(8):
        g, measure = _random_instance(rng)
        path, out = str(tmp_path / f"suite{k}.json"), str(tmp_path / f"res{k}.json")
        save_instance(path, g.points, g.norm, g.epsilon, scale * measure.mass0,
                      scale * measure.mass1)
        assert main(["solve", path, "--loss", "all", "--out", out]) == 0, k
        assert main(["verify", path, out]) == 0, k


def test_solve_and_verify_judge_at_one_tolerance(tmp_path, capsys):
    # the first suite instance certifies its exponential gap at about
    # 1.5e-5: a file solved at --tol 1e-12 fails solve and verify alike, and
    # one solved at a looser --tol verifies at that tolerance
    g, measure = _random_instance(np.random.default_rng(12345))
    path = str(tmp_path / "suite0.json")
    save_instance(path, g.points, g.norm, g.epsilon, measure.mass0,
                  measure.mass1)
    out = str(tmp_path / "res.json")
    assert main(["solve", path, "--loss", "all", "--tol", "1e-12", "--out", out]) == 3
    assert _read(out)["provenance"]["tol"] == 1e-12
    capsys.readouterr()
    assert main(["verify", path, out]) == 4
    assert "exponential.gap" in capsys.readouterr().out
    assert main(["solve", path, "--tol", "0.5", "--out", out]) == 0
    assert main(["verify", path, out]) == 0
    assert main(["solve", path, "--out", out]) == 0
    assert _read(out)["provenance"]["tol"] is None
    assert main(["verify", path, out]) == 0


def test_verify_tampered_certificate(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    for value in (0.25, float("nan")):
        data = _read(out)
        data["certificates"]["exponential"]["gap"] = value
        bad = str(tmp_path / "bad.json")
        _write(bad, data)
        capsys.readouterr()
        assert main(["verify", inst, bad]) == 4, value


def test_verify_unknown_certificate_entry(inst, tmp_path, capsys):
    # an entry under a name that is no loss once raised ValueError
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    # None: the exponential entry, stored under another loss's name
    for name, entry in (("brier", {}), ("exp", {}), ("logistic", 0.5), ("hinge", None)):
        data = _read(out)
        data["certificates"][name] = (data["certificates"]["exponential"]
                                      if entry is None else entry)
        _write(out + ".bad", data)
        capsys.readouterr()
        assert main(["verify", inst, out + ".bad"]) == 4, name
        assert "unknown or malformed certificate entry" in capsys.readouterr().out


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda d: {**d, "f": ["word"] + d["f"][1:]}, id="word_in_f"),
    pytest.param(lambda d: {**d, "couplings": {"class0": [d["couplings"]["class0"][0][:2]],
                                               "class1": d["couplings"]["class1"]}},
                 id="two_entry_triple"),
    # once read as index 0
    pytest.param(lambda d: {**d, "couplings": {"class0": [[0.5, 2, 0.5]],
                                               "class1": d["couplings"]["class1"]}},
                 id="fractional_index"),
    pytest.param(lambda d: {**d, "certificates": list(d["certificates"].values())},
                 id="certificate_list"),
    pytest.param(lambda d: {**d, "provenance": "solved"}, id="provenance_string"),
    pytest.param(lambda d: {**d, "certificates": {}}, id="no_certificates"),
    *(pytest.param(lambda d, tol=tol: {**d, "provenance": {**d["provenance"], "tol": tol}},
                   id=f"tol_{tol}")
      for tol in (True, 0, -1.0, float("inf"), float("nan"), "1e-3")),
    pytest.param(lambda d: [d], id="top_level_list"),
])
def test_verify_malformed_result(inst, tmp_path, capsys, tamper):
    # a malformed result is one verify rejects, not a traceback or exit 2
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    _write(out, tamper(_read(out)))
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert capsys.readouterr().out.startswith("verify FAILED: ")


def test_verify_tampered_flags(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--out", out])
    # a stored key the certificate does not have fails too: older result
    # files carry "diagnostic", "winf_ok" and "support_violation" per entry
    for key, value in (("winf_ok", [False, True]), ("winf_ok", [True, True]),
                       ("diagnostic", True), ("diagnostic", False),
                       ("support_violation", 0.0)):
        data = _read(out)
        data["certificates"]["exponential"][key] = value
        bad = str(tmp_path / f"bad_{key}_{value}.json")
        _write(bad, data)
        capsys.readouterr()
        assert main(["verify", inst, bad]) == 4, key


def test_verify_rejects_older_layout(inst, tmp_path, capsys):
    # the layout written before the witness was stored once: eta_hat, and
    # support_violation and winf_ok in every certificate entry
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--loss", "all", "--out", out])
    data = _read(out)
    data["eta_hat"] = [0.5, 0.5, 0.5]
    support = data.pop("support_violation")
    for entry in data["certificates"].values():
        entry.update(support_violation=support, winf_ok=[True, True])
    _write(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4
    assert capsys.readouterr().out.startswith("verify FAILED: ")


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
    assert lines[0] == "eps,loss,primal,dual,gap,primal_iters,dual_iters,runtime_ms"
    # all four losses at three epsilon values
    assert len(lines) == 1 + 3 * 4
    assert "<svg" in open(stem + ".svg").read()


def test_sweep_out_extension_is_dropped(inst, tmp_path, capsys):
    # --out x.svg (or x.csv) names the stem x, whatever the format
    for name in ("a.csv", "b.svg"):
        assert main(["sweep", inst, "--eps", "0.3", "--loss", "exp", "--format", "both",
                     "--out", str(tmp_path / name)]) == 0
    assert sorted(p.name for p in tmp_path.glob("[ab].*")) == \
        ["a.csv", "a.svg", "b.csv", "b.svg"]


def test_sweep_duplicate_eps_warns(inst, tmp_path, capsys):
    stem = str(tmp_path / "sw")
    assert main(["sweep", inst, "--eps", "0.3,0.3", "--out", stem,
                 "--loss", "exp"]) == 0
    assert "duplicate" in capsys.readouterr().err


def test_sweep_bad_eps(inst, capsys):
    assert main(["sweep", inst, "--eps", "0.1,zebra"]) == 2
    assert main(["sweep", inst, "--eps", ","]) == 2


@pytest.mark.parametrize("grid", ["-0.1,0.3", "nan", "0.3,inf"])
def test_sweep_rejects_eps_outside_range(inst, tmp_path, grid, capsys):
    stem = str(tmp_path / "sw")
    assert main(["sweep", inst, f"--eps={grid}", "--out", stem]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(stem + ".csv")


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
    # --tol takes only a finite number greater than 0
    ["solve", "--tol", "inf"],
    ["solve", "--tol", "-1"],
    ["sweep", "--eps", "0.3", "--tol", "0"],
    ["attack", "--tol", "nan"],
    # --grid-steps takes only an integer >= 1: 0 once raised ZeroDivisionError
    # and -3 ValueError, each a traceback
    ["oracle", "--grid-steps", "0"],
    ["oracle", "--grid-steps", "-3"],
])
def test_unread_flags_rejected(inst, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], inst, *argv[1:]])
    assert exc.value.code == 2


def test_sweep_refined_instance_runs_clean(tmp_path):
    # the 15th draw of a seeded family of refined 1-D sweeps: a max-flow on
    # its certificates once raised ValueError under some string-hash seeds;
    # the sweep must finish every epsilon under any seed
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


def test_attack_out_is_the_exponential_solve_result(inst, tmp_path, capsys):
    # attack --out writes the file that solve --loss exp writes, runtime
    # aside, and verify accepts it
    attack, solve = str(tmp_path / "attack.json"), str(tmp_path / "solve.json")
    assert main(["attack", inst, "--out", attack]) == 0
    assert main(["solve", inst, "--loss", "exp", "--out", solve]) == 0
    texts = []
    for path in (attack, solve):
        with open(path, encoding="utf-8") as fh:
            texts.append(re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', fh.read()))
    assert texts[0] == texts[1]
    assert main(["verify", inst, attack]) == 0


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--eps", "0.3"], ["attack"]],
                         ids=["solve", "sweep", "attack"])
def test_unwritable_out_exits_2(inst, tmp_path, argv, capsys):
    # an output file in a directory that does not exist is a usage error,
    # like an input file that cannot be read, not an uncertified solve
    out = str(tmp_path / "no" / "such" / "r.json")
    assert main([argv[0], inst, *argv[1:], "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


def _bend_pipeline(monkeypatch):
    """Make every solve return its field shifted by 0.1: a sound witness
    whose certificate gap is far above any default tolerance."""
    real = cli.solve_dual

    def solve_dual(*args):
        ds = real(*args)
        return dataclasses.replace(ds, f=ds.f + 0.1)

    monkeypatch.setattr(cli, "solve_dual", solve_dual)


@pytest.mark.parametrize("bend", [_bend_pipeline], ids=["loose-gap"])
def test_attack_exits_3_when_not_certified(inst, monkeypatch, capsys, bend):
    bend(monkeypatch)
    assert main(["attack", inst]) == 3
    assert "not certified" in capsys.readouterr().err


def test_sweep_exits_3_when_not_certified(inst, tmp_path, monkeypatch, capsys):
    _bend_pipeline(monkeypatch)
    stem = str(tmp_path / "sw")
    assert main(["sweep", inst, "--eps", "0.3,0.6", "--out", stem]) == 3
    assert "eps=0.6: exponential gap" in capsys.readouterr().err
    # the rows are still written, with the gaps that failed
    assert len(open(stem + ".csv").read().splitlines()) == 1 + 2 * 4


def test_solve_exits_3_when_no_cut_program_solves(inst, tmp_path, stalled_highs, capsys):
    stalled_highs(10**6)
    out = str(tmp_path / "r.json")
    assert main(["solve", inst, "--out", out]) == 3
    assert "no tangent-cut program" in capsys.readouterr().err
    assert not os.path.exists(out)


def _masses_instance(tmp_path, mass0, mass1) -> str:
    path = str(tmp_path / "masses.json")
    save_instance(path, np.array([[0.0], [1.0]]), "l2", 0.6, np.array(mass0),
                  np.array(mass1))
    return path


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--eps", "0,0.6"], ["attack"]],
                         ids=["solve", "sweep", "attack"])
def test_zero_mass_instance_exits_2(tmp_path, argv, capsys):
    # every verdict is per unit of total mass, which is 0 here
    path = _masses_instance(tmp_path, [0.0, 0.0], [0.0, 0.0])
    out = str(tmp_path / "out")
    assert main([argv[0], path, *argv[1:], "--out", out]) == 2
    assert "no mass" in capsys.readouterr().err
    assert not any(name.startswith("out") for name in os.listdir(tmp_path))


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--eps", "0,0.6"], ["attack"]],
                         ids=["solve", "sweep", "attack"])
def test_one_empty_class_solves(tmp_path, argv):
    path = _masses_instance(tmp_path, [0.0, 0.0], [0.25, 0.5])
    assert main([argv[0], path, *argv[1:], "--out", str(tmp_path / "out")]) == 0


def test_benchmark_patch_names_resolve(inst, tmp_path):
    # bench/spans.py wraps these module attributes by name; each must exist
    # and the solve path must go through them
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    tracer = Tracer()
    tracer.install(types.SimpleNamespace(
        cli=cli, **{name: importlib.import_module(f"advdual.{name}")
                    for name in ("io", "primalsolve", "certify")}))
    try:
        code = main(["solve", inst, "--loss", "all", "--out", str(tmp_path / "r.json")])
    finally:
        tracer.restore()
    assert code == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.solve", "cli.pipeline", "primalsolve.solve", "dualsolve.solve",
            "certify.universality", "certify.certify", "io.load_instance",
            "io.save_result", "ground.build_ground"} <= names
    assert cli._pipeline.__module__ == "advdual.cli"
    assert cli._COMMANDS["solve"] is cli.cmd_solve


def test_oracle(inst, capsys):
    for loss in ("exp", "zero-one"):
        assert main(["oracle", inst, "--loss", loss]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{loss}: brute_dual=") and " brute_primal=" in out


def test_missing_instance_file(capsys):
    assert main(["solve", "no/such/file.json"]) == 2


def test_broken_json(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    open(path, "w").write("{nope")
    assert main(["solve", path]) == 2


@pytest.mark.parametrize("field, value", [
    ("epsilon", "abc"),
    ("points", [[0.0], [1.0, 2.0]]),
    ("refinement", "x"),
    ("epsilon", -0.1),
    ("epsilon", "nan"),
    ("points", [[0.0], ["inf"]]),
    ("refinement", 1.5),
    ("refinement", True),
    ("refinement", "2"),
], ids=["word-epsilon", "ragged-points", "word-refinement", "negative-epsilon",
        "nan-epsilon", "infinite-coordinate", "fractional-refinement",
        "boolean-refinement", "string-refinement"])
def test_malformed_instance_field_exits_2(inst, field, value, capsys):
    with open(inst) as fh:
        data = json.load(fh)
    data[field] = value
    with open(inst, "w") as fh:
        json.dump(data, fh)
    assert main(["solve", inst]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_import_leaves_networkx_out():
    src = os.path.dirname(os.path.dirname(advdual.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, advdual.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_exports_resolve():
    missing = [name for name in advdual.__all__ if not hasattr(advdual, name)]
    assert not missing
