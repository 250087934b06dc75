import csv
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
from advdual.errors import AdvdualError
from advdual.io import dumps, load_instance, loads, save_instance

from conftest import ROOT
from test_acceptance import _random_instance, _scatter_l2


INSTANCE = os.path.join(ROOT, "instances", "twopoint.json")


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


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda d: {**d, "m0": [v + 5e-10 for v in d["m0"]]}, id="masses"),
    pytest.param(lambda d: {**d, "support_violation": 3e-10, "certificates": {
        "exponential": {**d["certificates"]["exponential"],
                        "primal_value": 0.0, "dual_value": 0.0}}}, id="values"),
])
def test_verify_compares_per_unit_of_a_small_total_mass(tmp_path, capsys, tamper):
    # at a total mass of 8e-10 a stored number 5e-10 or 3e-10 off its
    # recomputation is off by most of the mass: verify compares at 1e-9 per
    # unit of total mass, with no absolute floor
    path, out = str(tmp_path / "tiny.json"), str(tmp_path / "res.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "points": [[0.0], [0.5], [1.0]], "norm": "l2",
                   "epsilon": 0.6, "mass0": [3e-10, 1e-10, 0.0],
                   "mass1": [0.0, 1e-10, 3e-10]}, fh)
    assert main(["solve", path, "--out", out]) == 0
    assert main(["verify", path, out]) == 0
    _write(out, tamper(_read(out)))
    capsys.readouterr()
    assert main(["verify", path, out]) == 4
    assert capsys.readouterr().out.startswith("verify FAILED: ")


def test_verify_nan_coupling_weight(inst, tmp_path, capsys):
    out = str(tmp_path / "res.json")
    main(["solve", inst, "--loss", "all", "--out", out])
    data = _read(out)
    data["couplings"]["class0"][0][2] = float("nan")
    _write(out, data)
    capsys.readouterr()
    assert main(["verify", inst, out]) == 4


def test_the_solve_scores_nothing_twice(inst, tmp_path, monkeypatch):
    # the pipeline scores nothing, and each certificate scores its loss's
    # dual value once: the exponential one is not scored again
    calls = {"dual_objective": 0, "risk": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real = advdual.dualsolve.dual_objective
    for module in (advdual.certify, advdual.dualsolve):
        monkeypatch.setattr(module, "dual_objective", counted("dual_objective", real))
    monkeypatch.setattr(advdual.measures.SourceBalls, "risk",
                        counted("risk", advdual.measures.SourceBalls.risk))
    cli._pipeline(*load_instance(inst), None)
    assert calls == {"dual_objective": 0, "risk": 0}
    assert main(["solve", inst, "--loss", "all", "--out", str(tmp_path / "res.json")]) == 0
    assert calls["dual_objective"] == 4


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


def test_solve_and_verify_judge_at_one_tolerance(tmp_path, capsys, monkeypatch):
    # on the first suite instance, with the field shifted by 0.1 (a gap of
    # about 1e-3 per unit mass): a file solved at --tol 1e-12 fails solve
    # and verify alike, and one solved at a looser --tol verifies at that
    # tolerance
    g, measure = _random_instance(np.random.default_rng(12345))
    path = str(tmp_path / "suite0.json")
    save_instance(path, g.points, g.norm, g.epsilon, measure.mass0,
                  measure.mass1)
    out = str(tmp_path / "res.json")
    with monkeypatch.context() as bent:
        _bend_pipeline(bent)
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
    # a JSON integer no float holds once raised OverflowError out of verify
    pytest.param(lambda d: {**d, "f": [10**400] + d["f"][1:]}, id="huge_integer_in_f"),
    pytest.param(lambda d: {**d, "certificates": {**d["certificates"], "exponential": {
        **d["certificates"]["exponential"], "gap": 10**400}}}, id="huge_integer_gap"),
    pytest.param(lambda d: {**d, "provenance": {**d["provenance"], "tol": 10**400}},
                 id="huge_integer_tol"),
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


def test_sweep_runtime_is_the_pipeline_clock(inst, tmp_path, monkeypatch):
    # every epsilon solves in one lockstep primal: a row's runtime_ms is the
    # epsilon's even share of that primal's clock plus its own dual's
    ticks = iter([0.0, 0.6, 1.0, 1.25, 2.0, 2.5])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    stem = str(tmp_path / "sw")
    assert main(["sweep", inst, "--eps", "0.3,0.6", "--out", stem]) == 0
    assert next(ticks, None) is None
    with open(stem + ".csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["runtime_ms"] for row in rows] == ["550"] * 4 + ["800"] * 4


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


def test_sweep_bad_eps(inst, monkeypatch, capsys):
    # the grid is checked before the instance is read
    calls = []
    monkeypatch.setattr(cli.adio, "load_instance", lambda *a: calls.append(a))
    assert main(["sweep", inst, "--eps", "0.1,zebra"]) == 2
    assert main(["sweep", inst, "--eps", ","]) == 2
    assert calls == []


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


@pytest.mark.parametrize("norm, value", [("l1", "1.081566596207254"),
                                         ("l2", "1.001111719249542"),
                                         ("linf", "0.97048230909400646")])
def test_winf_on_the_scatter_instances(norm, value, tmp_path, capsys):
    # the bench's 400-point scatter at epsilon 0.3 under each norm: winf
    # prints the spectrum value that the transport linear program gives
    g, measure = _scatter_l2(400)
    path = str(tmp_path / f"scatter_{norm}.json")
    save_instance(path, g.points, norm, g.epsilon, measure.mass0, measure.mass1)
    assert main(["winf", path]) == 0
    assert capsys.readouterr().out == f"winf={value}\n"


def test_attack_triples(inst, capsys):
    assert main(["attack", inst]) == 0
    out = capsys.readouterr().out
    assert "class0 0 -> 2 mass 0.5" in out
    assert "class1 1 -> 2 mass 0.5" in out


def test_attack_prints_every_loss_gap(inst, capsys):
    assert main(["attack", inst]) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = [line for line in lines if ": gap=" in line]
    assert [line.split(":")[0] for line in gaps] == ["exp", "logistic", "hinge", "zero-one"]
    assert all(abs(float(line.split("=")[1])) <= 1e-4 for line in gaps)


def test_attack_out_is_the_all_loss_solve_result(inst, tmp_path, capsys):
    # attack --out writes the file that solve --loss all writes, runtime
    # aside, and verify accepts it
    attack, solve = str(tmp_path / "attack.json"), str(tmp_path / "solve.json")
    assert main(["attack", inst, "--out", attack]) == 0
    assert main(["solve", inst, "--loss", "all", "--out", solve]) == 0
    texts = []
    for path in (attack, solve):
        with open(path, encoding="utf-8") as fh:
            texts.append(re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', fh.read()))
    assert texts[0] == texts[1]
    assert main(["verify", inst, attack]) == 0


@pytest.mark.parametrize("argv", [["solve"], ["sweep", "--eps", "0.3"], ["attack"]],
                         ids=["solve", "sweep", "attack"])
def test_unwritable_out_exits_2(inst, tmp_path, argv, monkeypatch, capsys):
    # an output file in a directory that does not exist is a usage error,
    # like an input file that cannot be read, not an uncertified solve; it
    # is found before any solve, and nothing is created
    calls = []
    for name in ("solve_exp_primal", "solve_exp_primals"):
        monkeypatch.setattr(cli, name, lambda *a: calls.append(a))
    out = str(tmp_path / "no" / "such" / "r.json")
    assert main([argv[0], inst, *argv[1:], "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert calls == []
    assert not os.path.exists(tmp_path / "no")


def test_sweep_checks_every_output_before_solving(inst, tmp_path, monkeypatch, capsys):
    # --format both writes a .csv and an .svg; a directory in the place of
    # the .svg stops the sweep before it solves, and no .csv is written
    calls = []
    monkeypatch.setattr(cli, "solve_exp_primals", lambda *a: calls.append(a))
    stem = str(tmp_path / "sw")
    os.mkdir(stem + ".svg")
    assert main(["sweep", inst, "--eps", "0.3", "--format", "both", "--out", stem]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {stem}.svg")
    assert calls == []
    assert not os.path.exists(stem + ".csv")


def test_parser_is_built_once_and_survives_a_usage_error(inst, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["solve", inst, "--tol", "-1"])
    assert exc.value.code == 2
    out = str(tmp_path / "r.json")
    assert main(["solve", inst, "--out", out]) == 0
    assert _read(out)["provenance"]["tol"] is None


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


def test_sweep_writes_nan_rows_where_a_dual_fails(inst, tmp_path, monkeypatch, capsys):
    # every epsilon's primal is solved at once; an error of one epsilon's
    # dual marks its rows NaN and exits 3, and the other epsilon is written
    real = cli.solve_dual

    def solve_dual(g, *args):
        if g.epsilon == 0.6:
            raise AdvdualError("the level flows failed")
        return real(g, *args)

    monkeypatch.setattr(cli, "solve_dual", solve_dual)
    stem = str(tmp_path / "sw")
    assert main(["sweep", inst, "--eps", "0.3,0.6", "--out", stem]) == 3
    assert "eps=0.6 failed: the level flows failed" in capsys.readouterr().err
    with open(stem + ".csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["eps"]) for row in rows] == [0.3] * 4 + [0.6] * 4
    assert all(row["gap"] != "nan" for row in rows[:4])
    assert all(row["gap"] == "nan" and row["runtime_ms"] == "0" for row in rows[4:])


def test_solve_exits_3_when_no_cut_program_solves(inst, tmp_path, monkeypatch, capsys):
    # an error of the solve itself, here of the min-cut programs of the
    # level flows, is exit 3, and no result file is written
    def solve_dual(*args):
        raise AdvdualError("the level flows failed")

    monkeypatch.setattr(cli, "solve_dual", solve_dual)
    out = str(tmp_path / "r.json")
    assert main(["solve", inst, "--out", out]) == 3
    assert "the level flows failed" in capsys.readouterr().err
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


def _bench_tracer():
    """bench/spans.py's ``Tracer``, installed on the package."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    tracer = Tracer()
    tracer.install(types.SimpleNamespace(
        cli=cli, **{name: importlib.import_module(f"advdual.{name}")
                    for name in ("io", "primalsolve", "certify")}))
    return tracer


def test_benchmark_patch_names_resolve(inst, tmp_path):
    # bench/spans.py wraps these module attributes by name; each must exist
    # and the solve path must go through them
    tracer = _bench_tracer()
    out = str(tmp_path / "r.json")
    try:
        code = main(["solve", inst, "--loss", "all", "--out", out])
        solved = len(tracer.spans)
        verify_code = main(["verify", inst, out])
    finally:
        tracer.restore()
    assert code == verify_code == 0
    names = {s.name for s in tracer.spans[:solved]}
    assert {"cli.solve", "cli.pipeline", "primalsolve.solve", "dualsolve.solve",
            "certify.universality", "certify.certify", "io.load_instance",
            "io.save_result", "ground.build_ground"} <= names
    names = {s.name for s in tracer.spans[solved:]}
    assert {"cli.verify", "io.load_instance", "io.load_result",
            "certify.universality", "certify.certify"} <= names
    assert cli._pipeline.__module__ == "advdual.cli"
    assert cli._COMMANDS["solve"] is cli.cmd_solve


def test_benchmark_tracer_wraps_a_sweep(inst, tmp_path):
    # the sweep solves every epsilon's primal in one lockstep call, which
    # the tracer does not wrap, but its command, duals and certificates
    # still run through the names it wraps
    tracer = _bench_tracer()
    try:
        code = main(["sweep", inst, "--eps", "0,0.3,0.6", "--out", str(tmp_path / "sw")])
    finally:
        tracer.restore()
    assert code == 0
    names = [s.name for s in tracer.spans]
    assert {"cli.sweep", "dualsolve.solve", "certify.universality"} <= set(names)
    assert names.count("dualsolve.solve") == names.count("certify.universality") == 3


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
    ("epsilon", True),
    ("epsilon", "0.6"),
    ("mass0", [True, False]),
    ("mass1", ["0", "0.5"]),
    ("points", [[False], [True]]),
    ("points", [["0"], ["1"]]),
    ("epsilon", 10**400),
    ("points", [[0.0], [10**400]]),
    ("mass0", [10**400, 0.0]),
    ("refinement", 10**400),
    ("refinement", 10**6),
], ids=["word-epsilon", "ragged-points", "word-refinement", "negative-epsilon",
        "nan-epsilon", "infinite-coordinate", "fractional-refinement",
        "boolean-refinement", "string-refinement", "boolean-epsilon", "string-epsilon",
        "boolean-mass", "string-mass", "boolean-coordinate", "string-coordinate",
        "huge-epsilon", "huge-coordinate", "huge-mass", "huge-refinement",
        "million-refinement"])
def test_malformed_instance_field_exits_2(inst, field, value, capsys):
    with open(inst) as fh:
        data = json.load(fh)
    data[field] = value
    with open(inst, "w") as fh:
        json.dump(data, fh)
    assert main(["solve", inst]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_integer_past_the_conversion_limit_exits_2(inst, tmp_path, capsys):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # plain ValueError: a parse error (exit 2) in an instance and in a
    # result alike
    out = str(tmp_path / "res.json")
    assert main(["solve", inst, "--out", out]) == 0
    huge = str(tmp_path / "huge.json")
    for path, target in ((inst, huge), (out, out)):
        with open(path) as fh:
            text = fh.read()
        with open(target, "w") as fh:
            fh.write(text.replace("{", '{"pad": 1' + "0" * 5000 + ", ", 1))
    capsys.readouterr()
    assert main(["solve", huge]) == 2
    assert main(["verify", inst, out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: invalid JSON") for line in err)


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


def test_solve_and_winf_leave_scipy_optimize_out(tmp_path):
    # every flow, of the solve and of winf, runs on scipy's max-flow: no
    # command imports scipy.optimize and its linear programming solvers
    src = os.path.dirname(os.path.dirname(advdual.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = str(tmp_path / "res.json")
    script = ("import sys, advdual.cli as c; "
              f"codes = [c.main(['solve', {INSTANCE!r}, '--loss', 'all', '--out', {out!r}]), "
              f"c.main(['winf', {INSTANCE!r}])]; "
              "print(codes, 'scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_package_exports_resolve():
    missing = [name for name in advdual.__all__ if not hasattr(advdual, name)]
    assert not missing


def test_readme_library_example_runs(capsys):
    # the README's python block, run as written: its last line prints the
    # uncertified losses, none
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "[]"
