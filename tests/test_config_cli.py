import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import wedgeqft as wq
from wedgeqft.cli import main, resolve_config_path
from wedgeqft.config import load_config
from wedgeqft.errors import ConfigError

MINIMAL = """
[model]
name = demo
epsilon = -1
mass = 1.0
zeros = 0.0, {imag}
"""


def write(tmp_path, text, name="model.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_catalogue_configs():
    for name in ("free", "ising", "shg-b050", "resonance-pi4"):
        cfg = load_config(resolve_config_path(f"catalogue:{name}"))
        assert cfg.model_name in (name, name.replace(".cfg", ""))
        assert cfg.grid.count >= 7


def test_catalogue_models_match_expectations():
    shg = load_config(resolve_config_path("catalogue:shg-b050")).model
    assert shg.epsilon == -1
    assert abs(shg.zeros[0] - 1j * math.pi / 2) < 1e-12
    res = load_config(resolve_config_path("catalogue:resonance-pi4")).model
    assert res.epsilon == -1                     # fermionic subfamily
    assert abs(wq.kappa(res) - math.pi / 4) < 1e-12


def test_minimal_config(tmp_path):
    p = write(tmp_path, MINIMAL.format(imag=math.pi / 2))
    cfg = load_config(str(p))
    assert cfg.model.epsilon == -1
    assert len(cfg.model.zeros) == 1
    assert cfg.grid.count == 41                  # defaults apply


def test_line_anchored_errors(tmp_path):
    bad = "[model]\nepsilon = -1\nmass = oops\n"
    p = write(tmp_path, bad)
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 3
    assert str(p) in str(err.value)

    bad = "[model]\nepsilon = -1\n[grid]\ncount = 40\n"
    p = write(tmp_path, bad, "bad2.cfg")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 4

    bad = "[model]\nepsilon = -1\nnonsense_key = 3\n"
    p = write(tmp_path, bad, "bad3.cfg")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 3

    bad = "[mystery]\nx = 1\n"
    p = write(tmp_path, bad, "bad4.cfg")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 1

    bad = "[model]\nepsilon = -1\nzeros = 0.0\n"
    p = write(tmp_path, bad, "bad5.cfg")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 3

    # counts that would run a suite on no evidence or crash inside it
    for sec, entry in [("nuclearity", "steps = 0"), ("partition", "steps = 0"),
                       ("algebra", "trials = 0"), ("smatrix", "trials = 0"),
                       ("locality", "spectators = 0"),
                       ("nuclearity", "nodes = 0"), ("locality", "order = 7"),
                       ("smatrix", "n_values = 0"),
                       ("smatrix", "n_values = 2, 2.5"),
                       ("smatrix", "n_values = 7"),
                       ("algebra", "grid_count = 20"),
                       ("locality", "grid_count = 1")]:
        p = write(tmp_path, f"[model]\nepsilon = -1\n[{sec}]\n{entry}\n",
                  "bad6.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.line == 4, entry
        assert str(p) in str(err.value)
    # the smallest accepted values
    p = write(tmp_path, "[model]\nepsilon = -1\n[locality]\norder = 8\n"
                        "grid_count = 3\n[smatrix]\nn_values = 1, 6\n", "ok.cfg")
    assert load_config(str(p)).smatrix.n_values == (1, 6)


def test_unmatched_zero_rejected_without_mirroring(tmp_path):
    text = ("[model]\nepsilon = -1\nzeros = 0.4, 0.3\nauto_mirror = false\n")
    p = write(tmp_path, text)
    with pytest.raises(ConfigError):
        load_config(str(p))
    # with auto-mirroring the same config is fine
    text = "[model]\nepsilon = -1\nzeros = 0.4, 0.3\nauto_mirror = true\n"
    p = write(tmp_path, text, "ok.cfg")
    cfg = load_config(str(p))
    assert len(cfg.model.zeros) == 2


def test_overrides(tmp_path):
    p = write(tmp_path, MINIMAL.format(imag=math.pi / 2))
    cfg = load_config(str(p), overrides=["algebra.tol=1e-10", "grid.count=9"])
    assert cfg.algebra.tol == 1e-10
    assert cfg.grid.count == 9
    with pytest.raises(ConfigError):
        load_config(str(p), overrides=["no_dots"])


def test_cli_schema(capsys):
    assert main(["verify-scattering", "--schema"]) == 0
    out = capsys.readouterr().out
    schema = json.loads(out)
    assert "smatrix" in schema


def test_python_m_entry_point_schema():
    src = str(pathlib.Path(wq.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "wedgeqft", "--schema"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verify-locality" in json.loads(proc.stdout)


# each suite on the cheapest catalogue model it applies to, plus a
# fermionic model for the curve, whose log_bound_minus column is
# fermionic-only; the overrides only shrink the work
SCHEMA_CASES = [("verify-scattering", "free"), ("verify-algebra", "free"),
                ("verify-locality", "free"), ("smatrix", "free"),
                ("nuclearity-curve", "free"), ("nuclearity-curve", "ising"),
                ("find-smin", "shg-b050"), ("free-bose", "free"),
                ("ising-fermi", "ising"), ("partition", "ising")]
SCHEMA_OVERRIDES = ["nuclearity.steps=2", "nuclearity.nodes=100",
                    "partition.steps=2", "algebra.trials=1",
                    "smatrix.trials=1", "smatrix.n_values=2",
                    "locality.order=256", "locality.grid_count=11",
                    "locality.spectators=1"]


def test_schema_cases_cover_every_suite():
    from wedgeqft.suites import SUITES
    assert {name for name, _ in SCHEMA_CASES} == set(SUITES)


@pytest.mark.parametrize("name,model", SCHEMA_CASES)
def test_schema_documents_emitted_columns(name, model, capsys):
    from wedgeqft.cli import run_suites
    assert main([name, "--schema"]) == 0
    documented = set(json.loads(capsys.readouterr().out)[name])
    cfg = load_config(resolve_config_path(f"catalogue:{model}"),
                      overrides=SCHEMA_OVERRIDES)
    if cfg.model.epsilon == +1:
        documented.discard("log_bound_minus")
    rows = run_suites(cfg, [name], 0)[name].rows
    assert rows
    for row in rows:
        assert set(row) == documented


def test_cli_missing_config_exit2(tmp_path, capsys):
    code = main(["verify-scattering", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["kind"] == "config"


def test_cli_pass_and_artifacts(tmp_path, capsys):
    code = main(["verify-scattering", "--config", "catalogue:ising",
                 "--out", str(tmp_path / "out"), "--format", "csv"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["seed"] == 0xD15EA5E
    assert (tmp_path / "out" / "verify-scattering.csv").exists()
    assert (tmp_path / "out" / "timings.json").exists()
    # runtimes are deliberately outside the canonical report
    assert "runtime" not in json.dumps(report)


def test_cli_corrupt_model_fails_suite(tmp_path, capsys):
    text = ("[model]\nepsilon = 1\nzeros = 0.4, 0.3; -0.4, 0.3\n"
            "auto_mirror = false\n")
    p = write(tmp_path, text)
    code = main(["verify-scattering", "--config", str(p),
                 "--out", str(tmp_path / "out")])
    assert code == 0      # properly mirrored pair passes

    text = ("[model]\nepsilon = 1\nzeros = 0.4, 0.3; 0.5, 0.2\n"
            "auto_mirror = true\n")
    p2 = write(tmp_path, text, "c2.cfg")
    code = main(["verify-scattering", "--config", str(p2),
                 "--out", str(tmp_path / "out2")])
    assert code == 0      # auto-mirroring repairs the list

    # the rejection path: unpaired zero without mirroring is a config error
    text = ("[model]\nepsilon = 1\nzeros = 0.4, 0.3\nauto_mirror = false\n")
    p3 = write(tmp_path, text, "c3.cfg")
    assert main(["verify-scattering", "--config", str(p3),
                 "--out", str(tmp_path / "out3")]) == 2

    # the negative-control path: the escape hatch builds the broken model
    # and the relation suite fails with residuals reported
    text = ("[model]\nepsilon = 1\nzeros = 0.4, 0.3\nallow_unpaired = true\n")
    p4 = write(tmp_path, text, "c4.cfg")
    code = main(["verify-scattering", "--config", str(p4),
                 "--out", str(tmp_path / "out4")])
    assert code == 1
    report = json.loads((tmp_path / "out4" / "report.json").read_text())
    assert report["suites"]["verify-scattering"]["summary"]["unitarity"] > 1e-12
    capsys.readouterr()


def test_cli_config_error_in_suite_exit2(tmp_path, capsys):
    # the test-function lookup happens inside the suite
    code = main(["verify-locality", "--config", "catalogue:free",
                 "--out", str(tmp_path / "out"),
                 "--tol-override", "locality.f=nope"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "config"
    assert "nope" in err["message"]


def test_cli_shortcut_flags_reach_config(tmp_path, capsys):
    code = main(["verify-scattering", "--config", "catalogue:free",
                 "--out", str(tmp_path / "out"), "--s-min", "0.7",
                 "--s-max", "3.5", "--steps", "4", "--beta", "0.25",
                 "--r", "2"])
    assert code == 0
    echo = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert {k: echo["nuclearity"][k] for k in ("s_min", "s_max", "steps")} == {
        "s_min": "0.7", "s_max": "3.5", "steps": "4"}
    # --beta pins the partition curve to one point, after --steps
    assert {k: echo["partition"][k]
            for k in ("beta_min", "beta_max", "steps", "r")} == {
        "beta_min": "0.25", "beta_max": "0.25", "steps": "1", "r": "2.0"}
    capsys.readouterr()


def test_cli_nonconvergence_exit3(tmp_path, capsys, monkeypatch):
    from wedgeqft.suites import SUITES, Suite, SuiteResult

    def stub(cfg, rng):
        return SuiteResult(True, {"note": "stub"}, nonconverged=True)

    monkeypatch.setitem(SUITES, "verify-scattering", Suite(stub, {}))
    p = write(tmp_path, MINIMAL.format(imag=math.pi / 2))
    code = main(["verify-scattering", "--config", str(p),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    capsys.readouterr()


def test_cli_suite_failure_exit1(tmp_path, capsys, monkeypatch):
    # force a failure by tightening a tolerance far below reachable
    wedge_pair = ("[testfunction.f]\nkind = bump\nbox = -0.2, 0.22, 0.5, 1.2\n"
                  "[testfunction.g]\nkind = bump\n"
                  "box = -0.18, 0.21, -1.25, -0.55\n")
    p = write(tmp_path, MINIMAL.format(imag=math.pi / 3) + wedge_pair)
    code = main(["verify-locality", "--config", str(p),
                 "--out", str(tmp_path / "out"),
                 "--tol-override", "locality.contour_tol=1e-30"])
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    summary = report["suites"]["verify-locality"]["summary"]
    assert summary["max_contour_relative"] > 1e-30
    capsys.readouterr()


def test_cli_determinism(tmp_path, capsys):
    args = ["verify-scattering", "--config", "catalogue:shg-b050"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    capsys.readouterr()


def test_cli_config_path_recorded_as_given(tmp_path, capsys):
    # a catalogue config is named, not located: report bytes must not
    # depend on where the package is installed
    assert main(["verify-scattering", "--config", "catalogue:free",
                 "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["config_path"] == "catalogue:free"
    p = write(tmp_path, "[model]\nepsilon = 1\n")
    assert main(["verify-scattering", "--config", str(p),
                 "--out", str(tmp_path / "b")]) == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["config_path"] == str(p)
    capsys.readouterr()


def test_cli_seed_recorded(tmp_path, capsys):
    code = main(["smatrix", "--config", "catalogue:free",
                 "--out", str(tmp_path / "out"), "--seed", "0x1234"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 0x1234
    capsys.readouterr()
