import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import wedgeqft as wq
from wedgeqft.cli import main
from wedgeqft.config import load_config
from wedgeqft.errors import ConfigError, ConvergenceError
from wedgeqft.fields import ORDER_CAP
from wedgeqft.nuclearity import MAX_NODES
from wedgeqft.suites import suites_for_all

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
        cfg = load_config(f"catalogue:{name}")
        assert cfg.model_name in (name, name.replace(".cfg", ""))
        assert cfg.grid.count >= 7
        # every [testfunction.NAME] block is one that verify-locality reads
        assert set(cfg.testfunctions) == {cfg.locality.f, cfg.locality.g}


def test_catalogue_models_match_expectations():
    shg = load_config("catalogue:shg-b050").model
    assert shg.epsilon == -1
    assert abs(shg.zeros[0] - 1j * math.pi / 2) < 1e-12
    res = load_config("catalogue:resonance-pi4").model
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

    # malformed lines
    for bad, line in [("epsilon = -1\n[model]\n", 1),
                      ("[model]\nepsilon = -1\nno equals sign\n", 3),
                      ("[model]\nepsilon = -1\nepsilon = 1\n", 3)]:
        p = write(tmp_path, bad, "bad7.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.line == line, bad

    # counts that would run a suite on no evidence or crash inside it
    for sec, entry in [("nuclearity", "steps = 0"), ("partition", "steps = 0"),
                       ("algebra", "trials = 0"), ("smatrix", "trials = 0"),
                       ("locality", "spectators = 0"),
                       ("nuclearity", "nodes = 0"), ("locality", "order = 7"),
                       ("smatrix", "n_values = 0"),
                       ("smatrix", "n_values = 2, 2.5"),
                       ("smatrix", "n_values = 7"),
                       # no sample at all, and a rank whose separated
                       # blocks no grid within the dense budget holds
                       ("smatrix", "n_values ="),
                       ("smatrix", "n_values = 6"),
                       ("algebra", "grid_count = 20"),
                       ("algebra", "dn_max = 1"),
                       ("algebra", "dn_max = 7"),
                       # two levels for the exchange relations, and Psi
                       # one level above n_max within the rank cap
                       ("grid", "n_max = 1"),
                       ("grid", "n_max = 6"),
                       # counts the default grids cannot hold: rank 5 on
                       # 41 nodes, 3 blocks on 11, and rank 6 or rank 4
                       # beyond the dense budget on the algebra grid
                       ("smatrix", "n_values = 5"),
                       ("grid", "count = 11"),
                       ("algebra", "dn_max = 6"),
                       ("grid", "n_max = 5"),
                       ("algebra", "grid_count = 77"),
                       ("partition", "beta_min = -1"),
                       ("locality", "grid_count = 1"),
                       # a curve of several steps over an empty range
                       ("nuclearity", "s_min = 5"),
                       ("nuclearity", "s_max = 0.5"),
                       ("partition", "beta_min = 2"),
                       ("partition", "beta_max = 0.1"),
                       # kappa outside (0, kappa(S)) = (0, pi/2) here
                       ("nuclearity", "kappa = 2"),
                       ("nuclearity", "kappa = 0"),
                       # bump is the only kind, checked before the keys
                       # that only another kind would have
                       ("testfunction.cov",
                        "kind = gaussian\ncenter = 0.2, -0.3\nsigma = 1.1")]:
        p = write(tmp_path, f"[model]\nepsilon = -1\n[{sec}]\n{entry}\n",
                  "bad6.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.line == 4, entry
        assert str(p) in str(err.value)
    # a range error names the entry applied last
    p = write(tmp_path, "[model]\nepsilon = -1\n[nuclearity]\nsteps = 2\n"
                        "s_min = 1\ns_max = 1\n", "bad8.cfg")
    with pytest.raises(ConfigError) as err:
        load_config(str(p))
    assert err.value.line == 6
    # so does a count its grid cannot hold, whichever section comes last
    for first, second in (("smatrix", "n_values = 4"), ("grid", "count = 13")), \
            (("grid", "count = 13"), ("smatrix", "n_values = 4")):
        p = write(tmp_path, "[model]\nepsilon = -1\n[%s]\n%s\n[%s]\n%s\n"
                  % (*first, *second), "bad9.cfg")
        with pytest.raises(ConfigError) as err:
            load_config(str(p))
        assert err.value.line == 6
        assert "smatrix.n_values holds 4, which needs grid.count >= 16" \
            in str(err.value)
    # the smallest accepted values, with n = 5 on the largest grid whose
    # rank-5 tensors fit the dense budget (31^5 <= 2^25 < 33^5); a
    # one-step curve may have an empty range
    p = write(tmp_path, "[model]\nepsilon = -1\n[locality]\norder = 8\n"
                        "grid_count = 3\n[grid]\ncount = 31\n"
                        "[smatrix]\nn_values = 1, 5\n"
                        "[partition]\nbeta_min = 0.5\nbeta_max = 0.5\n"
                        "steps = 1\n", "ok.cfg")
    assert load_config(str(p)).smatrix.n_values == (1, 5)
    with pytest.raises(ConfigError, match="got grid.count 33"):
        load_config(str(p), overrides=["grid.count=33"])


def test_kappa_checked_against_the_model(tmp_path):
    # resonance-pi4 has kappa(S) = pi/4: 1.0 is inside (0, pi/2) but not
    # inside its strip
    text = MINIMAL.format(imag=math.pi / 4) + "[nuclearity]\nkappa = 1.0\n"
    with pytest.raises(ConfigError) as err:
        load_config(str(write(tmp_path, text)))
    assert err.value.line == 8
    assert "nuclearity.kappa must lie in (0, 0.785" in str(err.value)
    cfg = load_config(str(write(tmp_path, text, "ok.cfg")),
                      overrides=["nuclearity.kappa=0.7"])
    assert cfg.nuclearity.kappa == 0.7


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
    cfg = load_config(str(p), overrides=["algebra.tol=1e-10", "grid.count=13"])
    assert cfg.algebra.tol == 1e-10
    assert cfg.grid.count == 13
    with pytest.raises(ConfigError):
        load_config(str(p), overrides=["no_dots"])


def test_readme_config_example_loads(tmp_path):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(str(write(tmp_path, block)))
    assert set(cfg.testfunctions) == {"f", "g"}
    assert cfg.locality.f == "f"
    assert cfg.nuclearity.kappa == wq.kappa(cfg.model) / 2


@pytest.mark.parametrize("name,extras", [
    ("free", ["nuclearity-curve", "free-bose"]),
    ("ising", ["nuclearity-curve", "ising-fermi", "partition"]),
    ("shg-b050", ["nuclearity-curve", "find-smin", "partition"]),
    ("resonance-pi4", ["nuclearity-curve", "find-smin", "partition"]),
    # a > 0 has an infinite strip sup norm, so no bound suite applies
    ("free a=0.5", []),
    ("ising a=0.5", []),
    ("shg-b050 a=0.5", []),
    ("shg-b050 a=0.5 epsilon=1", []),
])
def test_all_selection_per_catalogue_model(name, extras):
    # NAME, then [model] settings that override the catalogue's
    model, *settings = name.split()
    cfg = load_config(f"catalogue:{model}",
                      overrides=[f"model.{s}" for s in settings])
    assert suites_for_all(cfg) == ["verify-scattering", "verify-algebra",
                                   "verify-locality", "smatrix", *extras]


def test_warm_caches_leave_bound_reports_unchanged(tmp_path, capsys):
    # a model with zeros, so strip_sup_norm does real work; the second run
    # finds every memoized and lru-cached value already computed
    shrink = ["--tol-override", "nuclearity.nodes=100", "--steps", "2"]
    wq.strip_sup_norm.cache_clear()
    for run in ("cold", "warm"):
        for suite in ("nuclearity-curve", "find-smin", "partition"):
            code = main([suite, "--config", "catalogue:shg-b050",
                         "--out", str(tmp_path / run / suite), *shrink])
            assert code == 0
    capsys.readouterr()
    assert wq.strip_sup_norm.cache_info().misses == 1
    for suite in ("nuclearity-curve", "find-smin", "partition"):
        for name in ("report.json", "nuclearity-report.json"):
            cold = (tmp_path / "cold" / suite / name).read_bytes()
            assert (tmp_path / "warm" / suite / name).read_bytes() == cold
    # find-smin writes its root into the bound report too
    smin = tmp_path / "cold" / "find-smin"
    report = json.loads((smin / "report.json").read_text())
    summary = report["suites"]["find-smin"]["summary"]
    s_min = summary["s_min"]
    nuc = json.loads((smin / "nuclearity-report.json").read_text())
    assert 0.0 < s_min < 50.0 and nuc["s_min"] == s_min
    # and the closed-form bracket it searched
    lo, hi = summary["s_bracket"]
    assert lo < s_min < hi


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


SCIPY_FREE_RUN = """
import sys
import wedgeqft.cli
import wedgeqft as wq
from wedgeqft.config import load_config
cfg = load_config("catalogue:shg-b050")
wq.strip_sup_norm(cfg.model, cfg.nuclearity.kappa)
wq.find_s_min(cfg.model, cfg.nuclearity.kappa)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a large gemv by thread, so a report leaf summed
    # through BLAS changes in its last bits with the thread count; on this
    # model and seed the operator residuals and two verify-algebra rows did
    src = str(pathlib.Path(wq.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "wedgeqft", "all", "--config",
             "catalogue:free", "--seed", "1", "--format", "csv",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = [sorted(p.name for p in out.iterdir() if p.name != "timings.json")
             for out in outs]
    assert names[0] == names[1] and "report.json" in names[0]
    for name in names[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_runtime_loads_no_scipy():
    # numpy is the only runtime dependency: the CLI import, a model load
    # and the two searches that once used scipy.optimize load no scipy
    src = str(pathlib.Path(wq.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_scripts_reach_the_package(tmp_path):
    # perfbench/ drives the package from outside, through load_config,
    # run_suites, assemble_report and main; a renamed entry point must fail
    # here, since the benchmark itself then still exits 0
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(script, *args):
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / script),
             *map(str, args)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    plan = write(tmp_path, json.dumps({
        "seed": 1, "trace": False, "min_seconds": 0, "cycle": 1,
        "models": [{"config": "catalogue:free",
                    "suites": ["verify-scattering"],
                    "report": str(tmp_path / "report.json")}]}), "plan.json")
    run("session.py", plan, tmp_path / "session.json")
    session = json.loads((tmp_path / "session.json").read_text())
    assert session["setup_done"] is not None
    [model] = session["models"]
    assert [op["ok"] for op in model["ops"]] == [True]

    run("cli_child.py", tmp_path / "sidecar.json", 0, "--",
        "verify-scattering", "--config", "catalogue:free",
        "--out", tmp_path / "out", "--seed", 1)
    sidecar = json.loads((tmp_path / "sidecar.json").read_text())
    assert sidecar["setup_done"] is not None
    assert sidecar["suites"] == ["verify-scattering"]


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
    cfg = load_config(f"catalogue:{model}",
                      overrides=SCHEMA_OVERRIDES)
    if cfg.model.epsilon == +1:
        documented.discard("log_bound_minus")
    rows = run_suites(cfg, [name], 0)[name].rows
    assert rows
    for row in rows:
        assert set(row) == documented


def test_cli_missing_config_exit2(tmp_path, capsys):
    p = write(tmp_path, "[model]\nname = no-epsilon\n")
    for config in (str(tmp_path / "nope.cfg"), "catalogue:nope", str(p)):
        code = main(["verify-scattering", "--config", config,
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


def test_cli_override_errors_exit2(tmp_path, capsys):
    # a misspelt section or key is an error, not a silent default, and so
    # is a kappa outside the model's strip
    for item in ("mystery.x=1", "nuclarity.steps=0", "nuclearity.stepz=1",
                 "steps=1", "nuclearity.kappa=2"):
        code = main(["verify-scattering", "--config", "catalogue:free",
                     "--out", str(tmp_path / "out"), "--tol-override", item])
        assert code == 2, item
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert f"--tol-override {item}" in err["message"], err
    assert not (tmp_path / "out").exists()
    # an n_max that no verify-algebra run can use fails as it loads
    for item, got in (("grid.n_max=1", "'1'"), ("grid.n_max=6", "'6'")):
        code = main(["verify-algebra", "--config", "catalogue:shg-b050",
                     "--out", str(tmp_path / "out"), "--tol-override", item])
        assert code == 2, item
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["message"].endswith(
            f"--tol-override {item}: grid.n_max must be an integer "
            f"in 2..5, got {got}"), err
    # count settings that would pass on no sample or could never run
    for item, got in (("smatrix.n_values=", "''"),
                      ("smatrix.n_values=6", "'6'"),
                      ("algebra.dn_max=7", "'7'")):
        what = ("must be non-empty integers in 1..5" if "n_values" in item
                else "must be an integer in 2..6")
        code = main(["all", "--config", "catalogue:shg-b050",
                     "--out", str(tmp_path / "out"), "--tol-override", item])
        assert code == 2, item
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["message"].endswith(
            f"--tol-override {item}: {item.split('=')[0]} {what}, "
            f"got {got}"), err
    # counts that parse but that their grid cannot hold: the error names
    # the first override involved
    for suite, items, what in (
            ("smatrix", ("smatrix.n_values=5", "grid.count=41"),
             "smatrix.n_values holds 5, which needs grid.count >= 20 and "
             "grid.count^5 <= 33554432, got grid.count 41"),
            ("smatrix", ("smatrix.n_values=4", "grid.count=13"),
             "smatrix.n_values holds 4, which needs grid.count >= 16 and "
             "grid.count^4 <= 33554432, got grid.count 13"),
            ("verify-algebra", ("algebra.dn_max=6",),
             "algebra.grid_count^6 must be at most 33554432 for rank 6 = "
             "max(algebra.dn_max, grid.n_max + 1), got algebra.grid_count 21")):
        args = [suite, "--config", "catalogue:shg-b050",
                "--out", str(tmp_path / "out")]
        for item in items:
            args += ["--tol-override", item]
        assert main(args) == 2, items
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["message"].endswith(
            f"--tol-override {items[0]}: {what}"), err
    assert not (tmp_path / "out").exists()
    # an override error names the override and the config as given
    code = main(["nuclearity-curve", "--config", "catalogue:shg-b050",
                 "--out", str(tmp_path / "out"),
                 "--tol-override", "nuclearity.steps=0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["line"] is None
    assert err["path"] == "catalogue:shg-b050"
    assert err["message"].startswith(
        "catalogue:shg-b050: --tol-override nuclearity.steps=0: "
        "nuclearity.steps must be an integer >= 1, got '0'"), err


@pytest.mark.parametrize("args,message", [
    (["--steps", "0"],
     "--steps 0: nuclearity.steps must be an integer >= 1, got '0'"),
    (["--s-min", "-1"],
     "--s-min -1.0: nuclearity.s_min must be a positive number, got '-1.0'"),
    (["--s-max", "0"],
     "--s-max 0.0: nuclearity.s_max must be a positive number, got '0.0'"),
    (["--beta", "-1"],
     "--beta -1.0: partition.beta_min must be a positive number, got '-1.0'"),
    (["--r", "0"],
     "--r 0.0: partition.r must be a positive number, got '0.0'"),
    # ranges that no curve of several steps can cover
    (["--s-min", "5", "--s-max", "0.5"],
     "--s-min 5.0: nuclearity.s_min must be below nuclearity.s_max when "
     "nuclearity.steps > 1, got 5.0 and 0.5"),
    (["--s-min", "1", "--s-max", "1"],
     "--s-min 1.0: nuclearity.s_min must be below nuclearity.s_max when "
     "nuclearity.steps > 1, got 1.0 and 1.0"),
    (["--s-max", "0.5"], "--s-max 0.5: nuclearity.s_min must be below"),
])
def test_cli_shortcut_flag_errors_name_the_flag(args, message, tmp_path,
                                                capsys):
    code = main(["nuclearity-curve", "--config", "catalogue:ising",
                 "--out", str(tmp_path / "out"), *args])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["line"] is None
    assert err["message"].startswith(f"catalogue:ising: {message}"), err
    assert not (tmp_path / "out").exists()


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

    # a suite that raises ConvergenceError also exits 3, with no report
    def raising(cfg, rng):
        raise ConvergenceError("budget exhausted")

    monkeypatch.setitem(SUITES, "verify-scattering", Suite(raising, {}))
    code = main(["verify-scattering", "--config", str(p),
                 "--out", str(tmp_path / "raised")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err == {"kind": "nonconvergence", "message": "budget exhausted"}
    assert not (tmp_path / "raised").exists()


def test_cli_partition_series_budget_exit3(tmp_path, capsys):
    # at beta = 1e-100 the Pauli series argument is about 3e53; its window
    # would hold about 1e55 terms, far above the series budget
    code = main(["partition", "--config", "catalogue:ising", "--beta",
                 "1e-100", "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "nonconvergence"
    assert "budget" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["partition", "--config", "catalogue:ising", "--beta", "5e-324"],
    ["partition", "--config", "catalogue:ising", "--r", "5e-324"],
    ["nuclearity-curve", "--config", "catalogue:shg-b050",
     "--s-min", "5e-324", "--s-max", "1"]])
def test_cli_underflowing_distance_exit3(tmp_path, capsys, args):
    # a positive distance whose damping r sin(2 pi mu) or m s / 2 rounds
    # to zero leaves double range: non-convergence, not a traceback or a
    # suite error
    code = main(args + ["--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "nonconvergence"
    assert "underflows" in err["message"]
    assert not (tmp_path / "out").exists()


def test_locality_order_capped_at_the_largest_rule(tmp_path, capsys):
    # the bump transforms' largest rule bounds the key, so a mistyped
    # order exits 2 before any rule or line integral of its size is built
    cfg = load_config("catalogue:free",
                      overrides=[f"locality.order={ORDER_CAP}"])
    assert cfg.locality.order == ORDER_CAP
    item = f"locality.order={ORDER_CAP + 1}"
    code = main(["verify-locality", "--config", "catalogue:free",
                 "--out", str(tmp_path / "out"), "--tol-override", item])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["message"].startswith(
        f"catalogue:free: --tol-override {item}: locality.order must be "
        f"an integer in 8..{ORDER_CAP}"), err
    assert not (tmp_path / "out").exists()


def test_nystrom_nodes_capped_at_the_budget(tmp_path, capsys):
    # a 20000-node Nystrom matrix alone is 6 GiB: the key is bounded by
    # the budget, so the request exits 2 and names the override, where it
    # used to exit 1 with an untyped allocation error
    cfg = load_config("catalogue:shg-b050",
                      overrides=[f"nuclearity.nodes={MAX_NODES}"])
    assert cfg.nuclearity.nodes == MAX_NODES
    item = "nuclearity.nodes=20000"
    code = main(["nuclearity-curve", "--config", "catalogue:shg-b050",
                 "--out", str(tmp_path / "out"), "--tol-override", item])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["message"].startswith(
        f"catalogue:shg-b050: --tol-override {item}: nuclearity.nodes must "
        f"be an integer in 1..{MAX_NODES}"), err
    assert not (tmp_path / "out").exists()


def test_nystrom_doubling_over_the_budget_exit3(tmp_path, capsys,
                                                monkeypatch):
    # with the budget at the default level and a refinement that never
    # agrees, the first doubling is over the budget: it raises before its
    # matrix is built, and the CLI exits 3
    from wedgeqft import nuclearity
    built = []
    build = nuclearity._nystrom_matrix

    def counting(K):
        built.append(K.nodes)
        return build(K)

    monkeypatch.setattr(nuclearity, "_nystrom_matrix", counting)
    monkeypatch.setattr(nuclearity, "MAX_NODES", nuclearity.NODES_DEFAULT)
    monkeypatch.setattr(nuclearity, "REFINE_TOL", 0.0)
    code = main(["nuclearity-curve", "--config", "catalogue:shg-b050",
                 "--steps", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "nonconvergence"
    assert err["message"] == ("Nystrom level of 800 nodes exceeds the "
                              "budget of 400 nodes")
    assert built and max(built) == nuclearity.NODES_DEFAULT
    assert not (tmp_path / "out").exists()


def test_scattering_verdict_covers_the_origin(monkeypatch):
    # S2(0) off +-1 by 1e-9 with exact relations: the suite must fail, and
    # its summary must carry the same verdict
    from wedgeqft import sfunction, suites
    exact = sfunction.evaluate

    def nudged(S, z):
        return exact(S, z) + 1e-9 if isinstance(z, float) else exact(S, z)

    monkeypatch.setattr(sfunction, "evaluate", nudged)
    res = suites.verify_scattering(load_config("catalogue:free"), None)
    assert max(res.summary[k] for k in ("unitarity", "symmetry", "crossing",
                                        "modulus")) <= 1e-12
    assert res.passed is False
    assert res.summary["passed"] is False


def test_creators_commute_row_catches_an_untwisted_creator(monkeypatch):
    # the row is the run-time check of the creator-only level that the
    # operator-level locality check leaves out; a twisted swap that loses
    # its S2 factor past slot 1 must push it over tol and fail the suite
    from wedgeqft import fock, suites
    cfg = load_config("catalogue:shg-b050")

    def residuals():
        res = suites.verify_algebra(cfg, np.random.default_rng(1))
        return res, {r["check"]: r["residual"] for r in res.rows}

    res, rows = residuals()
    assert res.passed and rows["creators_commute"] <= cfg.algebra.tol

    swap = fock._swap

    def untwisted(MT, x, k):
        return swap(MT, x, k) if k < 1 else np.swapaxes(x, k, k + 1)

    monkeypatch.setattr(fock, "_swap", untwisted)
    res, rows = residuals()
    assert rows["creators_commute"] > cfg.algebra.tol
    # apply_dn takes the creator's swap, so the D_n rows see it too
    assert rows["dn3_braid"] > cfg.algebra.tol
    assert res.passed is False


def test_smatrix_catches_a_creator_span_short_of_psi(monkeypatch):
    # the creator moves psi's slot over psi's nonzero span only; a span
    # that stops one node short of psi's last nonzero node leaves that
    # node's amplitude unmoved, and the collision-state overlap must miss
    # its oracle by more than tol
    from wedgeqft import fock, suites
    cfg = load_config("catalogue:shg-b050")

    def run():
        return suites.run_smatrix(cfg, np.random.default_rng(1))

    res = run()
    assert res.passed
    insert = fock._insert

    def short(M, t, a=0, span=fock._ALL, box=fock._ALL):
        if span != fock._ALL:
            span = slice(span.start, span.stop - 1)
        return insert(M, t, a, span, box)

    monkeypatch.setattr(fock, "_insert", short)
    res = run()
    worst = max(v["max_overlap_residual"] for v in res.summary["per_n"].values())
    assert worst > cfg.smatrix.tol
    assert res.passed is False


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
    # a suite that raises is a suite error, also exit 1, with no report
    code = main(["verify-locality", "--config", "catalogue:free",
                 "--out", str(tmp_path / "swapped"),
                 "--tol-override", "locality.f=g",
                 "--tol-override", "locality.g=f"])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "suite-error"
    assert err["message"].startswith("f box ")
    assert err["message"].endswith(" not inside W_R")
    assert not (tmp_path / "swapped").exists()


@pytest.mark.parametrize("suite,model", [("free-bose", "shg-b050"),
                                         ("free-bose", "ising"),
                                         ("ising-fermi", "free"),
                                         ("ising-fermi", "resonance-pi4")])
def test_free_field_suites_refuse_other_models(suite, model, tmp_path, capsys):
    # each suite reports the bound of one free model; on another model a
    # PASS would carry that bound under the wrong name
    code = main([suite, "--config", f"catalogue:{model}",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["kind"] == "suite-error"
    assert err["message"].startswith(f"{suite} describes only")
    assert not (tmp_path / "out").exists()


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
