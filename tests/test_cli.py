import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from besselbvp import cli
from besselbvp.cli import main
from besselbvp.core import (TAIL_CORRECTIONS, GridFunction, Order,
                            RadialGrid, gridfunction_to_csv)
from besselbvp.modes import (dirichlet_spectrum, embedding_singular_values,
                             pencil_modes)
from besselbvp.solve import BesselOperator


FIXTURES = Path(__file__).parent.parent / "fixtures"


def run_cmd(command, fixture, out, fmt="json", seed=0):
    return main([command, "--config", str(FIXTURES / fixture),
                 "--out", str(out), "--format", fmt, "--seed", str(seed),
                 "--quiet"])


def test_modes_fixture(tmp_path):
    assert run_cmd("modes", "dirichlet_nu05.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "modes_dirichlet_nu05.json").read_text())
    assert set(body) == {"nu", "q", "eigenvalues", "closed_form",
                         "discrepancy"}
    assert all(set(e) == {"re", "im", "residual"}
               for e in body["eigenvalues"])
    want = [1.0 + (n * math.pi) ** 2 for n in range(1, 7)]
    got = [e["re"] for e in body["eigenvalues"]]
    assert np.allclose(got, want, rtol=1e-8)
    meta = json.loads(
        (tmp_path / "modes_dirichlet_nu05.meta.json").read_text())
    assert meta["command"] == "modes"
    assert meta["config"]["operator"]["nu"] == "0.5"


def test_lopatinskii_oblique_fixture(tmp_path):
    assert run_cmd("lopatinskii", "oblique_fail.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "lopatinskii_oblique_fail.json").read_text())
    assert set(body) == {"samples", "summary"}
    assert set(body["summary"]) == {"min_abs_det", "all_pass"}
    assert all(set(s) == {"eta", "lambda", "det_re", "det_im", "pass"}
               for s in body["samples"])
    assert body["summary"]["all_pass"] is False
    fails = [s for s in body["samples"] if not s["pass"]]
    assert len(fails) == 2


def test_run_leaves_the_global_random_state_alone(tmp_path):
    before = np.random.get_state()
    assert run_cmd("lopatinskii", "lambda_robin.cfg", tmp_path, seed=3) == 0
    after = np.random.get_state()
    assert before[0] == after[0] and before[2:] == after[2:]
    assert np.array_equal(before[1], after[1])


def test_lopatinskii_lambda_robin_fixture(tmp_path):
    assert run_cmd("lopatinskii", "lambda_robin.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "lopatinskii_lambda_robin.json").read_text())
    assert body["summary"]["all_pass"] is True


def test_solve_manufactured_fixture(tmp_path):
    assert run_cmd("solve", "manufactured.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "solve_manufactured.json").read_text())
    assert body["residual"] < 1e-7
    assert body["oracle_max_error"] < 1e-10
    assert abs(body["traces"]["gamma_plus"]["re"] - 0.8) < 1e-8


def test_solve_csv_output(tmp_path):
    assert run_cmd("solve", "manufactured.cfg", tmp_path, fmt="csv") == 0
    csv_path = tmp_path / "solve_manufactured.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,value_re,value_im"
    assert (tmp_path / "solve_manufactured.json").exists()


@pytest.mark.parametrize("command, fixture, fmt, suffixes", [
    ("solve", "manufactured.cfg", "csv", [".csv", ".json", ".meta.json"]),
    ("solve", "manufactured.cfg", "json", [".json", ".meta.json"]),
    ("lopatinskii", "lambda_robin.cfg", "csv", [".json", ".meta.json"])])
def test_run_prints_what_it_writes_in_order(tmp_path, capsys, command,
                                             fixture, fmt, suffixes):
    # the JSON summary is written for both formats, after any CSV
    assert main([command, "--config", str(FIXTURES / fixture),
                 "--out", str(tmp_path), "--format", fmt]) == 0
    stem = f"{command}_{Path(fixture).stem}"
    want = [str(tmp_path / f"{stem}{s}") for s in suffixes]
    assert capsys.readouterr().out.splitlines() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        Path(w).name for w in want)


def test_sweep_fixture(tmp_path):
    assert run_cmd("sweep", "resolvent.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "sweep_resolvent.json").read_text())
    assert body["bounded"] is True
    assert len(body["rows"]) == 4


def test_kg_fixture(tmp_path):
    assert run_cmd("kg", "ads_static.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "kg_ads_static.json").read_text())
    assert abs(body["nu"] - 0.5) < 1e-14
    assert body["elliptic"] and body["parameter_elliptic"]
    lams = sorted(abs(m["re"]) for m in body["normal_modes"])
    assert abs(lams[0] - math.pi) < 1e-6
    # +- n pi in the canonical order: -n pi first within each pair
    got = [mode["re"] for mode in body["normal_modes"]]
    want = math.pi * np.array([-1, 1, -2, 2, -3, 3, -4, 4])
    assert np.allclose(got, want, rtol=1e-9)


def write_expand_case(directory):
    """A grid function with g_- = 3, g_+ = 5 at nu = 0.3 and an expand
    config that reads it."""
    g = RadialGrid.build(1.0, 256)
    u = GridFunction.from_pair(g, 0.3, [3.0], [5.0])
    csv = directory / "field.csv"
    gridfunction_to_csv(GridFunction(g, u.values), str(csv))
    cfg = directory / "expand_case.cfg"
    cfg.write_text(f"[input]\ncsv = {csv}\nnu = 0.3\n")
    return cfg


def test_expand_roundtrip(tmp_path):
    cfg = write_expand_case(tmp_path)
    code = main(["expand", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    body = json.loads((tmp_path / "expand_expand_case.json").read_text())
    assert set(body) == {"g_minus", "g_plus", "g_log", "residual", "window"}
    assert abs(body["g_minus"]["re"] - 3.0) < 1e-8
    assert abs(body["g_plus"]["re"] - 5.0) < 1e-8


def test_expand_corrections_default_to_tail_corrections(tmp_path):
    base = write_expand_case(tmp_path).read_text()
    bodies = {}
    for name, extra in (("default", ""),
                        ("tail", f"[fit]\ncorrections = {TAIL_CORRECTIONS}\n"),
                        ("one", "[fit]\ncorrections = 1\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{base}\n{extra}")
        assert main(["expand", "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 0
        bodies[name] = (tmp_path / f"expand_{name}.json").read_text()
    assert bodies["default"] == bodies["tail"] != bodies["one"]


def test_negative_fit_corrections_is_config_error(tmp_path, capsys):
    cfg = write_expand_case(tmp_path)
    cfg.write_text(f"{cfg.read_text()}\n[fit]\ncorrections = -1\n")
    assert main(["expand", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "expand_expand_case.json").exists()


EIGEN_FIXTURES = [("modes", "dirichlet_nu05"), ("kg", "ads_static")]
ALL_FIXTURES = EIGEN_FIXTURES + [
    ("solve", "manufactured"), ("lopatinskii", "lambda_robin"),
    ("lopatinskii", "oblique_fail"), ("sweep", "resolvent")]


def artifacts(command, stem, out):
    return [(out / f"{command}_{stem}{ext}").read_bytes()
            for ext in (".json", ".meta.json")]


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    expand_cfg = write_expand_case(tmp_path)
    for command, stem in ALL_FIXTURES:
        assert run_cmd(command, f"{stem}.cfg", a, seed=3) == 0
        assert run_cmd(command, f"{stem}.cfg", b, seed=3) == 0
        assert artifacts(command, stem, a) == artifacts(command, stem, b)
    for out in (a, b):
        assert main(["expand", "--config", str(expand_cfg), "--out", str(out),
                     "--seed", "3", "--quiet"]) == 0
    assert artifacts("expand", "expand_case", a) \
        == artifacts("expand", "expand_case", b)


@pytest.mark.parametrize("command, stem", EIGEN_FIXTURES)
def test_artifacts_independent_of_earlier_eigensolves(tmp_path, command,
                                                      stem):
    # ARPACK starts from a fixed vector: a fresh interpreter and one that
    # has already run other eigensolves write the same bytes
    fresh = tmp_path / "fresh"
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-m", "besselbvp.cli", command,
                    "--config", str(FIXTURES / f"{stem}.cfg"),
                    "--out", str(fresh), "--seed", "3", "--quiet"],
                   check=True, env=env, timeout=300)
    op = BesselOperator(Order(0.3), a_coeff=0.0,
                        pencil_fourier=lambda q: (float(np.dot(q, q)),
                                                  0.0, 1.0))
    pencil_modes(0.3, op, None, q=1, n_nodes=96, max_modes=6)
    dirichlet_spectrum(1.7, q_max=1, n_max=3, n_nodes=96)
    embedding_singular_values(0.6, dof=16)
    warm = tmp_path / "warm"
    run_cmd(command, f"{stem}.cfg", warm, seed=3)
    assert artifacts(command, stem, fresh) == artifacts(command, stem, warm)


def test_unknown_key_is_hard_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[operator]\nnu = 0.5\nbogus = 1\n\n[modes]\nq = 0\n")
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 1


def test_unknown_section_is_hard_error(tmp_path):
    cfg = tmp_path / "bad2.cfg"
    cfg.write_text("[operator]\nnu = 0.5\n\n[surprise]\nkey = 1\n")
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 1


def test_numerical_failure_exit_code(tmp_path):
    cfg = tmp_path / "cut.cfg"
    cfg.write_text("[operator]\nnu = 0.4\na_re = -1.0\n\n"
                   "[boundary]\ntype = dirichlet\ndata_re = 1.0\n\n"
                   "[grid]\nnodes = 64\ncap = decay\n\n[rhs]\nkind = zero\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 2


def test_too_few_nodes_is_a_numerical_failure(tmp_path, capsys):
    cfg = tmp_path / "few.cfg"
    cfg.write_text("[operator]\nnu = 0.3\n\n[modes]\nq = 0\ncount = 10\n\n"
                   "[grid]\nnodes = -5\n")
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 2
    assert "cells" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_every_schema_key_is_read():
    # a key the schema accepts but no _get(conf, section, key, ...) reads
    # would be silently ignored
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {(call.args[1].value, call.args[2].value)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_get"
            and all(isinstance(a, ast.Constant) for a in call.args[1:3])}
    accepted = {(section, key) for schema in cli._SCHEMAS.values()
                for section, keys in schema.items() for key in keys}
    assert accepted - read == set()


def test_missing_config_file(tmp_path):
    assert main(["modes", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path), "--quiet"]) == 1


def test_tolerance_override_section(tmp_path, capsys):
    # the section once overrode Settings fields; every threshold is now a
    # constant, so the section is unknown to every command
    for command, fixture in ALL_FIXTURES:
        cfg = tmp_path / f"{fixture}.cfg"
        cfg.write_text((FIXTURES / f"{fixture}.cfg").read_text()
                       + "\n[tolerances]\nsolver_residual_tol = 1e-7\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path),
                     "--quiet"]) == 1
        assert (f"config error: unknown section [tolerances] for command "
                f"{command}") in capsys.readouterr().err
        assert not (tmp_path / f"{command}_{fixture}.json").exists()


BAD_VALUES = {
    # former [tolerances] overrides that each once failed in its own way (a
    # bare ValueError from pencil_modes' cap, degree 3 from 3.5, a zero rank
    # threshold accepted); the section is gone, so all are refused unread
    "tolerance": ("modes", "[operator]\nnu = 0.5\n\n[modes]\nq = 0\n"
                  "count = 2\n\n[tolerances]\nsolver_residual_tol = abc\n"),
    "negative tolerance": ("modes", "[operator]\nnu = 0.5\n\n[modes]\n"
                           "count = 2\npencil = laplace_pencil\n\n"
                           "[tolerances]\nsolver_residual_tol = -1\n"),
    "integer tolerance": ("modes", "[operator]\nnu = 0.5\n\n"
                          "[tolerances]\nfem_degree = inf\n"),
    "fem_degree": ("modes", "[operator]\nnu = 0.5\n\n"
                   "[tolerances]\nfem_degree = 1\n"),
    "fractional fem_degree": ("modes", "[operator]\nnu = 0.5\n\n"
                              "[tolerances]\nfem_degree = 3.5\n"),
    "zero tolerance": ("modes", "[operator]\nnu = 0.5\n\n"
                       "[tolerances]\nrank_rel_tol = 0\n"),
    "tail_corrections": ("modes", "[operator]\nnu = 0.5\n\n"
                         "[tolerances]\ntail_corrections = -1\n"),
    "nodes": ("modes", "[operator]\nnu = 0.5\n\n[grid]\nnodes = inf\n"),
    "radii": ("sweep", "[operator]\nnu = 0.3\n\n[sweep]\nradii = 4 eight\n"),
    "eta_re": ("lopatinskii", "[symbol]\ndim_eta = 2\n\n[operator]\n"
               "nu = 0.3\n\n[boundary]\ntype = oblique\neta_re = 1 i\n"),
    # zeros stand in for eta_im only when it is absent
    "eta_im length": ("lopatinskii", "[symbol]\ndim_eta = 2\n\n[operator]\n"
                      "nu = 0.3\n\n[boundary]\ntype = oblique\n"
                      "eta_re = 0 0\neta_im = 1\n"),
    # accepted once, but never read: the row kept its minimal nu-order
    "nu_order": ("lopatinskii", (FIXTURES / "oblique_fail.cfg").read_text()
                 .replace("[boundary]\n", "[boundary]\nnu_order = 1.3\n")),
    "gamma0": ("kg", "[metric]\nn = 3\nmass = -2.0\n"
               "gamma0 = 1 0 0; 0 -1 x; 0 0 -1\n"),
    "ragged gamma0": ("kg", "[metric]\nn = 3\nmass = -2.0\n"
                      "gamma0 = 1 0 0; 0 -1; 0 0 -1\n"),
    "kg q": ("kg", "[metric]\nn = 3\nmass = -2.0\n"
             "gamma0 = 1 0 0; 0 -1 0; 0 0 -1\n\n[modes]\nq = 0 nan\n"),
    # once exit 0 with an empty eigenvalue list
    "pencil count": ("modes", "[operator]\nnu = 0.5\n\n[modes]\ncount = 0\n"
                     "pencil = laplace_pencil\n"),
    "count": ("modes", "[operator]\nnu = 0.5\n\n[modes]\ncount = -2\n"),
    # once exit 2, "numerical failure", from the 0-cell completeness mesh
    "completeness_dof": ("modes", "[operator]\nnu = 0.5\n\n[modes]\n"
                         "count = 2\npencil = laplace_pencil\n"
                         "completeness = true\ncompleteness_dof = 0\n\n"
                         "[grid]\nnodes = 96\n"),
    "kg count": ("kg", "[metric]\nn = 3\nmass = -2.0\n"
                 "gamma0 = 1 0 0; 0 -1 0; 0 0 -1\n\n[modes]\nq = 0 0\n"
                 "count = 0\n"),
}


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_value_is_config_error(case, tmp_path, capsys):
    command, text = BAD_VALUES[case]
    cfg = tmp_path / "bad_value.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / f"{command}_bad_value.json").exists()


def oblique_cfg(directory, name, eta_lines):
    cfg = directory / f"{name}.cfg"
    cfg.write_text("[symbol]\nkind = laplace\ndim_eta = 2\n\n"
                   "[operator]\nnu = 0.3\n\n"
                   f"[boundary]\ntype = oblique\n{eta_lines}\n\n"
                   "[sweep]\nsamples = 16\nsector = none\n")
    return cfg


def test_oblique_eta_im_absent_reads_zeros(tmp_path):
    absent = oblique_cfg(tmp_path, "absent", "eta_re = 1 0.5")
    zeros = oblique_cfg(tmp_path, "zeros", "eta_re = 1 0.5\neta_im = 0 0")
    for cfg in (absent, zeros):
        assert main(["lopatinskii", "--config", str(cfg),
                     "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "lopatinskii_absent.json").read_bytes() \
        == (tmp_path / "lopatinskii_zeros.json").read_bytes()


def test_modes_completeness_artifact(tmp_path):
    cfg = tmp_path / "complete.cfg"
    cfg.write_text("[operator]\nnu = 0.3\n\n"
                   "[modes]\nq = 1\ncount = 4\npencil = laplace_pencil\n"
                   "boundary = lambda_robin\ncompleteness = true\n"
                   "completeness_dof = 16\n\n[grid]\nnodes = 96\n")
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    body = json.loads((tmp_path / "modes_complete.json").read_text())
    assert set(body) == {"nu", "q", "eigenvalues", "completeness"}
    assert set(body["completeness"]) == {
        "ambient_dim", "numerical_rank", "smallest_retained_singular_value",
        "verdict", "note"}
