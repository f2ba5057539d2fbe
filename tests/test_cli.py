import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from besselbvp.cli import main
from besselbvp.core import Order
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
    assert body["summary"]["all_pass"] is False
    fails = [s for s in body["samples"] if not s["pass"]]
    assert len(fails) == 2


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


def test_expand_roundtrip(tmp_path):
    # write a grid function, then run the expand command on it
    from besselbvp.core import GridFunction, RadialGrid, gridfunction_to_csv
    g = RadialGrid.build(1.0, 256)
    u = GridFunction.from_pair(g, 0.3, [3.0], [5.0])
    csv = tmp_path / "field.csv"
    gridfunction_to_csv(GridFunction(g, u.values), str(csv))
    cfg = tmp_path / "expand_case.cfg"
    cfg.write_text(f"[input]\ncsv = {csv}\nnu = 0.3\n")
    code = main(["expand", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"])
    assert code == 0
    body = json.loads((tmp_path / "expand_expand_case.json").read_text())
    assert abs(body["g_minus"]["re"] - 3.0) < 1e-8
    assert abs(body["g_plus"]["re"] - 5.0) < 1e-8


EIGEN_FIXTURES = [("modes", "dirichlet_nu05"), ("kg", "ads_static")]


def artifacts(command, stem, out):
    return [(out / f"{command}_{stem}{ext}").read_bytes()
            for ext in (".json", ".meta.json")]


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for command, stem in EIGEN_FIXTURES:
        run_cmd(command, f"{stem}.cfg", a, seed=3)
        run_cmd(command, f"{stem}.cfg", b, seed=3)
        assert artifacts(command, stem, a) == artifacts(command, stem, b)


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


def test_missing_config_file(tmp_path):
    assert main(["modes", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path), "--quiet"]) == 1


def test_tolerance_override_section(tmp_path):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("[operator]\nnu = 0.5\n\n[modes]\nq = 0\ncount = 2\n\n"
                   "[grid]\nnodes = 128\n\n"
                   "[tolerances]\nsolver_residual_tol = 1e-5\n")
    assert main(["modes", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
