"""The entry points the benchmark traces by name must exist and be wrapped.

perfbench/tracing.py looks each traced function and method up by name, so
removing or renaming one breaks `perfbench/run.py --trace 1`.  This test
installs and uninstalls the benchmark's tracer against the library, reading
perfbench/ without changing it.  The benchmark's set-up probe times
``import besselbvp`` in a fresh interpreter; scipy is loaded at the first
call that needs it, so that probe and the CLI's import load numpy only.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import besselbvp
import besselbvp.cli  # noqa: F401  (traced, and not imported by the package)
from besselbvp.config import DEFAULTS
from besselbvp.core import Order
from besselbvp.fem import Space
from besselbvp.modes import dirichlet_spectrum, pencil_modes
from besselbvp.solve import BesselOperator, BVProblem, solve_1d
from besselbvp.symbols import BoundaryOperator

# appended, so that tests/oracles.py keeps precedence over perfbench's
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_benchmark_tracer_installs_and_uninstalls():
    original = besselbvp.fem.first_cell_inner
    tracer = layers.watch(Tracer())
    with tracer:
        assert besselbvp.fem.first_cell_inner is not original
        space = Space(0.3, 1.0, n_nodes=12 * DEFAULTS.fem_degree)
        mats = space.matrices(a_fun=lambda x: np.ones_like(x),
                              b_fun=lambda x: x)
    assert besselbvp.fem.first_cell_inner is original
    names = [s.name for s in tracer.spans]
    # one cell-0 integration per form, inside Space.matrices
    assert names.count("fem.Space.matrices") == 1
    assert names.count("fem.first_cell_inner") == len(mats) == 4
    assert len(tracer.data["mesh_keys"]) == 1


@pytest.mark.parametrize("b_coeff, forms", [(None, 2),
                                            (Polynomial([0.0, 1.0, -1.0]), 3)])
def test_constant_a_solve_assembles_and_gates_once(b_coeff, forms):
    # a constant a enters as a M: Space.matrices integrates S and M (and B)
    # on cell 0, and the residual gate reads its window in one call
    nu = 0.35
    prob = BVProblem(op=BesselOperator(Order(nu), a_coeff=1.3,
                                       b_coeff=b_coeff),
                     bc0=BoundaryOperator.robin(nu, 0.7), rhs=np.cos,
                     boundary_data=0.5)
    with layers.watch(Tracer()) as tracer:
        solve_1d(prob, n_nodes=128)
    spans = tracer.spans
    names = [s.name for s in spans]
    assert names.count("fem.Space.matrices") == 1
    assert names.count("fem.Space.strong_residual") == 1
    assembly = names.index("fem.Space.matrices")
    cell0 = [s for s in spans if s.name == "fem.first_cell_inner"]
    assert len(cell0) == forms
    assert all(s.parent == assembly for s in cell0)


def test_targeted_spectra_trace_one_lanczos_per_eigensolve():
    # fem.mass_deflated_eig.busy_s times the Cholesky Lanczos: once per |q|
    # of a Dirichlet spectrum, and inside fem.pencil_eig for a count-limited
    # even real pencil
    with layers.watch(Tracer()) as tracer:
        dirichlet_spectrum(0.4, q_max=1)
    names = [s.name for s in tracer.spans]
    assert names.count("fem.mass_deflated_eig") == 2

    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=0.0,
                        pencil_fourier=lambda q: (float(np.dot(q, q)), 0.0,
                                                  1.0))
    with layers.watch(Tracer()) as tracer:
        pencil_modes(nu, op, None, q=0, n_nodes=128, max_modes=4)
    spans = tracer.spans
    lanczos = [s for s in spans if s.name == "fem.mass_deflated_eig"]
    assert len(lanczos) == 1
    assert spans[lanczos[0].parent].name == "fem.pencil_eig"


def test_package_import_leaves_scipy_unloaded():
    # the benchmark's own set-up probe, then the CLI and one eigensolve in
    # the same fresh interpreter: the first scipy-backed call loads scipy,
    # and its eigenvalues (through scipy's BLAS pool) are bitwise those of
    # a process that loaded scipy long before
    check = run.IMPORT_PROBE + (
        "; import json, besselbvp.cli; "
        "loaded = {'scipy': 'scipy' in sys.modules, 'missing': "
        "[m for m in %r if 'besselbvp.' + m not in sys.modules]}; "
        "from besselbvp.modes import dirichlet_spectrum; "
        "loaded['eigenvalues'] = "
        "dirichlet_spectrum(0.5, n_max=4).eigenvalues.tobytes().hex(); "
        "print(json.dumps(loaded))") % sorted(tracing.TRACED)
    out = subprocess.run([sys.executable, "-c", check, str(run.SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=run.ROOT)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert not loaded["scipy"]
    assert loaded["missing"] == []
    here = dirichlet_spectrum(0.5, n_max=4).eigenvalues
    assert loaded["eigenvalues"] == here.tobytes().hex()
