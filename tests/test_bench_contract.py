"""The entry points the benchmark traces by name must exist and be wrapped.

perfbench/tracing.py looks each traced function and method up by name, so
removing or renaming one breaks `perfbench/run.py --trace 1`.  This test
installs and uninstalls the benchmark's tracer against the library, reading
perfbench/ without changing it.
"""

import sys
from pathlib import Path

import numpy as np

import besselbvp
import besselbvp.cli  # noqa: F401  (traced, and not imported by the package)
from besselbvp.config import DEFAULTS
from besselbvp.fem import Space

# appended, so that tests/oracles.py keeps precedence over perfbench's
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
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
