import numpy as np
import pytest

from besselbvp.config import DEFAULTS
from besselbvp.errors import DomainError


@pytest.mark.parametrize("key, value", [
    ("fem_degree", 3.5),                # once ran as degree 3
    ("fem_degree", 1),
    ("default_nodes", 100.5),
    ("tail_corrections", 2.5),          # once fitted 3 corrections
    ("tail_corrections", True),         # once fitted 1
    ("tail_corrections", -1),
    ("stencil_width", 0),
    ("trace_fit_residual", -1),
    ("fit_condition_cap", np.nan),
    ("rank_rel_tol", 0),
    ("halfline_decay_lengths", -1),
    ("solver_residual_tol", np.inf),
    ("grading_floor", True),
    ("resonance_tol", "1e-8"),
])
def test_settings_refuse_bad_values(key, value):
    with pytest.raises(DomainError, match=key):
        DEFAULTS.with_overrides(**{key: value})


def test_settings_accept_the_least_values_and_numpy_scalars():
    s = DEFAULTS.with_overrides(fem_degree=np.int64(2), tail_corrections=0,
                                panel_order=1, rank_rel_tol=np.float64(1e-3))
    assert (s.fem_degree, s.tail_corrections, s.panel_order) == (2, 0, 1)
