"""Central tolerance / default record.

Every numerical knob that more than one module consults lives here, so that a
sweep or a CLI run can override tolerances in one place.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import DomainError


def _check_count(name, value, least):
    """Refuse a count that is a bool, not an integer or below ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise DomainError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class Settings:
    # special functions
    bessel_zero_residual: float = 1e-13
    bessel_zero_max_newton: int = 60

    # grids and quadrature
    default_nodes: int = 256
    panel_order: int = 12            # Gauss points per mesh panel
    grading_floor: float = 1e-10     # smallest panel edge relative to x_max

    # grid derivatives
    stencil_width: int = 9
    derivative_check_tol: float = 1e-4   # relative; grid-too-coarse diagnostic

    # traces / expansion fits
    trace_fit_residual: float = 1e-6
    fit_condition_cap: float = 1e10
    tail_corrections: int = 2

    # symbol analysis
    ellipticity_rel_tol: float = 1e-12
    lopatinskii_rel_tol: float = 1e-10
    resonance_tol: float = 1e-8

    # solvers
    fem_degree: int = 5
    solver_residual_tol: float = 1e-7
    rank_rel_tol: float = 1e-8
    halfline_decay_lengths: float = 40.0

    def __post_init__(self):
        """Integer fields are counts (>= 1; fem_degree >= 2,
        tail_corrections >= 0); float fields are finite and > 0."""
        least = {"fem_degree": 2, "tail_corrections": 0}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:
                _check_count(f.name, value, least.get(f.name, 1))
            elif (isinstance(value, bool)
                  or not isinstance(value, numbers.Real)
                  or not 0 < value < math.inf):
                raise DomainError(f"{f.name} must be finite and > 0, "
                                  f"got {value!r}")

    def with_overrides(self, **kw):
        return replace(self, **kw)


DEFAULTS = Settings()
