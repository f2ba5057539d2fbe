"""Central tolerance / default record.

Every numerical knob that more than one module consults lives here, so that a
sweep or a CLI run can override tolerances in one place.
"""

from dataclasses import dataclass, replace

from .errors import DomainError


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
        if self.fem_degree < 2:
            raise DomainError("fem degree must be at least 2")
        if not 0 < self.solver_residual_tol < float("inf"):
            raise DomainError("solver_residual_tol must be finite and > 0, "
                              f"got {self.solver_residual_tol}")
        if self.tail_corrections < 0:
            raise DomainError("tail_corrections must be at least 0, got "
                              f"{self.tail_corrections}")

    def with_overrides(self, **kw):
        return replace(self, **kw)


DEFAULTS = Settings()
