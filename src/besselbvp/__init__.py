"""besselbvp: boundary value problems for singular Bessel operators.

The operators are |D_nu|^2 + B D_nu + A with |D_nu|^2 = -d^2/dx^2 +
(nu^2 - 1/4) x^{-2} on a radial interval or half-line, the stationary model
of waves on asymptotically anti-de Sitter spacetimes.  The package provides
twisted Sobolev calculus and weighted traces, ellipticity and Lopatinskii
verdicts, separable boundary-value solves with exact Bessel oracles, pencil
spectra with completeness diagnostics, boundary asymptotic expansions, and
the Klein-Gordon-to-Bessel reduction.
"""

from .config import DEFAULTS, Settings
from .core import (
    BranchFunction,
    GridFunction,
    Order,
    RadialGrid,
    Regime,
    TraceData,
    d_nu,
    d_nu_star,
    dilate,
    green_defect,
    gridfunction_from_csv,
    gridfunction_to_csv,
    hardy_check,
    traces,
    twisted_norm,
)
from .expansion import ExpansionFit, IndicialData, expansion_consistency, fit_expansion, indicial
from .kg import KGReduction, ModelMetric, ellipticity_verdicts, reduce
from .modes import (
    CompletenessReport,
    ModeSet,
    SingularValueReport,
    completeness_check,
    dirichlet_spectrum,
    embedding_singular_values,
    pencil_modes,
)
from .solve import (
    BesselOperator,
    BVProblem,
    Solution,
    poisson_lift,
    resolvent_sweep,
    solve_1d,
    solve_dirichlet_laplacian,
    solve_separable,
)
from .special import BesselZeroTable, bessel_zeros, eval_I, eval_J, eval_K
from .symbols import (
    BoundaryOperator,
    BoundarySymbol,
    LinearSymbol,
    ModeSolution,
    NotElliptic,
    Sector,
    elliptic_roots,
    halfline_grid,
    lopatinskii_sweep,
    lopatinskii_verdict,
    mode_solution,
    mode_traces,
)

__version__ = "0.1.0"
