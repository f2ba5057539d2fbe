"""Boundary asymptotic expansions and the indicial polynomial.

Solutions of elliptic Bessel problems with rapidly vanishing interior data
expand as u = x^{1/2-nu} u_- + x^{1/2+nu} u_+ near x = 0, with the leading
coefficients tied to the weighted traces (g_- = gamma_- u, 2 nu g_+ =
gamma_+ u).  The exponents are roots of l_nu(s) = (s + 1/2 + nu)(s + 1/2 -
nu); when 2 nu is an odd integer >= 3 the branches collide two Mellin steps
in and a x^{1/2+nu} log x term appears.

The extraction here is a windowed power-basis regression (better conditioned
at desk scale than a numerical Mellin transform, and it tests the same
claim): regressors are the two branch powers, x^2-tail corrections per
branch, and the log term in the resonant case.  The fit lives in ``core``,
where ``traces`` extracts gamma_-+ of plain samples with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULTS
from .core import ExpansionFit, Regime, _fit_branches, as_order
from .errors import DomainError

__all__ = [
    "IndicialData",
    "ExpansionFit",
    "indicial",
    "fit_expansion",
    "expansion_consistency",
]


@dataclass(frozen=True)
class IndicialData:
    nu: float
    roots: tuple            # (-1/2 + nu, -1/2 - nu)
    resonant: bool          # 2 nu within 1e-8 of an odd integer >= 3


def indicial(nu, settings=DEFAULTS):
    """Roots of l_nu(s) = (s + 1/2 + nu)(s + 1/2 - nu) and the resonance flag."""
    order = as_order(nu)
    two_nu = 2.0 * order.nu
    nearest_odd = 2 * round((two_nu - 1.0) / 2.0) + 1
    resonant = (nearest_odd >= 3
                and abs(two_nu - nearest_odd) < settings.resonance_tol)
    return IndicialData(order.nu, (-0.5 + order.nu, -0.5 - order.nu),
                        bool(resonant))


def fit_expansion(u, nu, window=None, corrections=None, parity="even",
                  settings=DEFAULTS):
    """Windowed least-squares fit of the two-branch boundary expansion.

    Regressors: x^{1/2-nu} and x^{1/2+nu} with ``corrections`` many x^2-tail
    terms each (absorbing u_+- - g_+- in x^2 C^inf), plus x^{1/2+nu} log x in
    the resonant case.  ``parity="general"`` steps the corrections by x
    instead of x^2, for data without the evenness structure (mixed powers
    x^{r+1/2+-nu} appear beyond the second expansion step in general).  For
    nu >= 1 the x^{1/2-nu} branch is not square integrable and is excluded;
    g_minus is then reported as 0.

    ``core.traces`` runs the same fit on plain samples.  An explicit
    ``window`` is honoured exactly.  When omitted, the window starts at
    (x_0, 0.1 x_max) and its upper end is divided by 4 per step, down to the
    innermost 12 nodes: the expansion is asymptotic, so the model error sets
    the usable window for each input.  The ladder stops at the first fit
    whose relative residual is below ``settings.trace_fit_residual`` and no
    longer halves, i.e. has reached the rounding floor of the data, and
    returns that fit.
    """
    order = as_order(nu)
    if parity not in ("even", "general"):
        raise DomainError("parity must be 'even' or 'general'")
    return _fit_branches(u, order, window=window, corrections=corrections,
                         step=2 if parity == "even" else 1,
                         log=indicial(order, settings=settings).resonant,
                         settings=settings)


def expansion_consistency(sol, nu, settings=DEFAULTS):
    """max(|g_- - gamma_- u|, |2 nu g_+ - gamma_+ u|) for a solve output.

    Compares the windowed expansion fit of the sampled solution with the
    traces the solver read off its discrete solution; both should identify
    the boundary data of the continuum expansion for smooth interior data.
    A solution without discrete traces raises DomainError: ``core.traces``
    of the samples is the same fit, so comparing with it shows nothing.
    """
    order = as_order(nu)
    if order.regime is not Regime.SUBCRITICAL:
        raise DomainError("trace comparison requires 0 < nu < 1")
    tr = sol.traces
    if tr is None:
        raise DomainError("solution carries no discrete traces to compare")
    fit = fit_expansion(sol.u, order, settings=settings)
    return float(max(abs(fit.g_minus - tr.gamma_minus),
                     abs(2.0 * order.nu * fit.g_plus - tr.gamma_plus)))
