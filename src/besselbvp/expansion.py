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
branch, and the log term in the resonant case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .core import Regime, as_order, traces
from .errors import DomainError, IllConditionedFit

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


@dataclass(frozen=True)
class ExpansionFit:
    g_minus: complex
    g_plus: complex
    g_log: complex
    fit_residual: float
    window: tuple


def _fit_once(u, order, window, corrections, parity, settings):
    nuval = order.nu
    x = u.grid.nodes
    lo, hi = window
    mask = (x >= lo) & (x <= hi)
    if np.sum(mask) < 12:
        raise DomainError("fit window must contain at least 12 nodes")
    xw, vw = x[mask], u.values[mask]
    ind = indicial(order, settings=settings)
    step = 2 if parity == "even" else 1

    cols, labels = [], []
    if order.regime is Regime.SUBCRITICAL:
        for k in range(corrections + 1):
            cols.append(xw ** (0.5 - nuval + step * k))
            labels.append(("minus", k))
    for k in range(corrections + 1):
        cols.append(xw ** (0.5 + nuval + step * k))
        labels.append(("plus", k))
    if ind.resonant:
        cols.append(xw ** (0.5 + nuval) * np.log(xw))
        labels.append(("log", 0))

    A = np.stack(cols, axis=1)
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0] = 1.0
    As = A / scale
    gram_cond = np.linalg.cond(As.conj().T @ As)
    if gram_cond > settings.fit_condition_cap:
        raise IllConditionedFit(
            f"fit Gram condition {gram_cond:.2e} exceeds "
            f"{settings.fit_condition_cap:.2e}; shrink the window or raise nu")
    coef, *_ = np.linalg.lstsq(As, vw, rcond=None)
    coef = coef / scale
    resid = np.linalg.norm(A @ coef - vw) / max(np.linalg.norm(vw), 1e-300)

    g_minus = g_plus = g_log = 0.0 + 0.0j
    for c, lbl in zip(coef, labels):
        if lbl == ("minus", 0):
            g_minus = complex(c)
        elif lbl == ("plus", 0):
            g_plus = complex(c)
        elif lbl == ("log", 0):
            g_log = complex(c)
    return ExpansionFit(g_minus, g_plus, g_log, float(resid),
                        (float(lo), float(hi)))


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

    An explicit ``window`` is honoured exactly.  When omitted, the default
    anchor (grid node 3, 0.1 x_max) is shrunk on a ladder and the
    best-residual fit returned: the expansion is asymptotic, so the model
    error sets the usable window for each input.
    """
    order = as_order(nu)
    corrections = settings.tail_corrections if corrections is None \
        else int(corrections)
    if parity not in ("even", "general"):
        raise DomainError("parity must be 'even' or 'general'")
    if window is not None:
        return _fit_once(u, order, window, corrections, parity, settings)

    x = u.grid.nodes
    lo = x[min(2, x.size - 1)]
    hi = 0.1 * u.grid.x_max
    best = None
    err = None
    for _ in range(10):
        if np.sum((x >= lo) & (x <= hi)) < 12:
            break
        try:
            fit = _fit_once(u, order, (lo, hi), corrections, parity, settings)
        except IllConditionedFit as exc:
            err = exc
            break
        if best is None or fit.fit_residual < best.fit_residual:
            best = fit
        if fit.fit_residual < 1e-13:
            break
        hi /= 2.0
    if best is None:
        raise err if err is not None else DomainError(
            "fit window must contain at least 12 nodes")
    return best


def expansion_consistency(sol, nu, settings=DEFAULTS):
    """max(|g_- - gamma_- u|, |2 nu g_+ - gamma_+ u|) for a solve output.

    Compares the windowed expansion fit with the trace extraction on the same
    discrete solution; both should identify the boundary data of the
    continuum expansion for smooth interior data.
    """
    order = as_order(nu)
    if order.regime is not Regime.SUBCRITICAL:
        raise DomainError("trace comparison requires 0 < nu < 1")
    fit = fit_expansion(sol.u, order, settings=settings)
    tr = sol.traces if sol.traces is not None else traces(sol.u, order,
                                                          settings=settings)
    return float(max(abs(fit.g_minus - tr.gamma_minus),
                     abs(2.0 * order.nu * fit.g_plus - tr.gamma_plus)))
