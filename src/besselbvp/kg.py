"""Klein-Gordon reduction for stationary aAdS model metrics.

For g = x^{-2}(-dx^2 + gamma(x)) with gamma(x) = gamma0 + x^2 gamma1 + O(x^3)
even, the rescaled stationary Klein-Gordon operator at frequency lambda is

    P(lambda) = D_x^2 + (nu^2 - 1/4) x^{-2} + i x^{-1} e(x) D_x
                + (boundary wave operator conjugated by e^{i lambda t}),

a parameter-dependent Bessel operator of order nu = sqrt(mass + n^2/4); the
condition nu > 0 is the Breitenlohner-Freedman bound.  Writing
i x^{-1} e(x) D_x = i x^{-1} e(x) D_nu - (nu - 1/2) x^{-2} e(x) and using
e(x) = x^2 e0 + O(x^3) gives the runnable coefficients: b(x) = i e0 x and a
constant zeroth-order shift -(nu - 1/2) e0.

The geometry is accepted in Fefferman-Graham normal form (gamma0, gamma1,
e0); constructing a special boundary defining function from a raw metric is
the caller's obligation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .core import Order, as_order
from .errors import BFViolated, SignatureError
from .solve import BesselOperator
from .symbols import BoundarySymbol, NotElliptic, Sector, elliptic_roots

__all__ = ["ModelMetric", "KGReduction", "VerdictReport", "reduce",
           "ellipticity_verdicts", "mass_of_order"]


@dataclass(frozen=True)
class ModelMetric:
    """Boundary data of an even aAdS model metric in coordinates (t, y).

    ``gamma0``: Lorentzian matrix on the boundary (constant array, or a
    callable of y for verdict-only use); ``gamma1``: the x^2 correction;
    ``e0``: the x^2 coefficient of e(x) = (1/2) x d/dx log det gamma(x).
    """

    dim_n: int
    gamma0: object
    gamma1: object = None
    e0: float = 0.0

    def gamma0_at(self, y=None):
        g = self.gamma0(y) if callable(self.gamma0) else self.gamma0
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dim_n, self.dim_n):
            raise SignatureError(
                f"gamma0 must be {self.dim_n} x {self.dim_n} (t first)")
        return 0.5 * (g + g.T)

    def check_lorentzian(self, y=None):
        g = self.gamma0_at(y)
        ev = np.linalg.eigvalsh(g)
        if not (np.sum(ev > 0) == 1 and np.sum(ev < 0) == self.dim_n - 1):
            raise SignatureError(
                f"gamma0 eigenvalues {ev} are not Lorentzian (+,-,...,-)")
        return g


@dataclass(frozen=True)
class KGReduction:
    nu: Order
    bessel_op: object                 # BesselOperator, or None if y-dependent
    bf_satisfied: bool
    elliptic_verdict: bool
    parameter_elliptic_sectors: str
    boundary_symbol: object = None


def mass_of_order(nu, dim_n):
    """Klein-Gordon mass nu^2 - n^2/4 realising the given order."""
    return as_order(nu).nu ** 2 - dim_n ** 2 / 4.0


def reduce(metric, mass):
    """Order, pencil coefficients and ellipticity verdicts from (metric, mass).

    Raises BFViolated when mass + n^2/4 <= 0.  For a constant gamma0 the
    returned operator is runnable: its pencil_fourier(q) gives
    A(q, lambda) = a2 + a1 lambda + a0 lambda^2 from -gamma0^{-1}(q dy -
    lambda dt), and b(x) = i e0 x with the matching constant shift.
    """
    n = metric.dim_n
    nu_sq = mass + n * n / 4.0
    if nu_sq <= 0:
        raise BFViolated(
            f"mass {mass} + n^2/4 = {nu_sq} <= 0 violates the "
            "Breitenlohner-Freedman bound")
    order = Order(math.sqrt(nu_sq))

    if metric.gamma1 is not None and not callable(metric.gamma0):
        g0 = metric.gamma0_at()
        g1 = np.asarray(metric.gamma1, dtype=float)
        e0_expected = float(np.trace(np.linalg.solve(g0, g1)))
        if abs(metric.e0 - e0_expected) > 1e-6:
            warnings.warn(
                f"e0 = {metric.e0} violates the determinant relation "
                f"tr(gamma0^-1 gamma1) = {e0_expected}", stacklevel=2)

    report = ellipticity_verdicts(None, metric, samples=8)
    sectors = ("any angular sector disjoint from R \\ {0} "
               "(e.g. the imaginary axis)" if report.parameter_elliptic
               else "none certified: dt fails to be timelike at a sample")

    op = None
    sym = None
    if not callable(metric.gamma0):
        g0 = metric.check_lorentzian()
        ginv = np.linalg.inv(g0)
        sym = BoundarySymbol.from_boundary_metric(g0)

        def pencil_fourier(q):
            qv = np.atleast_1d(np.asarray(q, dtype=float))
            a2 = -float(qv @ ginv[1:, 1:] @ qv)
            a1 = complex(2.0 * (ginv[0, 1:] @ qv))
            a0 = complex(-ginv[0, 0])
            return a2, a1, a0

        e0 = float(metric.e0)
        shift = -(order.nu - 0.5) * e0
        b = Polynomial([0.0, 1j * e0]) if e0 != 0.0 else None
        op = BesselOperator(order, a_coeff=shift, b_coeff=b,
                            pencil_fourier=pencil_fourier)

    return KGReduction(order, op, True, report.elliptic, sectors,
                       boundary_symbol=sym)


@dataclass(frozen=True)
class VerdictReport:
    elliptic: bool
    parameter_elliptic: bool
    offending: tuple = ()

    def __iter__(self):
        return iter((self.elliptic, self.parameter_elliptic))


def ellipticity_verdicts(red, metric, samples=8):
    """Timelikeness checks at sampled boundary points plus root cross-checks.

    ``elliptic``: gamma0(dt_vec, dt_vec) > 0 at every sample (Killing field
    timelike); ``parameter_elliptic``: gamma0^{-1}(dt, dt) > 0 (conormal
    timelike).  Each sample is cross-validated by elliptic_roots on the
    induced boundary symbol, with lambda on the imaginary axis for the
    parameter-dependent case.
    """
    if samples < 8:
        raise SignatureError("need at least 8 samples")
    n = metric.dim_n
    if callable(metric.gamma0):
        ys = [np.full(max(n - 1, 1), 2.0 * math.pi * k / samples)
              for k in range(samples)]
    else:
        ys = [None] * samples

    elliptic = True
    parameter_elliptic = True
    offending = []
    sector = Sector.imaginary_axis()
    rng = np.random.default_rng(7)
    for y in ys:
        g = metric.check_lorentzian(y)
        ginv = np.linalg.inv(g)
        dt_timelike = g[0, 0] > 0
        conormal_timelike = ginv[0, 0] > 0
        elliptic &= bool(dt_timelike)
        parameter_elliptic &= bool(conormal_timelike)
        if not (dt_timelike and conormal_timelike):
            offending.append({"y": None if y is None else y.tolist(),
                              "gamma0_tt": float(g[0, 0]),
                              "inverse_tt": float(ginv[0, 0])})
        sym = BoundarySymbol.from_boundary_metric(g)
        for _ in range(4):
            eta = rng.standard_normal(sym.dim_eta)
            eta /= np.linalg.norm(eta)
            if dt_timelike:
                roots = elliptic_roots(sym, eta, 0.0)
                if isinstance(roots, NotElliptic):
                    raise SignatureError(
                        "elliptic_roots contradicts the timelike criterion "
                        f"at eta={eta}")
            if conormal_timelike:
                th = sector.angles(2)[0]
                lam = 0.7 * complex(math.cos(th), math.sin(th))
                roots = elliptic_roots(sym, 0.6 * eta, lam)
                if isinstance(roots, NotElliptic):
                    raise SignatureError(
                        "parameter ellipticity cross-check failed at "
                        f"eta={eta}, lambda={lam}")
    return VerdictReport(bool(elliptic), bool(parameter_elliptic),
                         tuple(offending))
