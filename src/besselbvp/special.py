"""Bessel-family evaluations and zero tables.

Every solver in this package ultimately leans on K_nu, I_nu and J_nu: the
decaying boundary-symbol solution is sqrt(x) K_nu(i xi x), the interval
eigenfunctions are sqrt(x) J_nu(j_{nu,n} x), and the Poisson lifts combine
K_nu and I_nu.  Evaluation is delegated to scipy.special (AMOS/Cephes), which
already switches between ascending series, continued fractions and asymptotic
expansions internally; this module adds the domain checks, explicit overflow
signalling and the general-order zero tables the rest of the package needs.

Conventions: orders are real and nonnegative; complex arguments of K_nu are
required to satisfy Re z > 0 (principal branch).  Callers holding the root
convention Im xi < 0 pass i*xi*x, which then has positive real part.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, OverflowSignalled, ZeroSearchError

__all__ = [
    "BesselZeroTable",
    "eval_K",
    "eval_I",
    "eval_J",
    "bessel_zeros",
    "sqrtx_K",
]


@dataclass(frozen=True)
class BesselZeroTable:
    """First zeros of J_nu, strictly increasing, residual below 1e-13."""

    order: float
    zeros: np.ndarray = field(repr=False)

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        if z.ndim != 1 or z.size == 0:
            raise DomainError("zero table must be a nonempty 1-d array")
        if np.any(z <= 0) or np.any(np.diff(z) <= 0):
            raise DomainError("zeros must be positive and strictly increasing")
        object.__setattr__(self, "zeros", z)

    def __len__(self):
        return self.zeros.size

    def __getitem__(self, n):
        return self.zeros[n]


def _check_order(nu):
    nu = float(nu)
    if nu < 0:
        raise DomainError(f"order must be nonnegative, got nu={nu}")
    return nu


def _guard(value, what, nu, z):
    v = np.asarray(value)
    if np.any(~np.isfinite(v)):
        raise OverflowSignalled(f"{what}(nu={nu}, z={z}) overflowed")
    return value


def eval_K(nu, z):
    """Modified Bessel function K_nu(z), Re z > 0.

    Overflow raises OverflowSignalled rather than returning inf; Re z <= 0
    is a domain error (principal branch only).
    """
    from scipy.special import kv

    nu = _check_order(nu)
    zarr = np.asarray(z, dtype=complex)
    if np.any(zarr.real <= 0):
        raise DomainError("eval_K requires Re z > 0 (principal branch)")
    zin = zarr if np.iscomplexobj(np.asarray(z)) or zarr.imag.any() else zarr.real
    val = _guard(kv(nu, zin), "K", nu, z)
    return val if np.ndim(z) else complex(val)


def eval_I(nu, z):
    """Modified Bessel function I_nu(z); small-z behaviour (z/2)^nu / Gamma(1+nu)."""
    from scipy.special import iv

    nu = _check_order(nu)
    zarr = np.asarray(z, dtype=complex)
    zin = zarr if np.iscomplexobj(np.asarray(z)) or zarr.imag.any() else zarr.real
    val = _guard(iv(nu, zin), "I", nu, z)
    return val if np.ndim(z) else complex(val)


def eval_J(nu, x):
    """Bessel function of the first kind J_nu(x) for real x > 0."""
    from scipy.special import jv

    nu = _check_order(nu)
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0):
        raise DomainError("eval_J requires x > 0")
    val = _guard(jv(nu, xarr), "J", nu, x)
    return val if np.ndim(x) else float(val)


def _zero_brackets(nu, count):
    """Intervals (a, b, sign J_nu(a)) holding the first ``count`` zeros.

    Scans J_nu on a grid of step pi/2 from x = nu upward.  Consecutive
    positive zeros of J_nu are more than pi/2 apart for every nu >= 0 (the
    smallest gap, j_{0,2} - j_{0,1}, is 3.12), and none lies below nu, so
    every zero sits in exactly one grid interval and each sign change
    certifies one zero: the count cannot skip an index.
    """
    from scipy.special import jv

    step = np.pi / 2.0
    brackets = []
    start = nu
    while len(brackets) < count:
        xs = start + step * np.arange(2 * (count - len(brackets)) + 8)
        fs = jv(nu, xs)
        for a, b, fa, fb in zip(xs[:-1], xs[1:], fs[:-1], fs[1:]):
            if fa != 0 and fa * fb <= 0:
                brackets.append((a, b, np.sign(fa)))
        start = xs[-1]
    return brackets[:count]


BESSEL_ZERO_RESIDUAL = 1e-13     # |J_nu| at which a zero's Newton loop stops
BESSEL_ZERO_MAX_NEWTON = 60      # Newton/bisection steps per zero


def bessel_zeros(nu, count):
    """First ``count`` positive zeros of J_nu, Newton-refined until |J_nu| < 1e-13.

    Each zero is bracketed by a sign change on a scan finer than the zero
    spacing (see ``_zero_brackets``); Newton steps that leave the bracket
    fall back to bisection, so the n-th entry is always the n-th zero.
    """
    from scipy.special import jv, jvp

    nu = _check_order(nu)
    count = int(count)
    if count < 1:
        raise DomainError("count must be >= 1")
    zeros = np.empty(count)
    for n, (lo, hi, sign_lo) in enumerate(_zero_brackets(nu, count)):
        x = 0.5 * (lo + hi)
        converged = False
        for _ in range(BESSEL_ZERO_MAX_NEWTON):
            f = jv(nu, x)
            fp = jvp(nu, x)
            xn = x - f / fp if fp != 0 else np.nan
            if abs(f) < BESSEL_ZERO_RESIDUAL:
                # one more step: Newton squares the residual-level error
                x = xn if lo < xn < hi else x
                converged = True
                break
            if np.sign(f) == sign_lo:
                lo = x
            else:
                hi = x
            x = xn if lo < xn < hi else 0.5 * (lo + hi)
        if not converged:
            raise ZeroSearchError(
                f"zero {n + 1} of J_{nu} did not converge below "
                f"{BESSEL_ZERO_RESIDUAL}"
            )
        zeros[n] = x
    return BesselZeroTable(nu, zeros)


def sqrtx_K(nu, tau, x):
    """sqrt(x) K_nu(tau x) on an array of x > 0; the decaying radial branch."""
    from scipy.special import kv

    x = np.asarray(x, dtype=float)
    return np.sqrt(x) * _guard(kv(nu, tau * x), "K", nu, "tau*x")

