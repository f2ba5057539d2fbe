"""Quadrature rules and graded meshes for the singular radial direction.

Two kinds of rules appear throughout the package:

* plain-measure (dx) composite Gauss-Legendre rules on panels graded toward
  x = 0, used by grid functions and norm checks;
* single-panel Gauss-Jacobi rules with weight x^beta on (0, h), used by the
  Galerkin solver for entries whose integrand carries a known power of x.

Both are exact for polynomials against their respective measures, which is
what makes the trace/Green identities certifiable at tight tolerances.
"""

from functools import lru_cache

import numpy as np

from .errors import DomainError


@lru_cache(maxsize=256)
def _legendre(n):
    from scipy.special import roots_legendre
    x, w = roots_legendre(n)
    return x, w


@lru_cache(maxsize=4096)
def _jacobi01(beta, n):
    """Nodes/weights for int_0^1 t^beta f(t) dt, beta > -1."""
    if beta <= -1.0:
        raise DomainError(f"Jacobi exponent must exceed -1, got {beta}")
    if abs(beta) < 1e-14:
        x, w = _legendre(n)
        return (x + 1.0) / 2.0, w / 2.0
    from scipy.special import roots_jacobi
    x, w = roots_jacobi(n, 0.0, beta)
    t = (x + 1.0) / 2.0
    return t, w / 2.0 ** (beta + 1.0)


def jacobi_rule(beta, n, a=0.0, b=1.0):
    """Rule for int_a^b (x-a)^beta f(x) dx with f smooth (a is the singular end)."""
    t, w = _jacobi01(float(beta), int(n))
    h = b - a
    return a + h * t, w * h ** (beta + 1.0)


def legendre_rule(n, a, b):
    x, w = _legendre(int(n))
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, w * half


def graded_panels(x_max, n_panels, floor=1e-10):
    """Panel edges 0 = e_0 < e_1 < ... < e_K = x_max refined toward 0.

    Geometric: e_k = x_max * r^(K-k), the ratio r = floor^(1/(K-1)) clipped
    to [0.05, 0.75].
    """
    K = int(n_panels)
    if K < 1:
        raise DomainError("need at least one panel")
    if K == 1:
        return np.array([0.0, x_max])
    ratio = min(max(floor ** (1.0 / (K - 1)), 0.05), 0.75)
    edges = np.empty(K + 1)
    edges[0] = 0.0
    edges[1:] = x_max * ratio ** np.arange(K - 1, -1, -1)
    return edges


def composite_rule(edges, order):
    """Composite Gauss-Legendre nodes/weights over the given panel edges."""
    x, w = legendre_rule(order, edges[:-1, None], edges[1:, None])
    return x.ravel(), w.ravel()
