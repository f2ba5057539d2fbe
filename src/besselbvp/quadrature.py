"""Quadrature rules and graded meshes for the singular radial direction.

Two kinds of rules appear throughout the package:

* plain-measure (dx) composite Gauss-Legendre rules on panels graded toward
  x = 0, used by grid functions, norm checks and Galerkin bulk cells;
* rules with weight x^beta on (0, h): Gauss-Jacobi for core.branch_inner,
  and power_rule (fixed nodes, weights per beta) for the Galerkin origin cell.

Each is exact for polynomials against its measure, which is what makes the
trace/Green identities certifiable at tight tolerances.
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


@lru_cache(maxsize=16)
def _moment_basis(n):
    """Read-only: numpy's n Gauss-Legendre nodes t and weights omega of
    [0, 1], and (2k + 1) P_k(2 t_q - 1) at [k, q] for k < n."""
    from numpy.polynomial.legendre import leggauss, legvander
    x, w = leggauss(n)
    basis = legvander(x, n - 1).T * (2.0 * np.arange(n) + 1.0)[:, None]
    out = ((x + 1.0) / 2.0, w / 2.0, basis)
    for a in out:
        a.flags.writeable = False
    return out


def power_rule(beta, n, h=1.0):
    """(x, w): the n Gauss-Legendre nodes of [0, h] and, per entry of
    beta > -1, weights w[..., q] with sum_q w[..., q] g(x_q) = int_0^h
    x^beta g(x) dx for every polynomial g of degree < n.  Interpolatory:
    omega_q sum_k (2k+1) m_k P_k(2 t_q - 1) from the moments m_k = int_0^1
    t^beta P_k(2t - 1) dt = prod_{j<=k} (beta+1-j) / (beta+1+j) / (beta+1)
    (Gautschi, Orthogonal Polynomials, 2004, 2.1).  Near beta = -1 they grow
    like 1 / (beta + 1) with alternating signs."""
    t, omega, basis = _moment_basis(int(n))
    b1 = np.asarray(beta, dtype=float)[..., None] + 1.0
    if np.any(b1 <= 0.0):
        raise DomainError("x^beta is not integrable at 0 for beta <= -1")
    k = np.arange(1.0, n)
    m = np.cumprod(np.concatenate([1.0 / b1, (b1 - k) / (b1 + k)], axis=-1),
                   axis=-1)
    return h * t, h ** b1 * omega * (m @ basis)


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
