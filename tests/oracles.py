"""Independent oracles used by the tests.

These deliberately avoid the library's evaluation paths (scipy.special):
ascending series summed to machine convergence, large-argument asymptotic
expansions, plain adaptive quadrature, and a dense SVD least-squares solve
of the assembled Galerkin system.  They exist so the dual-route checks
compare two genuinely different computations.
"""

import math

import numpy as np
from scipy import linalg as la
from scipy.integrate import quad


def gamma_c(z):
    """Gamma for real argument avoiding scipy.special (math.gamma)."""
    return math.gamma(z)


def series_I(nu, z, terms=200):
    """Ascending series I_nu(z) = sum (z/2)^{nu+2k} / (k! Gamma(nu+k+1))."""
    z = complex(z)
    half = z / 2.0
    total = 0.0 + 0.0j
    term = half ** nu / gamma_c(nu + 1.0)
    for k in range(terms):
        total += term
        term = term * half * half / ((k + 1.0) * (nu + k + 1.0))
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def series_K(nu, z):
    """K_nu from the connection formula (non-integer nu only)."""
    if abs(nu - round(nu)) < 1e-6:
        raise ValueError("series_K needs non-integer order")
    return (math.pi / 2.0) * (series_I(-nu, z) - series_I(nu, z)) \
        / math.sin(math.pi * nu)


def series_J(nu, x, terms=200):
    """Ascending series J_nu(x) = sum (-)^k (x/2)^{nu+2k} / (k! Gamma(nu+k+1))."""
    x = float(x)
    half = x / 2.0
    total = 0.0
    term = half ** nu / gamma_c(nu + 1.0)
    for k in range(terms):
        total += term
        term = -term * half * half / ((k + 1.0) * (nu + k + 1.0))
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def series_J_deriv(nu, x, h=1e-6):
    """Derivative of J_nu by central differences on the series."""
    return (series_J(nu, x + h) - series_J(nu, x - h)) / (2.0 * h)


def asymptotic_K(nu, z, terms=8):
    """Large-argument expansion K_nu(z) ~ sqrt(pi/2z) e^-z sum a_k(nu)/z^k."""
    z = complex(z)
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    for k in range(1, terms + 1):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
    return np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * total


def newton_zero_from_series(nu, guess, tol=1e-13, itmax=80):
    """Newton refinement of a zero of J_nu using only the series oracle."""
    x = float(guess)
    for _ in range(itmax):
        f = series_J(nu, x)
        if abs(f) < tol:
            return x
        x = x - f / series_J_deriv(nu, x)
    raise RuntimeError("newton on series oracle did not converge")


def quad_0_1(f, singular_points=()):
    """Adaptive quadrature on (0, 1) tolerant of endpoint singularities."""
    val, _ = quad(f, 0.0, 1.0, points=list(singular_points) or None,
                  limit=400)
    return val


def robin_interval(nu, a, beta, g):
    """Solution of (|D_nu|^2 + a) u = 0 on (0, 1), u(1) = 0,
    gamma_+ u + beta gamma_- u = g, from the ascending series.

    u = A sqrt(x) I_nu(k x) + B sqrt(x) I_{-nu}(k x) with k = sqrt(a); the
    first branch carries gamma_+ = 2 nu (k/2)^nu / Gamma(1+nu), the second
    gamma_- = (k/2)^{-nu} / Gamma(1-nu).  Returns (gamma_-, gamma_+, u).
    """
    k = math.sqrt(a)
    gp_i = 2.0 * nu * (k / 2.0) ** nu / gamma_c(1.0 + nu)
    gm_i = (k / 2.0) ** (-nu) / gamma_c(1.0 - nu)
    M = np.array([[series_I(nu, k), series_I(-nu, k)], [gp_i, beta * gm_i]])
    A, B = np.linalg.solve(M, np.array([0.0, g], dtype=complex))

    def u(x):
        return np.array([A * math.sqrt(xi) * series_I(nu, k * xi)
                         + B * math.sqrt(xi) * series_I(-nu, k * xi)
                         for xi in np.atleast_1d(x)])

    return B * gm_i, A * gp_i, u


def dense_galerkin_solve(A, rhs, cutoff=1e-11):
    """Dense reference for ``fem.galerkin_solve``: the same diagonal
    scaling, then a rank-revealing SVD least-squares solve (LAPACK gelsd)
    of ``A.toarray()``.  Returns (x, 2-norm effective condition)."""
    A = A.toarray()
    d = np.sqrt(np.abs(np.diag(A)))
    d[d == 0] = 1.0
    Dinv = 1.0 / d
    As = (A * Dinv[None, :]) * Dinv[:, None]
    x, _, rank, sv = la.lstsq(As, rhs * Dinv, cond=cutoff,
                              lapack_driver="gelsd")
    return x * Dinv, float(sv[0] / sv[rank - 1])


def _scaled_dense(A):
    """(As, d): the dense form of A scaled by d = |diag A|^{-1/2}."""
    A = A.toarray()
    d = np.sqrt(np.abs(np.diag(A)))
    d[d == 0] = 1.0
    d = 1.0 / d
    return (A * d[None, :]) * d[:, None], d


def dense_hermitian_eig(K, M, cutoff=1e-11):
    """Dense reference for ``fem.mass_deflated_eig``: every eigenpair of
    K u = lambda M u, sorted by modulus.

    Scales by K's diagonal, drops the directions of the scaled K below
    ``cutoff`` relative (SVD), and solves the reduced pencil through the
    Cholesky factor of K: the small eigenvalues are the reciprocals of the
    large eigenvalues of the compact L^{-1} M L^{-H} (``eigh``).  Also
    returns the eigenvalues of the same reduced pencil by QZ.
    """
    Ks, d = _scaled_dense(K)
    Ms = (M.toarray() * d[None, :]) * d[:, None]
    U, sv, _ = la.svd(0.5 * (Ks + Ks.conj().T))
    T = U[:, sv > cutoff * sv[0]]
    Kp = T.conj().T @ Ks @ T
    Mp = T.conj().T @ Ms @ T
    L = la.cholesky(0.5 * (Kp + Kp.conj().T), lower=True)
    B = la.solve_triangular(L, 0.5 * (Mp + Mp.conj().T), lower=True)
    B = la.solve_triangular(L, B.conj().T, lower=True).conj().T
    mu, W = la.eigh(0.5 * (B + B.conj().T))
    keep = mu > 1e-300
    lam = 1.0 / mu[keep]
    Z = la.solve_triangular(L.conj().T, W[:, keep], lower=False)
    idx = np.argsort(np.abs(lam))
    qz = la.eigvals(Kp, Mp)
    qz = qz[np.isfinite(qz)]
    return lam[idx], (T @ Z[:, idx]) * d[:, None], qz[np.argsort(np.abs(qz))]


def dense_companion_eigvals(A0, A1, A2):
    """Every eigenvalue of A0 + lam A1 + lam^2 A2 by QZ on the plain
    companion pencil (no scaling, no deflation), finite ones by modulus."""
    A0, A1, A2 = (A.toarray() for A in (A0, A1, A2))
    n = A0.shape[0]
    Z, Iden = np.zeros((n, n)), np.eye(n)
    lam = la.eigvals(np.block([[-A1, -A0], [Iden, Z]]),
                     np.block([[A2, Z], [Z, Iden]]))
    lam = lam[np.isfinite(lam)]
    return lam[np.argsort(np.abs(lam))]


def fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at one point z.

    The scalar Fornberg recurrence (Math. Comp. 51 (1988) 699-706), one node
    at a time; returns shape (len(x), m + 1).
    """
    n = len(x)
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def stencil_derivative(x, values, deriv, width):
    """Sliding-stencil derivative, one node and one np.dot at a time.

    Node i uses the ``width`` consecutive nodes centred on it, shifted
    inwards at the ends of the grid.
    """
    n = len(x)
    out = np.empty(n, dtype=complex)
    half = width // 2
    for i in range(n):
        lo = min(max(0, i - half), n - width)
        sl = slice(lo, lo + width)
        wts = fornberg_weights(x[i], x[sl], deriv)[:, deriv]
        out[i] = np.dot(wts, values[sl])
    return out


def stencil_error_estimate(x, values, deriv, width):
    """Relative change of the stencil derivative from ``width`` to
    ``width - 2`` over the interior nodes; None when too narrow to compare."""
    if width - 2 < deriv + 2:
        return None
    fine = stencil_derivative(x, values, deriv, width)
    rough = stencil_derivative(x, values, deriv, width - 2)
    inner = slice(width, max(len(x) - width, width + 1))
    scale = np.max(np.abs(fine[inner])) or 1.0
    return np.max(np.abs(fine[inner] - rough[inner])) / scale
