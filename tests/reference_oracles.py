"""Independent oracles used by the tests.

These deliberately avoid the library's evaluation paths (scipy.special):
ascending series summed to machine convergence, large-argument asymptotic
expansions, plain adaptive quadrature, a dense SVD least-squares solve
of the assembled Galerkin system, and mpmath's hypergeometric 0F1 for the
characteristic function of the lambda-Robin pencil.  They exist so the
dual-route checks compare two genuinely different computations.

The per-beta origin-cell assembly behind ``fem.Space``
(``PerBetaAssembly``) integrates cell 0 by one Gauss-Jacobi rule per
product power, where the library uses fixed nodes with weights per power,
and reports the sum of the moduli of its terms as the scale of a match.

Some oracles are references for bitwise equality instead: the scalar
Fornberg recurrence behind ``core.grid_derivative``, the
``numpy.polynomial.Polynomial`` form of the pair calculus behind
``core.BranchFunction``, the panel-by-panel composite
Gauss-Legendre rule and the three-pass relative strong residual
(``multipass_residual``).  They run the library's arithmetic one object,
one node, one panel or one pass at a time, so the vectorised code must
reproduce them exactly.
"""

import math

import mpmath
import numpy as np
from scipy import linalg as la
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyval
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


def band_matvec(A, x):
    """A x for a BorderedBand A and a vector x, as BorderedBand.__matmul__
    computed it before it took (n, k) blocks: the band products land in a
    (2p+1, m+2p) buffer, and a strided view sums its anti-diagonals."""
    x = np.asarray(x)
    xw = x[int(A.seeded):]
    p, m = A.p, A.band.shape[1]
    prod = np.zeros((2 * p + 1, m + 2 * p), dtype=np.result_type(A.band, x))
    np.multiply(A.band, xw, out=prod[:, p:p + m])
    item = prod.itemsize
    y = np.add.reduce(np.ndarray((2 * p + 1, m), prod.dtype, prod,
                                 2 * p * item,
                                 ((m + 2 * p - 1) * item, item)), axis=0)
    if not A.seeded:
        return y
    return np.concatenate(([A.corner * x[0] + A.row @ xw],
                           y + A.col * x[0]))


def lambda_robin_characteristic(nu, c, lam):
    """F(lam) = c lam 0F1(; nu+1; lam^2/4) - 2 nu 0F1(; 1-nu; lam^2/4).

    The Laplace pencil |D_nu|^2 + lam^2 on (0, 1) with u(1) = 0 and
    gamma_+ u + c lam gamma_- u = 0 has its eigenvalues at the zeros of F:
    with z = lam^2/4 the solutions combine x^{1/2+nu} 0F1(; nu+1; z x^2)
    (gamma_+ = 2 nu) and x^{1/2-nu} 0F1(; 1-nu; z x^2) (gamma_- = 1), and
    u(1) = 0 fixes their ratio.  Evaluated at mpmath's working precision.
    """
    z = mpmath.mpc(lam) ** 2 / 4
    return (c * lam * mpmath.hyp0f1(nu + 1, z)
            - 2 * nu * mpmath.hyp0f1(1 - nu, z))


def lambda_robin_eigenvalue(nu, c, guess):
    """The zero of lambda_robin_characteristic nearest ``guess`` (secant
    iteration at 30 digits)."""
    with mpmath.workdps(30):
        root = mpmath.findroot(
            lambda lam: lambda_robin_characteristic(mpmath.mpf(nu),
                                                    mpmath.mpf(c), lam),
            mpmath.mpc(guess))
    return complex(root)


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


def bessel_schroedinger_apply(u, nu):
    """|D_nu|^2 u = -u'' + (nu^2 - 1/4) x^{-2} u (one second-derivative pass),
    the Schroedinger form that d_nu* d_nu must reproduce."""
    from besselbvp.core import GridFunction, as_order, grid_derivative
    order = as_order(nu)
    if u.rep == "fnupair":
        return GridFunction(u.grid, fourier_index=u.fourier_index,
                            pair=u.pair.d_nu(order.nu).d_nu_star(order.nu),
                            order=order)
    d2 = grid_derivative(u.grid, u.values, deriv=2)
    vals = -d2 + (order.nu ** 2 - 0.25) * u.values / u.grid.nodes ** 2
    return u.with_values(vals)


# ---------------------------------------------------------------------------
# pair calculus with one Polynomial object per branch term
# ---------------------------------------------------------------------------

class PolyBranchFunction:
    """Sum of terms x^exponent * P(x), each P a numpy ``Polynomial``.

    Every operation goes through Polynomial arithmetic (``polyadd``,
    ``polymul``, ``polyder``, ``polyval``); ``core.BranchFunction`` keeps
    the coefficients as arrays and must agree with this bit for bit.
    """

    def __init__(self, terms):
        merged = {}
        for e, p in terms:
            p = p if isinstance(p, Polynomial) else Polynomial(np.atleast_1d(p))
            e, p = self._normalize(float(e), p)
            if p is None:
                continue
            key = round(e, 12)
            if key in merged:
                e, p = merged[key][0], merged[key][1] + p
            merged[key] = (e, p)
        self.terms = []
        for key in sorted(merged):
            e, p = self._normalize(*merged[key])
            if p is not None:
                self.terms.append((e, p))

    @staticmethod
    def _normalize(e, p):
        scale = np.max(np.abs(p.coef))
        if scale == 0:
            return e, None
        coef = np.array(p.coef)
        coef[np.abs(coef) <= 1e-12 * scale] = 0.0
        coef = np.trim_zeros(coef, 'b')
        if coef.size == 0:
            return e, None
        while coef.size > 1 and coef[0] == 0.0:
            e += 1.0
            coef = coef[1:]
        return e, Polynomial(coef)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for e, p in self.terms:
            out += x ** e * p(x)
        return out

    def d_nu(self, nu):
        return PolyBranchFunction(
            [(e - 1.0, (e + nu - 0.5) * p + Polynomial([0, 1]) * p.deriv())
             for e, p in self.terms])

    def d_nu_star(self, nu):
        return PolyBranchFunction(
            [(e - 1.0, -((e + 0.5 - nu) * p + Polynomial([0, 1]) * p.deriv()))
             for e, p in self.terms])

    def d_x(self):
        return PolyBranchFunction(
            [(e - 1.0, e * p + Polynomial([0, 1]) * p.deriv())
             for e, p in self.terms])

    def times_poly(self, q):
        q = q if isinstance(q, Polynomial) else Polynomial(np.atleast_1d(q))
        return PolyBranchFunction([(e, p * q) for e, p in self.terms])

    def __add__(self, other):
        return PolyBranchFunction(self.terms + other.terms)

    def scale(self, c):
        return PolyBranchFunction([(e, p * c) for e, p in self.terms])

    def dilate(self, tau):
        out = []
        for e, p in self.terms:
            coef = p.coef * tau ** np.arange(p.coef.size)
            out.append((e, Polynomial(coef) * tau ** e))
        return PolyBranchFunction(out)


def poly_pair(nu, minus_coeffs_in_x2=(), plus_coeffs_in_x=()):
    """x^{1/2-nu} m(x^2) + x^{1/2+nu} p(x) as a PolyBranchFunction."""
    terms = []
    m = np.atleast_1d(np.asarray(minus_coeffs_in_x2, dtype=complex))
    if m.size and np.any(m != 0):
        coef = np.zeros(2 * m.size - 1, dtype=complex)
        coef[::2] = m
        terms.append((0.5 - nu, Polynomial(coef)))
    p = np.atleast_1d(np.asarray(plus_coeffs_in_x, dtype=complex))
    if p.size and np.any(p != 0):
        terms.append((0.5 + nu, Polynomial(p)))
    return PolyBranchFunction(terms)


def poly_branch_inner(f, g, x_max):
    """int_0^xmax f conj(g) dx, one Gauss-Jacobi rule per branch pair."""
    from besselbvp.quadrature import jacobi_rule

    total = 0.0 + 0.0j
    for ef, pf in f.terms:
        for eg, pg in g.terms:
            npts = (pf.degree() + pg.degree()) // 2 + 2
            x, w = jacobi_rule(ef + eg, npts, 0.0, x_max)
            total += np.sum(w * pf(x) * np.conj(pg(x)))
    return total


def poly_traces(f, nu):
    """(gamma_-, gamma_+) of a pair: the constant terms of its two factors."""
    gm = gp = 0.0 + 0.0j
    for e, p in f.terms:
        if abs(e - (0.5 - nu)) < 1e-9:
            gm = complex(p(0.0))
        elif abs(e - (0.5 + nu)) < 1e-9:
            gp = 2.0 * nu * complex(p(0.0))
    return gm, gp


def poly_twisted_norm(f, s, nu, x_max, q_norm_sq=0.0):
    """Per-mode twisted H^s norm of a pair, s in {0, 1, 2}."""
    l2 = np.real(poly_branch_inner(f, f, x_max))
    if s == 0:
        return float(np.sqrt(max(l2, 0.0)))
    df = f.d_nu(nu)
    h1 = np.real(poly_branch_inner(df, df, x_max)) + (1.0 + q_norm_sq) * l2
    if s == 1:
        return float(np.sqrt(max(h1, 0.0)))
    cf = df.d_nu_star(nu)
    h2 = np.real(poly_branch_inner(cf, cf, x_max)) + (1.0 + q_norm_sq) * h1
    return float(np.sqrt(max(h2, 0.0)))


def poly_green_defect(op, f, g, nu, x_max):
    """|<Pf, g> - <f, P*g> - boundary pairing| for an operator with
    polynomial ``op.a_poly()`` and ``op.b_poly()``."""
    a_poly, b_poly = op.a_poly(), op.b_poly()
    pf = f.d_nu(nu).d_nu_star(nu) + f.times_poly(a_poly)
    if b_poly is not None:
        pf = pf + f.d_nu(nu).times_poly(b_poly).scale(-1.0j)
    pg = g.d_nu(nu).d_nu_star(nu) \
        + g.times_poly(Polynomial(np.conj(a_poly.coef)))
    if b_poly is not None:
        bbar = Polynomial(np.conj(b_poly.coef))
        pg = pg + g.times_poly(bbar).d_nu_star(nu).scale(1.0j)
    lhs = poly_branch_inner(pf, g, x_max)
    rhs = poly_branch_inner(f, pg, x_max)
    boundary = 0.0 + 0.0j
    if nu < 1.0:
        fm, fp = poly_traces(f, nu)
        gm, gp = poly_traces(g, nu)
        boundary = fp * np.conj(gm) - fm * np.conj(gp)
    return float(abs(lhs - rhs - boundary))


def poly_hardy_sides(f, nu, x_max):
    """(||f'||^2, ||d_nu f||^2) of a pair."""
    dx, dn = f.d_x(), f.d_nu(nu)
    return (float(np.real(poly_branch_inner(dx, dx, x_max))),
            float(np.real(poly_branch_inner(dn, dn, x_max))))


def loop_composite_rule(edges, order):
    """Composite Gauss-Legendre nodes/weights, one panel at a time."""
    from besselbvp.quadrature import legendre_rule
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = legendre_rule(order, a, b)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


class PerBetaAssembly:
    """S, M, A, B, load vectors and norms of a ``fem.Space``, with the origin
    cell integrated by one Gauss-Jacobi rule per product power beta.

    Each rule comes from scipy's ``roots_jacobi`` (24 nodes, exact for
    x^beta times any polynomial of degree 47) and gets its own image tables,
    from the Lagrange coefficients and their ``polyder``s formed afresh and
    the seed factors evaluated as ``Polynomial``s; every sum is its own
    einsum.  Each result comes with ``size``, the same sum over the moduli
    of its quadrature terms: the scale of its rounding.  Only the space's
    mesh, powers, DOF map and assembly helpers are shared.
    """

    def __init__(self, space):
        from besselbvp import fem
        self.space = space
        p = space.degree
        self.lagrange = np.linalg.inv(
            np.vander(fem.lobatto_nodes(p), p + 1, increasing=True))
        seed_poly = Polynomial(space._seed_factors[0])
        r1_x = Polynomial(seed_poly.deriv().coef[1:])
        self.seed_factors = (seed_poly, r1_x, -seed_poly.deriv(2)
                             - (1.0 - 2.0 * space.order.nu) * r1_x)
        self.rules = {}
        a, b = space.edges[1:-1, None], space.edges[2:, None]
        xq, wq = fem.legendre_rule(p + 8, a, b)
        self.bulk = xq, wq, {
            key: tab * xq[:, None, :] ** space._powers[key][:, None]
            for key, tab in self.images(xq, a, b - a).items()}

    def images(self, x, a, h):
        nuval = self.space.order.nu
        t = (x - a) / h
        L = polyval(t, self.lagrange)
        L1 = polyval(t, polyder(self.lagrange)) / h
        L2 = polyval(t, polyder(self.lagrange, 2)) / h ** 2
        tables = [L, x * L1 + 2.0 * nuval * L,
                  -x * L2 - (1.0 + 2.0 * nuval) * L1]
        if self.space.include_minus:
            live = x < self.space.rho_xc
            tables = [np.concatenate([tab, np.where(live, r(x), 0.0)[None]])
                      for tab, r in zip(tables, self.seed_factors)]
        return {key: np.moveaxis(tab, 0, -2).astype(complex)
                for key, tab in zip("vdc", tables)}

    def first_rule(self, beta):
        """(x, w, tables) of the Gauss-Jacobi rule for x^beta on cell 0."""
        from scipy.special import roots_jacobi
        if beta not in self.rules:
            h = self.space.edges[1]
            y, w = roots_jacobi(24, 0.0, beta)
            x = h * (y + 1.0) / 2.0
            self.rules[beta] = (x, w * (h / 2.0) ** (beta + 1.0),
                                self.images(x, 0.0, h))
        return self.rules[beta]

    def first_cell(self, f, g, beta, coeff=None):
        """(value, size) of the cell-0 sums int f_i conj(g_j) c dx, entry
        [j, i] by the rule of beta[j, i]; f and g map a rule's tables to
        the trial and test rows."""
        value = np.zeros(beta.shape, dtype=complex)
        size = np.zeros(beta.shape)
        for (j, i), b in np.ndenumerate(beta):
            x, w, tabs = self.first_rule(b)
            if coeff is not None:
                w = w * np.asarray(coeff(x), dtype=complex)
            terms = np.einsum("q,q,q->q", w, f(tabs)[i], np.conj(g(tabs)[j]))
            value[j, i], size[j, i] = terms.sum(), np.abs(terms).sum()
        return value, size

    def matrices(self, a_fun=None, b_fun=None):
        """{name: (operator, size)}, both assembled as BorderedBands."""
        space = self.space
        forms = {"S": ("d", "d", None, 1.0), "M": ("v", "v", None, 1.0)}
        if a_fun is not None:
            forms["A"] = ("v", "v", a_fun, 1.0)
        if b_fun is not None:
            forms["B"] = ("d", "v", b_fun, -1j)
        powers = space._powers
        xq, wq, tables = self.bulk
        mats = {}
        for name, (trial, test, coeff, factor) in forms.items():
            beta = np.add.outer(powers[test], powers[trial])
            first, size0 = self.first_cell(lambda t: t[trial],
                                           lambda t: t[test], beta, coeff)
            wk = wq if coeff is None \
                else wq * np.asarray(coeff(xq), dtype=complex)
            terms = np.einsum("kq,kiq,kjq->kjiq", wk, tables[trial],
                              np.conj(tables[test]))
            loc = factor * np.concatenate([first[None], terms.sum(-1)])
            size = np.concatenate([size0[None], np.abs(terms).sum(-1)])
            mats[name] = (space._assemble(loc), space._assemble(size))
        return mats

    def load_vector(self, f, singular_exponent=0.0):
        """(vector, size) of <f, phi_i>."""
        space = self.space
        power = space._powers["v"]
        terms = np.zeros((space.n_cells, power.size), dtype=complex)
        size = np.zeros(terms.shape)
        for i, e in enumerate(power):
            x, w, images = self.first_rule(e + singular_exponent)
            t = w * np.conj(images["v"][i]) \
                * np.asarray(f(x), dtype=complex) / x ** singular_exponent
            terms[0, i], size[0, i] = t.sum(), np.abs(t).sum()
        xq, wq, tables = self.bulk
        t = np.einsum("kq,kiq->kiq", wq * np.asarray(f(xq), dtype=complex),
                      np.conj(tables["v"]))
        terms[1:], size[1:] = t.sum(-1), np.abs(t).sum(-1)
        return space._assemble_vector(terms), space._assemble_vector(size)

    def norms(self, coeffs, q2=0.0):
        """((H0^2, H1^2, H2^2), their sizes)."""
        space = self.space
        local = space._local_coeffs(coeffs)
        heads = [0, space.degree + 1][:1 + int(space.include_minus)]
        xq, wq, tables = self.bulk
        sq, size = [], []
        for key in ("v", "d", "c"):
            pw = space._powers[key][heads]

            def parts(tabs):
                return np.add.reduceat(local[0, :, None] * tabs[key], heads,
                                       axis=0)

            first, size0 = self.first_cell(parts, parts, np.add.outer(pw, pw))
            t = wq * np.abs(np.einsum("ki,kiq->kq", local[1:],
                                      tables[key])) ** 2
            sq.append(float(np.real(first.sum())) + float(t.sum()))
            size.append(float(size0.sum()) + float(t.sum()))
        out = []
        for v in (sq, size):
            h1sq = v[1] + (1.0 + q2) * v[0]
            out.append((v[0], h1sq, v[2] + (1.0 + q2) * h1sq))
        return tuple(out)


def _window_residual(space, coeffs, op_values, f=None):
    """||op_values - f||_{L2} over the resolved window of ``space``, with the
    images of ``coeffs`` and f evaluated afresh on each call."""
    from besselbvp import fem
    lo = max(space.resolved_start, 1)
    xq, wq, tables = space._bulk
    local = space._local_coeffs(coeffs)[lo:]
    u, du, cu = (np.einsum("ki,kiq->kq", local, tables[key][lo - 1:])
                 .reshape(-1) for key in ("v", "d", "c"))
    x = xq[lo - 1:].reshape(-1)
    r = op_values(x, u, du, cu)
    if f is not None:
        r = r - fem._at(f, x)
    return float(np.sqrt(np.sum(wq[lo - 1:].reshape(-1) * np.abs(r) ** 2)))


def multipass_residual(space, op, c, coeffs, rhs):
    """Relative strong residual of ``solve._residual`` in separate passes:
    ||P u_h - f|| on ``coeffs``, ||f|| on a zero coefficient vector, and
    for f = 0 the term sizes |cu| + |a u| + |b d_nu u| on ``coeffs``."""
    from besselbvp.solve import _as_callable
    a_fun, b_fun = _as_callable(op.a_coeff), _as_callable(op.b_coeff)
    f = _as_callable(rhs)

    def terms(xq, u, du):
        au = (np.asarray(a_fun(xq), dtype=complex) + c) * u
        bdu = 0.0 if b_fun is None \
            else -1j * np.asarray(b_fun(xq), dtype=complex) * du
        return au, bdu

    def op_values(xq, u, du, cu):
        au, bdu = terms(xq, u, du)
        return cu + au + bdu

    def term_sizes(xq, u, du, cu):
        au, bdu = terms(xq, u, du)
        return np.abs(cu) + np.abs(au) + np.abs(bdu)

    rnorm = _window_residual(space, coeffs, op_values, f=f)
    fn = _window_residual(space, np.zeros(space.n),
                          lambda x, u, du, cu: 0 * u, f=f)
    scale = fn if fn > 0 else _window_residual(space, coeffs, term_sizes)
    return rnorm / scale if scale > 0 else rnorm
