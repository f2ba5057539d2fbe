"""Weighted Galerkin discretisation of 1D Bessel operators.

The unknown is substituted as u = x^{1/2+nu} w, which maps the twisted
energy isometrically onto the Jacobi-weighted form

    <d_nu u, d_nu v> = int x^{1+2nu} w' conj(phi') dx      (capped spaces),

so w is discretised by ordinary piecewise Lagrange polynomials on a graded
mesh; the weight handles the singularity and the nodal value w(0) *is* the
weighted Neumann trace: gamma_+ u = 2 nu w(0).  For subcritical orders the
x^{1/2-nu} branch is carried by one explicit seed function

    G(x) = x^{1/2-nu} rho(x),  rho an even polynomial cutoff, rho(0) = 1,

whose coefficient *is* gamma_- u (rho even keeps gamma_+ G = 0).  The seed
stays a finite angle away from the substituted space (its x^{-2nu} profile is
not replicable by bounded piecewise polynomials), so the basis has no hidden
near-degeneracy.

The value, d_nu and |D_nu|^2 images of every local function are x^power
times a polynomial, with one of four branch powers (nu +- 1/2 for the
Lagrange functions, 1/2 - nu and 3/2 - nu for the seed).  One helper,
Space._images, tabulates the polynomial factors at any points; every
consumer integrates these tables.  The tables are real (so are the Lagrange
and seed polynomials): S and M are contracted in real arithmetic, and
complex numbers enter only with a complex coefficient, load or coefficient
vector.  The assembled operators are complex.  Cells away from the origin
multiply the tables by x^power and use Gauss-Legendre, vectorised over
cells.  On the origin cell the entries of a form are grouped by their
product power beta and each group is integrated exactly by the 24-point
Gauss-Jacobi rule for x^beta, one einsum per form (first_cell_inner), the
rules of a whole call tabulated in one pass (Space._first_rules).  Matrix
convention: entry[row j, col i] = <op(phi_i), phi_j>, inner product linear
in the first slot.  A local-to-global DOF map makes every operator a band of
half-width p (the degree) plus, with the seed, one border row and column
(BorderedBand); solves cost O(n) through a banded LU and one Schur step.
A BorderedBand multiplies a vector or an (n, k) block by the same strided
sum over its diagonals, O(n k) per block; norm_bound, the residual scale
of every spectrum, bounds its 2-norm from the same storage in O(n p).
Count-limited eigensolves cost O(n) per Krylov step: mass_deflated_eig
runs ARPACK's Lanczos on one banded Cholesky factor of the scaled K (so
does pencil_eig with a count for an even real symmetric pencil); any other
count-limited pencil runs shift-invert Arnoldi through the banded LU.
Full pencil spectra are dense.  When the scaled A0 and A2 are
Hermitian and A0 is definite, one n x n eigh of (A2, A0) reduces the pencil:
lam = +-sqrt(mu) in closed form when A1 = 0; for an A1 that is only the
seed corner (the lambda-Robin row) one 2n x 2n eigvals in 1 / lam, each
eigenvector in closed form; for any other A1 one 2n x 2n eig with vectors.
Any other pencil goes through companion QZ (real QZ for real operators).

Across the package, scipy is imported inside the functions that call it,
never at module level: ``import besselbvp`` loads numpy alone, and the
first scipy-backed call of a process pays scipy's set-up (about 0.3 s).
Once scipy is loaded such an import costs about a microsecond; none runs
in an ARPACK callback (_BorderedLU binds zgbtrs once per factorisation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import Legendre
from numpy.polynomial.polynomial import polyder, polyval

from .config import DEFAULTS
from .core import as_order
from .errors import DomainError, SingularSystem
from .quadrature import jacobi_rule, legendre_rule

RANK_CUTOFF = 1e-11
MIN_CELLS = 6           # fewest mesh cells a Space accepts


def lobatto_nodes(p):
    """Gauss-Lobatto nodes on [0, 1] (roots of P'_p plus endpoints)."""
    if p == 1:
        return np.array([0.0, 1.0])
    inner = Legendre.basis(p).deriv().roots()
    return np.concatenate(([0.0], (np.real(inner) + 1.0) / 2.0, [1.0]))


@lru_cache(maxsize=None)
def _lagrange_tables(p):
    """Read-only t-monomial coefficients of the Lobatto Lagrange functions
    (column i for function i) and of their first two derivatives."""
    lag = np.linalg.inv(np.vander(lobatto_nodes(p), p + 1, increasing=True))
    tables = (lag, polyder(lag), polyder(lag, 2))
    for tab in tables:
        tab.flags.writeable = False
    return tables


def solver_mesh(x_max, n_cells, floor=1e-8, outward=False):
    """Graded mesh: a geometric tail into x = 0, then uniform or growing cells.

    The geometric tail (ratio 1/4 down to ``floor * x_max``)
    resolves the fractional powers x^{3/2-nu}, x^{2-2nu} that the substituted
    unknown contains.  The bulk is uniform by default (oscillatory interval
    eigenfunctions); with ``outward`` the bulk cells grow geometrically, the
    right layout for exponentially decaying half-line solutions whose
    structure concentrates at x = O(1).  ``n_cells`` is at least MIN_CELLS
    (Space refuses fewer); an outward mesh gets one cell more.
    """
    h_target = x_max / n_cells if not outward \
        else x_max / (12.0 * n_cells)
    n_tail = int(np.ceil(np.log(h_target / (floor * x_max))
                         / np.log(4.0)))
    n_tail = min(max(n_tail, 1), max(n_cells // 2, min(n_cells - 4, 40)))
    tail = h_target * 0.25 ** np.arange(n_tail, 0, -1)
    n_bulk = n_cells - n_tail
    if not outward:
        bulk = np.linspace(h_target, x_max, n_bulk)
    else:
        # growth ratio g solves h (g^n - 1)/(g - 1) = x_max - h_target
        span = x_max - h_target
        lo, hi = 1.0 + 1e-9, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            total = h_target * (mid ** n_bulk - 1.0) / (mid - 1.0)
            if total < span:
                lo = mid
            else:
                hi = mid
        g = 0.5 * (lo + hi)
        steps = h_target * g ** np.arange(n_bulk)
        bulk = h_target + np.cumsum(steps) * (span / steps.sum())
    edges = np.concatenate(([0.0], tail, [h_target], bulk))
    return np.unique(edges)


def first_cell_inner(x, w, f, g, mask, coeff=None):
    """Cell-0 integrals int_0^h f_i conj(g_j) c dx of one form, entry [j, i].

    Rule r (nodes x[r], weights w[r]) is the Gauss-Jacobi rule of the
    product power x^beta_r and integrates the entries with mask[r, j, i];
    f[r] and g[r] hold the trial and test tables at its nodes, without the
    x^power factors.
    """
    if coeff is not None:
        w = w * _at(coeff, x)
    return np.einsum("rq,riq,rjq,rji->ji", w, f, np.conj(g), mask)


class _Rho:
    """Even polynomial cutoff rho(x) = (1 - (x/xc)^2)^4 on [0, xc], else 0."""

    def __init__(self, xc):
        self.xc = float(xc)
        self.poly = Polynomial([1.0, 0.0, -1.0 / self.xc ** 2]) ** 4


def _at(fun, x):
    """fun at the points x (called on the flattened array), shaped like x."""
    flat = np.ravel(x)
    vals = np.broadcast_to(np.asarray(fun(flat), dtype=complex), flat.shape)
    return vals.reshape(np.shape(x))


def _band_rows(p, m):
    """Row index of each slot of (2p+1, m) band storage (may fall outside)."""
    return np.arange(m)[None, :] + np.arange(2 * p + 1)[:, None] - p


def _blas_layout(x):
    """(y, t): a column-major y with x = y (t = 0) or x = y.T (t = 1), read
    as numpy's matmul reads x (row-major when its last stride is one item)."""
    return (x.T, 1) if x.strides[-1] == x.itemsize else (x, 0)


def _matmul(a, b):
    """``a @ b`` of 1-D and 2-D arrays (not both 1-D) in scipy's BLAS.

    The numpy and scipy wheels each bundle their own OpenBLAS with its own
    pool of worker threads.  A numpy product large enough to thread wakes
    numpy's pool, whose spinning workers then contend with the pool that
    runs scipy's LAPACK and ARPACK calls.  So the dense products of the
    eigensolvers run here, in scipy's BLAS, and one pool serves them all.
    Each call passes the layout and transposition flags numpy's matmul
    passes its BLAS, so on one thread the kernels sum in numpy's order.
    """
    from scipy.linalg.blas import get_blas_funcs

    dtype = np.result_type(a, b)
    # numpy casts an operand into a C-ordered copy
    a, b = (x if x.dtype == dtype else np.ascontiguousarray(x, dtype)
            for x in (np.asarray(a), np.asarray(b)))
    if a.size == 0 or b.size == 0:      # no BLAS call in numpy either
        return a @ b
    if a.ndim == 1:                     # x @ B = B^T x
        a, b = b.T, a
    if b.ndim == 1:
        if a.shape[0] == 1:     # one entry: numpy's own unthreaded dot
            return a @ b
        gemv = get_blas_funcs("gemv", dtype=dtype)
        y, t = _blas_layout(a)
        return gemv(1.0, y, b, trans=t)
    # (a b)^T = b^T a^T in column-major storage, as numpy's row-major gemm
    gemm = get_blas_funcs("gemm", dtype=dtype)
    (y, ty), (z, tz) = _blas_layout(b.T), _blas_layout(a.T)
    return gemm(1.0, y, z, trans_a=ty, trans_b=tz).T


@dataclass(frozen=True)
class BorderedBand:
    """Square operator on a Space's dofs in band-plus-border storage.

    ``band[p + i - j, j]`` holds entry (i, j) of the Lagrange block (half
    bandwidth p, the LAPACK band layout); slots outside the matrix are zero.
    A seeded space puts its seed first: ``row`` holds the entries
    (seed, w_j), ``col`` the entries (w_i, seed) and ``corner`` (seed, seed).
    Unseeded operators carry ``row = col = None``.

    ``A @ x`` takes a vector or an (n, k) block.  The block columns ride
    along as a trailing axis of the vector product, so each column of
    ``A @ X`` equals ``A @ X[:, j]`` bitwise, except the seed row: a block
    sums ``row @ X`` through scipy's gemv (_matmul), a vector ``row @ x``
    through numpy's dot, in different orders (rounding level).
    """

    band: np.ndarray
    row: np.ndarray = None
    col: np.ndarray = None
    corner: complex = 0.0

    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    @property
    def p(self):
        return (self.band.shape[0] - 1) // 2

    @property
    def seeded(self):
        return self.row is not None

    @property
    def shape(self):
        n = self.band.shape[1] + int(self.seeded)
        return (n, n)

    @property
    def nbytes(self):
        """Bytes actually stored: band, border and corner."""
        border = self.row.nbytes + self.col.nbytes + 16 if self.seeded else 0
        return self.band.nbytes + border

    def __add__(self, other):
        if self.seeded != other.seeded:
            raise DomainError("operators on different spaces")
        if not self.seeded:
            return BorderedBand(self.band + other.band)
        return BorderedBand(self.band + other.band, self.row + other.row,
                            self.col + other.col, self.corner + other.corner)

    def __rmul__(self, c):
        if not self.seeded:
            return BorderedBand(c * self.band)
        return BorderedBand(c * self.band, c * self.row, c * self.col,
                            c * self.corner)

    def __matmul__(self, x):
        """A x for a vector x, or A X column by column for an (n, k) block."""
        x = np.asarray(x)
        xw = x[int(self.seeded):]
        p, m = self.p, self.band.shape[1]
        block = x.shape[1:]                 # () for a vector, (k,) for a block
        along = (...,) + (None,) * len(block)
        dtype = np.result_type(self.band, x)
        if not self.band.any():
            # a zero band (the A1 of a Laplace or corner-only lambda-Robin
            # pencil): only the seed terms below are nonzero
            y = np.zeros((m,) + block, dtype)
        else:
            # prod[r, p + j] = A[j + r - p, j] x_j, so (A x)_i sums the
            # slots prod[r, i + 2p - r]: a strided view walks those
            # anti-diagonals, the block columns riding along as a trailing
            # axis
            prod = np.zeros((2 * p + 1, m + 2 * p) + block, dtype)
            np.multiply(self.band[along], xw, out=prod[:, p:p + m])
            st = prod.strides
            y = np.add.reduce(np.ndarray((2 * p + 1, m) + block, dtype,
                                         prod, 2 * p * st[1],
                                         (st[0] - st[1],) + st[1:]), axis=0)
        if not self.seeded:
            return y
        seed = _matmul(self.row, xw) if block else self.row @ xw
        return np.concatenate(([self.corner * x[0] + seed],
                               y + self.col[along] * x[0]))

    def toarray(self):
        n = self.shape[0]
        s = int(self.seeded)
        rows = _band_rows(self.p, n - s)
        cols = np.broadcast_to(np.arange(n - s), rows.shape)
        inside = (rows >= 0) & (rows < n - s)
        out = np.zeros((n, n), dtype=complex)
        out[s + rows[inside], s + cols[inside]] = self.band[inside]
        if s:
            out[0, 0] = self.corner
            out[0, 1:] = self.row
            out[1:, 0] = self.col
        return out

    def adjoint(self):
        """The conjugate transpose, in the same storage."""
        p, m = self.p, self.band.shape[1]
        band = np.zeros_like(self.band)
        for r in range(2 * p + 1):
            off = r - p
            lo, hi = max(0, -off), min(m, m - off)
            band[2 * p - r, lo + off:hi + off] = np.conj(self.band[r, lo:hi])
        if not self.seeded:
            return BorderedBand(band)
        return BorderedBand(band, np.conj(self.col), np.conj(self.row),
                            np.conj(self.corner))

    def diagonal(self):
        d = self.band[self.p]
        return np.concatenate(([self.corner], d)) if self.seeded else d.copy()

    def lagrange_block(self):
        """The operator without its seed row and column."""
        return BorderedBand(self.band)

    def real(self):
        """The real part of an unseeded operator, as real band storage."""
        if self.seeded:
            raise DomainError("real() takes an unseeded operator")
        return BorderedBand(self.band.real)

    def scaled(self, d):
        """diag(d) A diag(d), d over all dofs (seed first)."""
        s = int(self.seeded)
        dw = d[s:]
        m = dw.size
        rows = _band_rows(self.p, m)
        drow = np.where((rows >= 0) & (rows < m), dw[np.clip(rows, 0, m - 1)],
                        0.0)
        band = self.band * drow * dw[None, :]
        if not s:
            return BorderedBand(band)
        return BorderedBand(band, d[0] * self.row * dw, d[0] * self.col * dw,
                            d[0] * d[0] * self.corner)

    def unit_diagonal(self):
        """(diag(d) A diag(d), d) with d = |diag A|^{-1/2} (1 where it is 0)."""
        d = _inverse_diag_sqrt(self.diagonal())
        return self.scaled(d), d

    def norm1(self):
        colsum = np.abs(self.band).sum(axis=0)
        if not self.seeded:
            return float(colsum.max())
        return float(max(abs(self.corner) + np.abs(self.col).sum(),
                         (colsum + np.abs(self.row)).max()))


class Space:
    """Substituted-variable space x^{1/2+nu} W_h (+ minus seed) on (0, X).

    The node count selects the mesh: ``n_nodes // degree`` cells of degree
    ``settings.fem_degree`` (see solver_mesh), ``n_nodes`` defaulting to
    ``settings.default_nodes``.  Fewer than MIN_CELLS cells raise
    DomainError.

    DOF map: the seed (when present) is dof 0; cell k owns the Lagrange dofs
    s + k p + (0..p), s the seed count, neighbouring cells sharing their edge
    dof.  A Dirichlet cap drops the dof of the last edge.
    """

    def __init__(self, nu, x_max, n_nodes=None, dirichlet_cap=True,
                 include_minus=None, outward=False, settings=DEFAULTS):
        self.order = as_order(nu)
        self.settings = settings
        self.degree = int(settings.fem_degree)
        if n_nodes is None:
            n_nodes = settings.default_nodes
        n_cells = int(n_nodes) // self.degree
        if n_cells < MIN_CELLS:
            raise DomainError(
                f"{n_nodes} nodes give {n_cells} cells of degree "
                f"{self.degree}; at least {MIN_CELLS} are needed")
        self.x_max = float(x_max)
        self.dirichlet_cap = bool(dirichlet_cap)

        subcritical = self.order.needs_boundary_conditions
        if include_minus is None:
            include_minus = subcritical
        if include_minus and not subcritical:
            raise DomainError("x^{1/2-nu} branch only exists for 0 < nu < 1")
        self.include_minus = include_minus

        # The substituted unknown contains fractional powers x^{3/2-nu} (from
        # smooth interior data) and x^{2-2nu} (minus-branch corrections); the
        # Galerkin nodal value w(0) = gamma_+/(2 nu) picks up a systematic
        # O(h_0^mu) error with mu the smallest such exponent, so the tail
        # floor adapts to nu.  The exponent gap closes as nu -> 1: trace
        # extraction conditioning degrades there no matter the mesh.
        mu = 1.5 - self.order.nu
        if include_minus:
            mu = min(mu, 2.0 - 2.0 * self.order.nu)
        if mu > 0:
            # deeper than ~1e-14 the x^{1+2nu}-weighted entries underflow
            floor = float(np.clip((1e-9) ** (1.0 / mu), 1e-14, 1e-8))
        else:
            floor = 1e-8
        self.edges = solver_mesh(x_max, n_cells, floor=floor,
                                 outward=outward)

        # the cutoff scale of the minus-branch seed: the last edge at or
        # below half the domain
        cut_idx = int(np.searchsorted(self.edges, self.x_max / 2.0,
                                      side="right") - 1)
        self.rho = _Rho(self.edges[max(cut_idx, 1)])
        # the seed's image factors r, r'/x and -r'' - (1-2nu) r'/x, formed in
        # x (r is even, so r' = x (r'/x)): pushing the cancellation through
        # t = x/h would lose the h^2 structure of r(h t) on a ~1e-9 cell
        r = self.rho.poly
        r1_x = Polynomial(r.deriv().coef[1:])
        self._seed_factors = (r, r1_x, -r.deriv(2)
                              - (1.0 - 2.0 * self.order.nu) * r1_x)

        p = self.degree
        self.n_cells = self.edges.size - 1
        seeds = int(include_minus)
        self.idx_minus = 0 if include_minus else None
        self.idx_w0 = seeds
        self.n = seeds + self.n_cells * p + (0 if self.dirichlet_cap else 1)
        self._lagrange = _lagrange_tables(p)
        # the branch power of each local function's value, d_nu and
        # |D_nu|^2 images: x^{1/2+nu} W_h gives nu+1/2, nu-1/2, nu-1/2 and
        # the seed x^{1/2-nu} r gives 1/2-nu, 3/2-nu, 1/2-nu
        nuval = self.order.nu
        self._powers = {
            key: np.array([lag] * (p + 1) + [seed] * seeds)
            for key, lag, seed in (("v", nuval + 0.5, 0.5 - nuval),
                                   ("d", nuval - 0.5, 1.5 - nuval),
                                   ("c", nuval - 0.5, 0.5 - nuval))}
        self._rules = {}

    # -- the DOF map ------------------------------------------------------------

    def _local_coeffs(self, coeffs):
        """(K, p+1+s) coefficients of each cell's local functions (seed
        last); an (n, k) coefficient matrix gives (K, k, p+1+s)."""
        c = np.asarray(coeffs, dtype=complex)
        p, K = self.degree, self.n_cells
        s = int(self.include_minus)
        w = np.zeros((K * p + 1,) + c.shape[1:], dtype=complex)
        w[:self.n - s] = c[s:]
        local = np.ascontiguousarray(np.moveaxis(
            w[p * np.arange(K)[:, None] + np.arange(p + 1)], 1, -1))
        if s:
            seed = np.broadcast_to(c[0][..., None], local.shape[:-1] + (1,))
            local = np.concatenate([local, seed], axis=-1)
        return local

    def _scatter(self, loc):
        """Lagrange part of a global vector from per-cell entries loc[k, 0..p]."""
        p, K = self.degree, self.n_cells
        w = np.zeros(K * p + 1, dtype=complex)
        w[:K * p] += loc[:, :p].reshape(-1)
        w[p::p] += loc[:, p]
        return w[:self.n - int(self.include_minus)]

    def _assemble_vector(self, loc):
        """Global vector from per-cell entries loc[k, i] (seed last)."""
        w = self._scatter(loc)
        if not self.include_minus:
            return w
        return np.concatenate(([loc[:, self.degree + 1].sum()], w))

    def _assemble(self, loc):
        """BorderedBand from per-cell matrices loc[k, j, i] (seed last),
        summed in loc's dtype and stored complex."""
        p, K = self.degree, self.n_cells
        j, i = np.meshgrid(np.arange(p + 1), np.arange(p + 1), indexing="ij")
        blocks = np.zeros((2 * p + 1, K, p + 1), dtype=loc.dtype)
        blocks[p + j - i, :, i] = np.moveaxis(loc[:, j, i], 0, -1)
        band = np.zeros((2 * p + 1, K * p + 1), dtype=loc.dtype)
        band[:, :K * p] += blocks[:, :, :p].reshape(2 * p + 1, -1)
        band[:, p::p] += blocks[:, :, p]
        m = self.n - int(self.include_minus)
        band = band[:, :m].astype(complex)
        band[_band_rows(p, m) >= m] = 0.0      # couplings to a capped dof
        if not self.include_minus:
            return BorderedBand(band)
        s = p + 1
        return BorderedBand(band, self._scatter(loc[:, s]),
                            self._scatter(loc[:, :, s]),
                            loc[:, s, s].astype(complex).sum())

    # -- pointwise evaluation -------------------------------------------------

    def eval_coeffs(self, coeffs, x):
        """Evaluate sum_i c_i phi_i at arbitrary points in (0, X].

        ``coeffs`` of shape (n, k) evaluates k coefficient vectors at once
        (shape x.shape + (k,)); the cell search and the Lagrange table are
        shared, and each column equals its own one-vector evaluation.
        """
        x = np.asarray(x, dtype=float)
        c = np.asarray(coeffs)
        batch = c.ndim - 1
        nuval = self.order.nu
        edges = self.edges
        cell = np.clip(np.searchsorted(edges, x, side="right") - 1, 0,
                       self.n_cells - 1)
        t = (x - edges[cell]) / (edges[cell + 1] - edges[cell])
        local = self._local_coeffs(c)
        lag = np.moveaxis(polyval(t, self._lagrange[0]), 0, -1)
        if batch:
            lag = lag[..., None, :]
        xb = x[..., None] if batch else x
        out = xb ** (0.5 + nuval) \
            * np.sum(local[cell, ..., :self.degree + 1] * lag, axis=-1)
        if self.include_minus and np.any(c[0] != 0):
            seed = c[0] * xb ** (0.5 - nuval) \
                * np.where(xb < self.rho.xc, self.rho.poly(xb), 0.0)
            out = np.where(c[0] != 0, out + seed, out)
        return out

    # -- per-cell tables --------------------------------------------------------

    def _images(self, x, a, h):
        """Value, d_nu and |D_nu|^2 images of the local functions at x.

        x, of shape (..., nq), lies in the cells with left edges a and widths
        h, of shape (..., 1).  Returns {"v"/"d"/"c": table}, each of shape
        (..., p+1+s, nq): the image of local function i at x is
        x^self._powers[key][i] * table[..., i, :].  The seed is last and zero
        from its cutoff on.
        """
        nuval = self.order.nu
        t = (x - a) / h
        L, L1, L2 = (polyval(t, c) for c in self._lagrange)
        L1, L2 = L1 / h, L2 / h ** 2
        # d_nu (x^{1/2+nu} L) = x^{nu-1/2} (x L' + 2 nu L)
        # |D_nu|^2 (x^{1/2+nu} L) = x^{nu-1/2} (-x L'' - (1+2nu) L')
        tables = [L, x * L1 + 2.0 * nuval * L,
                  -x * L2 - (1.0 + 2.0 * nuval) * L1]
        if self.include_minus:
            live = x < self.rho.xc
            tables = [np.concatenate([tab, np.where(live, polyval(x, r.coef),
                                                     0.0)[None]])
                      for tab, r in zip(tables, self._seed_factors)]
        return {key: np.moveaxis(tab, 0, -2) for key, tab in zip("vdc", tables)}

    @cached_property
    def _bulk(self):
        """(xq, wq, tables) on the cells k >= 1, vectorised over cells.

        xq, wq are Gauss-Legendre points and weights of shape (K-1, nq);
        tables["v"/"d"/"c"] hold the images of the local functions, x-powers
        included, of shape (K-1, p+1+s, nq).
        """
        a, b = self.edges[1:-1, None], self.edges[2:, None]
        xq, wq = legendre_rule(self.degree + 8, a, b)
        # x^e once per distinct branch power e, not once per local function
        exps = np.unique(np.concatenate(list(self._powers.values())))
        xpow = xq[:, None, :] ** exps[:, None]
        tables = {key: tab * xpow[:, np.searchsorted(exps, self._powers[key])]
                  for key, tab in self._images(xq, a, b - a).items()}
        return xq, wq, tables

    def _first_rules(self, betas):
        """Stacked (x, w, tables) of the 24-point Gauss-Jacobi rules for
        x^beta on cell 0, one per distinct beta, ascending.  Rules not yet
        cached get one _images pass on their stacked nodes, bitwise as one
        by one (_images is elementwise in x)."""
        betas = np.unique(betas)
        new = [b for b in betas if b not in self._rules]
        if new:
            x, w = map(np.array, zip(*(jacobi_rule(b, 24, 0.0, self.edges[1])
                                       for b in new)))
            tabs = self._images(x, 0.0, self.edges[1])
            self._rules.update(zip(new, zip(x, w, *(tabs[k] for k in "vdc"))))
        x, w, *tabs = map(np.array, zip(*(self._rules[b] for b in betas)))
        return x, w, dict(zip("vdc", tabs))

    def _beta(self, trial, test):
        """Product powers beta[j, i] of <trial image i, test image j>."""
        return np.add.outer(self._powers[test], self._powers[trial])

    def _first_cell(self, trial, test):
        """first_cell_inner's (x, w, f, g, mask) for <trial image, test
        image>: one rule per product power beta[j, i] of the entries."""
        beta = self._beta(trial, test)
        betas = np.unique(beta)
        x, w, tabs = self._first_rules(betas)
        return x, w, tabs[trial], tabs[test], beta == betas[:, None, None]

    # -- assembly ---------------------------------------------------------------

    def matrices(self, a_fun=None, b_fun=None):
        """S = <d_nu u, d_nu v>, M = <u, v>, optionally A = <a u, v> and
        B = <-i b d_nu u, v>, each a BorderedBand."""
        # name: (trial image, test image, coefficient, factor)
        forms = {"S": ("d", "d", None, 1.0), "M": ("v", "v", None, 1.0)}
        if a_fun is not None:
            forms["A"] = ("v", "v", a_fun, 1.0)
        if b_fun is not None:
            forms["B"] = ("d", "v", b_fun, -1j)

        self._first_rules([self._beta(*form[:2]) for form in forms.values()])
        xq, wq, tables = self._bulk
        mats = {}
        for name, (trial, test, coeff, factor) in forms.items():
            # real for S and M: the tables are real
            first = factor * first_cell_inner(*self._first_cell(trial, test),
                                              coeff=coeff)
            wk = wq if coeff is None else wq * _at(coeff, xq)
            bulk = factor * np.einsum("kq,kiq,kjq->kji", wk, tables[trial],
                                      np.conj(tables[test]))
            mats[name] = self._assemble(np.concatenate([first[None], bulk]))
        return mats

    def load_vector(self, f, singular_exponent=0.0):
        """<f, phi_i>; ``singular_exponent`` hints the x^sigma factor of f at 0."""
        power = self._powers["v"]
        loc = np.zeros((self.n_cells, power.size), dtype=complex)
        x, w, images = self._first_rules(np.unique(power) + singular_exponent)
        for r, e in enumerate(np.unique(power)):
            smooth_f = _at(f, x[r]) / x[r] ** singular_exponent
            own = power == e
            loc[0, own] = np.conj(images["v"][r, own]) @ (w[r] * smooth_f)
        xq, wq, tables = self._bulk
        loc[1:] = np.einsum("kq,kiq->ki", wq * _at(f, xq),
                            np.conj(tables["v"]))
        return self._assemble_vector(loc)

    @property
    def resolved_start(self):
        """Index of the first uniform cell; the graded tail sits below it.

        Strong residuals are evaluated from here: second derivatives on the
        geometric tail amplify coefficient rounding like h^{-3/2} (1e13 at
        the floor), drowning any honest signal, while the tail carries no
        L2 mass.  The boundary region is certified through traces and
        expansions instead.
        """
        h_target = self.x_max / max(self.edges.size - 1, 6)
        return int(np.searchsorted(self.edges, 0.999 * h_target))

    def strong_residual(self, coeffs, terms, f=None):
        """(||P u_h - f||, scale) in L2 over the resolved window (see
        resolved_start), from one evaluation of the images and of f.

        ``terms(xq, u, du, cu)`` returns the terms of P u_h at the
        quadrature points, which sum to P u_h.  ``scale`` is ||f||, or when
        f vanishes on the window (or is None) the L2 norm of the summed term
        moduli: they cancel for a true solution, so the ratio does not scale
        with the data.
        """
        lo = max(self.resolved_start, 1)
        xq, wq, tables = self._bulk
        local = self._local_coeffs(coeffs)[lo:]
        u, du, cu = (np.einsum("ki,kiq->kq", local, tables[key][lo - 1:])
                     .reshape(-1) for key in ("v", "d", "c"))
        x, w = xq[lo - 1:].reshape(-1), wq[lo - 1:].reshape(-1)
        parts = terms(x, u, du, cu)
        r = sum(parts[1:], parts[0])
        scale = 0.0
        if f is not None:
            fx = _at(f, x)
            r = r - fx
            scale = float(np.sqrt(np.sum(w * np.abs(fx) ** 2)))
        if scale == 0.0:
            size = sum(map(np.abs, parts[1:]), np.abs(parts[0]))
            scale = float(np.sqrt(np.sum(w * size ** 2)))
        return float(np.sqrt(np.sum(w * np.abs(r) ** 2))), scale

    def norms(self, coeffs, q2=0.0):
        """(H0^2, H1^2, H2^2) of a coefficient vector for tangential mode q.

        As in strong_residual, u, d_nu u and |D_nu|^2 u are summed at the
        quadrature points before they are squared, so the large first-cell
        tables (~h0^{nu-3/2}) cancel in the image, not in a quadratic form.
        On cell 0 the Lagrange and seed parts of each image are paired at
        the rule of their product power.
        """
        local = self._local_coeffs(coeffs)
        heads = [0, self.degree + 1][:1 + int(self.include_minus)]
        xq, wq, tables = self._bulk
        self._first_rules([self._beta(key, key) for key in "vdc"])
        sq = []
        for key in ("v", "d", "c"):
            x, w, f, _, mask = self._first_cell(key, key)
            parts = np.add.reduceat(local[0, :, None] * f, heads, axis=1)
            first = first_cell_inner(x, w, parts, parts,
                                     mask[:, heads][:, :, heads])
            image = np.einsum("ki,kiq->kq", local[1:], tables[key])
            sq.append(float(np.real(first.sum()))
                      + float(np.sum(wq * np.abs(image) ** 2)))
        h1sq = sq[1] + (1.0 + q2) * sq[0]
        return sq[0], h1sq, sq[2] + (1.0 + q2) * h1sq

    def gamma_minus_vector(self):
        v = np.zeros(self.n, dtype=complex)
        if self.include_minus:
            v[self.idx_minus] = 1.0
        return v

    def gamma_plus_vector(self):
        v = np.zeros(self.n, dtype=complex)
        v[self.idx_w0] = 2.0 * self.order.nu
        return v


def _inverse_diag_sqrt(diag):
    d = np.sqrt(np.abs(diag))
    d[d == 0] = 1.0
    return 1.0 / d


def _diag_scale(A):
    Dinv = _inverse_diag_sqrt(np.diag(A))
    return (A * Dinv[None, :]) * Dinv[:, None], Dinv


class _BorderedLU:
    """Banded LU of the Lagrange block plus one Schur step on the seed."""

    def __init__(self, A):
        from scipy.linalg.lapack import zgbtrf, zgbtrs

        p = A.p
        ab = np.zeros((3 * p + 1, A.band.shape[1]), dtype=complex)
        ab[p:] = A.band
        self.A, self.p, self.zgbtrs = A, p, zgbtrs
        self.lu, self.piv, info = zgbtrf(ab, p, p, overwrite_ab=True)
        if info != 0:
            raise SingularSystem(f"banded LU: zero pivot in column {info}")
        if A.seeded:
            self.z = self._band_solve(A.col, 0)              # W^-1 col
            self.zh = self._band_solve(np.conj(A.row), 2)    # W^-H conj(row)
            self.pivot = A.corner - A.row @ self.z
            if self.pivot == 0:
                raise SingularSystem("zero Schur pivot on the seed dof")

    def _band_solve(self, b, trans):
        x, _ = self.zgbtrs(self.lu, self.p, self.p, b, self.piv, trans=trans)
        return x

    def solve(self, b, adjoint=False):
        """A^{-1} b, or A^{-H} b with ``adjoint``."""
        b = np.asarray(b, dtype=complex)
        trans = 2 if adjoint else 0
        if not self.A.seeded:
            return self._band_solve(b, trans)
        if adjoint:
            row, z, pivot = np.conj(self.A.col), self.zh, np.conj(self.pivot)
        else:
            row, z, pivot = self.A.row, self.z, self.pivot
        y = self._band_solve(b[1:], trans)
        x0 = (b[0] - row @ y) / pivot
        return np.concatenate(([x0], y - x0 * z))


def _inverse_norm1(lu, n):
    """Lower estimate of ||A^{-1}||_1 from a few solves with A and A^H
    (Hager's method with Higham's refinements, as LAPACK's xLACN2)."""
    def sign(v):
        mag = np.abs(v)
        return np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 1.0)

    y = lu.solve(np.full(n, 1.0 / n))
    est = np.abs(y).sum()
    z = np.abs(lu.solve(sign(y), adjoint=True))
    j = int(np.argmax(z))
    for _ in range(4):
        y = lu.solve(np.eye(1, n, j)[0])
        step = np.abs(y).sum()
        if step <= est:
            break
        est = step
        z = np.abs(lu.solve(sign(y), adjoint=True))
        j, last = int(np.argmax(z)), j
        if z[j] == z[last]:
            break
    i = np.arange(n)
    alt = lu.solve((-1.0) ** i * (1.0 + i / max(n - 1, 1)))
    return max(est, 2.0 * np.abs(alt).sum() / (3.0 * n))


def galerkin_solve(A, rhs):
    """Diagonal-scaled banded solve of a BorderedBand; returns (x, condition).

    The Lagrange block is factored by banded LU and the seed dof eliminated
    by one Schur step, so the cost is linear in the dof count.  The
    condition is the 1-norm condition number of the scaled matrix, with
    ||As^{-1}||_1 estimated from the factor.  An exactly singular band, a
    zero Schur pivot, or an inconsistent system (singular operator with
    incompatible data, caught by the residual test) raises SingularSystem.
    """
    As, Dinv = A.unit_diagonal()
    bs = np.asarray(rhs, dtype=complex) * Dinv
    lu = _BorderedLU(As)
    x = lu.solve(bs)
    resid = np.linalg.norm(As @ x - bs) / max(np.linalg.norm(bs), 1e-300)
    if not np.all(np.isfinite(x)) or resid > 1e-5:
        raise SingularSystem(f"linear solve residual {resid:.2e}")
    cond = As.norm1() * _inverse_norm1(lu, x.size)
    return x * Dinv, float(cond)


def _start_vector(n):
    """Fixed Krylov start vector: ARPACK's own default is random and depends
    on the call history, which would make artifacts irreproducible."""
    return np.random.default_rng(0).standard_normal(n)


def _is_real(*ops):
    """True when no BorderedBand in ``ops`` has a nonzero imaginary part."""
    return not any(np.any(np.imag(x)) for B in ops
                   for x in (B.band, B.row, B.col, B.corner) if x is not None)


def norm_bound(A):
    """Upper bound sqrt(||A||_1 ||A||_inf) >= ||A||_2 of a BorderedBand, in
    O(n p) from its storage (Golub & Van Loan, Matrix Computations, 2.3).

    ||A||_inf is the 1-norm of the adjoint.  For a Hermitian A the bound is
    ||A||_1; a corner-only operator (the lambda-Robin A1) gets its exact
    norm |corner| and a zero operator 0.  Any weights at least ||A_i||_2
    define a valid backward error of a pencil (Tisseur, Linear Algebra Appl.
    309, 2000), so these are the residual scales of every spectrum; on the
    library's pencils and scaled Dirichlet operators the bound is 1.00 to
    1.44 times ||A||_2.
    """
    return float(np.sqrt(A.norm1() * A.adjoint().norm1()))


def modulus_order(lam):
    """Indices that sort ``lam`` by modulus, in a canonical order within ties.

    Moduli that agree within 1e-12 |lambda| form a tie (a +- or conjugate
    pair, which rounding alone would order).  Inside a tie, real parts that
    agree within the same 1e-12 |lambda| count as equal (the noise of an
    imaginary-axis pair, or the two real parts of a conjugate pair from real
    QZ); ties sort by real part, then imaginary part, ascending.  So -n pi
    precedes n pi, -i j precedes i j and a - ib precedes a + ib, whichever
    eigensolver produced them.  An empty ``lam`` gives an empty index.
    """
    if lam.size == 0:
        return np.zeros(0, dtype=np.intp)
    mod = np.abs(lam)
    idx = np.argsort(mod, kind="stable")
    m = mod[idx]
    tie = np.isfinite(m[1:]) & (m[1:] <= m[:-1] * (1.0 + 1e-12))
    group = np.cumsum(np.concatenate(([True], ~tie)))
    re = np.real(lam)[idx]
    by_re = np.lexsort((re, group))
    with np.errstate(invalid="ignore"):
        apart = np.diff(re[by_re]) > 1e-12 * m[by_re][1:]
    cluster = np.cumsum(np.concatenate(
        ([True], apart | (np.diff(group[by_re]) != 0))))
    by_re = idx[by_re]
    return by_re[np.lexsort((np.imag(lam)[by_re], cluster))]


def _is_hermitian(A):
    """True when an unseeded BorderedBand equals its adjoint to rounding
    (1e-13 of its largest entry), as _hermitian_part judges a dense one."""
    gap = np.max(np.abs(A.band - A.adjoint().band), initial=0.0)
    return gap <= 1e-13 * np.max(np.abs(A.band), initial=0.0)


def mass_deflated_eig(K, M, count, vectors=True):
    """The ``count`` eigenvalues of K u = lambda M u nearest 0, by modulus.

    K, M are real symmetric unseeded BorderedBands, K positive definite.
    Both are scaled by K's diagonal and the scaled K is factored as U^T U
    (LAPACK dpbtrf on its upper band).  ARPACK's Lanczos then finds the
    largest eigenvalues theta = 1 / lambda of U^-T M U^-1, the spectral
    transformation of Ericsson & Ruhe (Math. Comp. 35, 1980): one real
    callback per step of three BLAS-2 calls (dtbsv, dsbmv, dtbsv), O(n p).  The eigenvectors U^-1 y are scaled by sqrt|lambda|, so that
    Z^T M Z = I when M is positive definite.  A scaled K that is not
    positive definite, or a zero M (no finite eigenvalue), raises
    SingularSystem; a seeded or complex operator raises DomainError.
    Requests beyond ARPACK's limit k < n return n - 1 modes.  Returns
    (eigenvalues, coefficient eigenvectors).

    ``vectors=False`` (internal) skips the Ritz vectors (ARPACK's
    return_eigenvectors=False, no back-transform) and returns
    (eigenvalues, None), for callers that read the values only.
    """
    from scipy.linalg import blas, lapack
    from scipy.sparse.linalg import LinearOperator, eigsh

    if K.seeded or M.seeded:
        raise DomainError("mass_deflated_eig takes unseeded K and M")
    Ks, d = K.unit_diagonal()
    Ms = M.scaled(d)
    if not _is_real(Ks, Ms):
        raise DomainError("mass_deflated_eig takes real symmetric K and M")
    if not Ms.band.any():
        # the Lanczos operator would be 0: ARPACK stops on a zero vector
        raise SingularSystem("zero mass operator: every eigenvalue is "
                             "infinite")
    n, p = d.size, Ks.p
    # rows 0..p of the band storage are LAPACK's upper symmetric band
    U, info = lapack.dpbtrf(Ks.band[:p + 1].real)
    if info > 0:
        raise SingularSystem(f"Cholesky: leading minor {info} of the scaled "
                             f"K is not positive definite")
    m_up = np.asfortranarray(Ms.band[:p + 1].real)
    tbsv, sbmv = blas.dtbsv, blas.dsbmv

    def op(v):          # U^-T M U^-1 v
        return tbsv(p, U, sbmv(p, 1.0, m_up, tbsv(p, U, v)), trans=1,
                    overwrite_x=1)

    found = eigsh(LinearOperator((n, n), matvec=op, dtype=float),
                  k=min(int(count), n - 1), which="LM", v0=_start_vector(n),
                  return_eigenvectors=vectors)
    theta, Y = found if vectors else (found, None)
    lam = 1.0 / theta
    idx = np.argsort(np.abs(lam), kind="stable")
    if not vectors:
        return lam[idx], None
    Z, _ = lapack.dtbtrs(U, Y)
    return lam[idx], (Z * np.sqrt(np.abs(lam)) * d[:, None])[:, idx]


def pencil_eig(A0, A1, A2, count=None):
    """Eigenpairs of the pencil A0 + lam A1 + lam^2 A2 of BorderedBands.

    Returns (eigenvalues, coefficient eigenvectors, effective dimension m),
    the eigenvalues by modulus in the canonical order of modulus_order.

    With ``count``, the ``count + 2`` eigenvalues of least modulus (two
    spare, so a +- pair is never cut before the caller's sort); m = n, and
    at most 2n - 2 eigenvalues are returned.  An unseeded real pencil with
    A1 = 0 and the scaled A0 and A2 symmetric (judged on the band storage)
    is A0 v = mu A2 v, mu = -lam^2: mass_deflated_eig's Lanczos on one
    Cholesky factor of A0 gives lam = +-sqrt(-mu), each pair sharing one
    eigenvector, as the dense A1 = 0 reduction does.  Any other pencil, or
    an A0 whose Cholesky fails, takes ARPACK Arnoldi on the companion
    operator shift-inverted about 0, [v1; v2] -> [v2; -A0^{-1}(A2 v1 +
    A1 v2)], applying the banded LU of the diagonally scaled A0 once per
    step.  An exactly singular A0 is retried once about a small shift sigma
    (nearest eigenvalues to sigma).

    Without ``count``, every eigenvalue, nonfinite ones at infinity kept; a
    regular pencil contributes 2 m eigenvalues with multiplicity.  The
    dense solver follows the structure of the operators:

    * the scaled A0 and A2 Hermitian and A0 positive definite with no
      direction below the deflation cutoff (any A1): one n x n eigh of
      A2 v = theta A0 v reduces the pencil to I + lam F + lam^2 Theta
      (Tisseur & Meerbergen, SIAM Rev. 43 (2001), sec. 3).  m = n, the rank
      the companion path would deflate to.  With A1 = 0 (no nonzero entry)
      lam = +-sqrt(-1 / theta), and each pair shares one eigenvector, so its
      Cauchy data (v, +-lam v) is exact.  With A1 only the seed corner (the
      lambda-Robin pencils) F has rank one: one standard eigvals of the
      2n x 2n companion in 1 / lam, whose leading coefficient is the
      identity (no deflation and no QZ, real arithmetic for real
      operators), and each eigenvector in closed form, O(n) per mode.  Any
      other A1 takes eig of that companion with its eigenvectors.
    * otherwise: companion QZ in deflated scaled coordinates, m the
      deflated rank; real QZ when every operator is real.  This is left to
      non-Hermitian operators (the kg pencil with an e0 term) and to an
      indefinite A0 (a Laplace pencil shifted below its least eigenvalue).

    At an infinite eigenvalue the returned vector is the v2 = lam v block of
    the Cauchy data.
    """
    if count is None:
        dense = [A.toarray() for A in (A0, A1, A2)]
        if _is_real(A0, A1, A2):
            dense = [D.real for D in dense]
        lam, vecs, m = _definite_eig(*dense) or _companion_qz(*dense)
        idx = modulus_order(lam)
        return lam[idx], vecs[:, idx], m
    B0, d = A0.unit_diagonal()
    B1, B2 = A1.scaled(d), A2.scaled(d)
    n = d.size
    k = min(int(count) + 2, 2 * n - 2)
    if (not B0.seeded and not np.any(B1.band) and _is_real(B0, B2)
            and _is_hermitian(B0) and _is_hermitian(B2)):
        try:
            mu, Z = mass_deflated_eig(B0, B2, (k + 1) // 2)
        except SingularSystem:
            pass    # A0 is not definite, or A2 = 0: Arnoldi below
        else:
            lam = np.sqrt((-mu).astype(complex))
            lam = np.concatenate([lam, -lam])
            vecs = np.concatenate([Z, Z], axis=1) * d[:, None]
            idx = modulus_order(lam)[:k]
            return lam[idx], vecs[:, idx], n
    from scipy.sparse.linalg import LinearOperator, eigs

    shift = 0.0
    try:
        lu = _BorderedLU(B0)
    except SingularSystem:
        # 1e-3 of the eigenvalue scale sqrt(|B0| / |B2|) (|B0| / |B1| for a
        # linear pencil); P(shift + e) = P(shift) + e (B1 + 2 shift B2)
        # + e^2 B2 is again a quadratic pencil in e
        n0, n1, n2 = B0.norm1(), B1.norm1(), B2.norm1()
        shift = 1e-3 * (np.sqrt(n0 / n2) if n2 else (n0 / n1 if n1 else 1.0))
        B0 = B0 + shift * B1 + shift ** 2 * B2
        B1 = B1 + (2.0 * shift) * B2
        lu = _BorderedLU(B0)

    def companion(v):
        v1, v2 = v[:n], v[n:]
        return np.concatenate([v2, -lu.solve(B2 @ v1 + B1 @ v2)])

    op = LinearOperator((2 * n, 2 * n), matvec=companion, dtype=complex)
    mu, V = eigs(op, k=k, which="LM", v0=_start_vector(2 * n).astype(complex))
    finite = mu != 0
    lam = shift + 1.0 / mu[finite]
    vecs = V[:n, finite] * d[:, None]
    idx = modulus_order(lam)
    return lam[idx], vecs[:, idx], n


def _deflation(K):
    """(T, Dinv, Ks): orthonormal basis of the content of the scaled K."""
    from scipy.linalg import svd

    Ks, Dinv = _diag_scale(K)
    U, sv, _ = svd(0.5 * (Ks + Ks.conj().T))
    keep = sv > RANK_CUTOFF * sv[0]
    return U[:, keep], Dinv, Ks


def _project(T, Dinv, A):
    """T^H (D A D) T: A in the deflated scaled coordinates."""
    return _matmul(_matmul(T.conj().T, (A * Dinv[None, :]) * Dinv[:, None]),
                   T)


def _hermitian_part(A):
    """(A + A^H) / 2 when A is Hermitian to rounding (1e-13 of its largest
    entry), else None."""
    H = 0.5 * (A + A.conj().T)
    return H if np.max(np.abs(A - H)) <= 1e-13 * np.max(np.abs(A)) else None


def _definite_eig(A0, A1, A2):
    """Every eigenpair of A0 + lam A1 + lam^2 A2 through the definite
    reduction, or None unless the scaled A0 and A2 are Hermitian and A0 is
    positive definite with every eigenvalue above RANK_CUTOFF of the largest
    (pencil_eig).

    One eigh of (H2, H0) gives V with V^H H0 V = I and V^H H2 V = Theta, and
    the pencil in V's coordinates is I + lam F + lam^2 Theta with
    F = V^H (D A1 D) V.  In s = 1 / lam its companion [[-F, -Theta], [I, 0]]
    has the identity as leading coefficient: a standard eigenproblem, real
    for real operators.  When A1 is at most the seed corner (A1 = 0, or the
    lambda-Robin row), F = f u u^H has rank one with u = conj(V[0]) and
    f = a1 D[0]^2 (Golub, SIAM Rev. 15 (1973)), and _rank_one_eig solves it
    without eigenvectors of the companion.  Any other A1 (a kg pencil whose
    gamma0 mixes t and y, at q != 0) takes eig of the full companion with
    vectors: its bottom block is the eigenvector, and at s = 0 (lam = inf)
    the v2 data.
    """
    from scipy.linalg import eig, eigh, eigvalsh

    A0s, Dinv = _diag_scale(A0)
    H0 = _hermitian_part(A0s)
    H2 = _hermitian_part((A2 * Dinv[None, :]) * Dinv[:, None])
    if H0 is None or H2 is None:
        return None
    ev = eigvalsh(H0)        # the singular values _deflation ranks
    if not ev[0] > RANK_CUTOFF * abs(ev[-1]):
        return None
    theta, V = eigh(H2, H0)  # A2 v = theta A0 v
    n = theta.size
    if not (np.any(A1[1:]) or np.any(A1[0, 1:])):
        # A1 = a1 e_0 e_0^T, F = f u u^H: a mode k with f u_k = 0 (every
        # mode when a1 = 0) is decoupled, lam = +-sqrt(-1 / theta_k) sharing
        # v_k.  As in LAPACK's rank-one divide and conquer (dlaed2), a u_k
        # whose removal moves F by less than rounding of the companion,
        # 2 |f| |u_k| |u| <= eps max(1, ||F||, ||Theta||), deflates too
        f = A1[0, 0] * Dinv[0] * Dinv[0]
        u = np.conj(V[0])
        size = abs(f) * np.linalg.norm(u)
        free = 2.0 * size * np.abs(u) <= np.finfo(float).eps * max(
            1.0, size * np.linalg.norm(u), np.max(np.abs(theta)))
        with np.errstate(divide="ignore"):
            lam = np.sqrt((-1.0 / theta[free]).astype(complex))
        vecs = V[:, free] * Dinv[:, None]
        lam, vecs = np.concatenate([lam, -lam]), np.concatenate([vecs, vecs],
                                                                axis=1)
        if not free.all():
            lam_j, X = _rank_one_eig(theta[~free], u[~free], f)
            lam = np.concatenate([lam_j, lam])
            vecs = np.concatenate(
                [_matmul(V[:, ~free], X) * Dinv[:, None], vecs], axis=1)
        return lam, vecs, n
    F = _matmul(_matmul(V.conj().T, (A1 * Dinv[None, :]) * Dinv[:, None]), V)
    C = np.block([[-F, -np.diag(theta).astype(F.dtype)],
                  [np.eye(n, dtype=F.dtype), np.zeros((n, n), F.dtype)]])
    s, W = eig(C)            # s = 1 / lam
    lam = np.full(s.shape, np.inf, dtype=complex)
    lam[s != 0] = 1.0 / s[s != 0]
    return lam, _matmul(V, W[n:]) * Dinv[:, None], n


def _rank_one_eig(theta, u, f):
    """(lam, X): every eigenpair of I + lam f u u^H + lam^2 diag(theta)
    with no u_k = 0, the eigenvectors in the coordinates of theta.

    In s = 1 / lam one eigvals of the companion [[-f u u^H, -Theta],
    [I, 0]] gives the 2n eigenvalues, the roots of the secular function
    g(s) = 1 + f s sum_k |u_k|^2 / (s^2 + theta_k) (the rank-one reduction
    of Tisseur & Meerbergen, SIAM Rev. 43 (2001), sec. 3, with F as in
    Golub, SIAM Rev. 15 (1973)).  Each eigenvector is then, in closed form,
    x = (s^2 I + Theta)^{-1} u, O(n) per mode, whose residual
    P(s) x = u g(s) is known without a product.  Near a pole s^2 = -theta_k
    that closed form amplifies the error of s, and e_k is the better
    vector; each root keeps whichever of the two has the smaller residual
    (a root on a pole takes e_k).  A root whose pair is not backward stable
    also takes one Newton step on g, kept where it lowers that residual.
    The closed form reads theta itself: the rounding-level theta <= 0 of
    eigh take no square root.
    """
    from scipy.linalg import eigvals

    n = theta.size
    C = np.zeros((2 * n, 2 * n), dtype=np.result_type(f, u))
    C[:n, :n] = -f * np.outer(u, np.conj(u))
    C[:n, n:] = -np.diag(theta)
    C[n:, :n] = np.eye(n)
    s = eigvals(C)           # s = 1 / lam
    w = (np.abs(u) ** 2)[:, None]
    uu = w.sum()

    def secular(s):
        """Per root: the residual ||P(s) x|| and the unit vector x, the
        better of the closed form and e_k at the nearest pole k, and g(s)
        and g'(s).  With d = s^2 + theta (n x 2n), 1 / d = (Re d - i Im s^2)
        a2, a2 = 1 / |d|^2, so the sums over k run in real arithmetic."""
        s2 = s * s
        dr = s2.real + theta[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            a2 = 1.0 / (dr * dr + s2.imag ** 2)
            t0 = w * a2
            t1 = t0 * dr
            t2 = t1 * a2
            x2 = t0.sum(axis=0)                 # ||d^{-1} u||^2
            ud = t1.sum(axis=0) - 1j * s2.imag * x2         # u^H d^-1 u
            ud2 = ((t2 * dr).sum(axis=0) - s2.imag ** 2 * (t0 * a2).sum(
                axis=0) - 2j * s2.imag * t2.sum(axis=0))      # u^H d^-2 u
            g = 1.0 + f * s * ud
            res = np.abs(g) * np.sqrt(uu / x2)  # P(s) d^-1 u = u g(s)
            k = np.argmax(a2, axis=0)
            wk = w[k, 0]
            # P(s) e_k = d_k e_k + f s conj(u_k) u
            dk = dr[k, np.arange(s.size)] + 1j * s2.imag
            res_e = np.sqrt(np.abs(dk + f * s * wk) ** 2 + np.abs(f * s) ** 2
                            * wk * np.maximum(uu - wk, 0.0))
            scale = a2 / np.sqrt(x2)
            X = np.empty(dr.shape, dtype=complex)
            X.real, X.imag = dr * scale, -s2.imag * scale
            X *= u[:, None]
        unit = ~(res <= res_e)                  # a pole (nan) included
        X[:, unit] = 0.0
        X[k[unit], unit] = 1.0
        return np.where(unit, res_e, res), X, g, f * (ud - 2.0 * s2 * ud2)

    res, X, g, dg = secular(s)
    # a pair within rounding of ||s^2 I + s F + Theta|| is backward stable;
    # any other root takes one Newton step on g, kept where res falls
    bound = np.abs(s) ** 2 + np.abs(f * s) * uu + np.max(np.abs(theta))
    loose = np.flatnonzero(~(res <= 8.0 * np.finfo(float).eps * bound))
    if loose.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            step = s[loose] - g[loose] / dg[loose]
        step = np.where(np.isfinite(step), step, s[loose])
        res_new, X_new, _, _ = secular(step)
        better = res_new < res[loose]
        s[loose[better]] = step[better]
        X[:, loose[better]] = X_new[:, better]
    lam = np.full(s.shape, np.inf, dtype=complex)
    lam[s != 0] = 1.0 / s[s != 0]
    return lam, X


def _companion_qz(A0, A1, A2):
    """Dense companion QZ of pencil_eig in deflated scaled coordinates."""
    from scipy.linalg import eig

    T, Dinv, A0s = _deflation(A0)
    A0p = _matmul(_matmul(T.conj().T, A0s), T)
    A1p, A2p = _project(T, Dinv, A1), _project(T, Dinv, A2)
    m = A0p.shape[0]
    Z = np.zeros((m, m), dtype=A0p.dtype)
    Iden = np.eye(m, dtype=A0p.dtype)
    C = np.block([[-A1p, -A0p], [Iden, Z]])
    D = np.block([[A2p, Z], [Z, Iden]])
    lam, V = eig(C, D)
    bad = np.isnan(lam)
    lam, V = lam[~bad], V[:, ~bad]
    # an eigenvalue beyond double range is reported inf by QZ; its Cauchy
    # data degenerates to (0, v) (top block of the companion vector)
    vecs = np.where(np.isfinite(lam)[None, :], V[m:, :], V[:m, :])
    vecs = _matmul(T, vecs) * Dinv[:, None]
    return lam, vecs, m
