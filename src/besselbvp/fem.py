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
and seed polynomials): S, M and a real coefficient's form are contracted in
real arithmetic.  Real-valued operators are stored real.  Cells away from
the origin multiply the tables by x^power and use Gauss-Legendre,
vectorised over cells, one batched matmul per form.  The origin cell is
tabulated once per Space on n0 = max(24, 2p + 1) fixed nodes, and each
entry of a form is integrated with the weights of its product power beta
(quadrature.power_rule, exact for x^beta times any polynomial of degree
< n0), one einsum per form (first_cell_inner).  Matrix convention:
entry[row j, col i] = <op(phi_i), phi_j>, inner product linear in the
first slot.  A local-to-global DOF map makes every operator a band of
half-width p (the degree) plus, with the seed, one border row and column
(BorderedBand); solves cost O(n) through a banded LU and one Schur step.
A BorderedBand multiplies a vector or an (n, k) block by the same sum over
its 2p+1 diagonals, O(n k) per block; norm_bound, the residual scale
of every spectrum, bounds its 2-norm from the same storage in O(n p).
Count-limited eigensolves cost O(n) per Krylov step: mass_deflated_eig
runs ARPACK's Lanczos on one banded Cholesky factor of the scaled K (so
does pencil_eig with a count for an even real symmetric pencil); any other
count-limited pencil runs shift-invert Arnoldi through the banded LU.
Full pencil spectra are dense, on operators scaled once to a unit diagonal.
When the scaled A0 and A2 are Hermitian, A0 is definite and A1 = alpha A2 +
f e0 e0^T, one n x n eigh of (A2, A0) reduces the pencil: lam in closed
form for the modes f leaves decoupled, one 2n x 2n eigvals in 1 / lam for
the others, each eigenvector in closed form.  Any other pencil goes through
companion QZ (real QZ for real operators).

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
from numpy.polynomial.legendre import Legendre
from numpy.polynomial.polynomial import (polyder, polymul, polypow, polysub,
                                         polyval)

from .config import DEFAULT_NODES, DEFAULTS, _check_count
from .core import as_order
from .errors import DomainError, SingularSystem
from .quadrature import legendre_rule, power_rule

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


@lru_cache(maxsize=None)
def _bulk_tables(p):
    """Read-only (L, L', L'') in t at the p + 8 Gauss-Legendre nodes of
    [0, 1], the reference of every bulk cell, shaped (p+1, 1, nq)."""
    t, _ = legendre_rule(p + 8, 0.0, 1.0)
    tables = tuple(polyval(t, c)[:, None] for c in _lagrange_tables(p))
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
    (Space refuses fewer); an outward mesh gets one cell more.  Returns
    (edges, index of the edge where the tail ends).
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
    return np.unique(edges), n_tail + 1


def first_cell_inner(x, w, f, g, coeff=None):
    """Cell-0 integrals int_0^h f_i conj(g_j) c dx of one form, entry [j, i].

    All entries share the nodes x of cell 0; w[j, i] holds the weights of
    entry (j, i), those of its product power x^beta (quadrature.power_rule).
    f[i] and g[j] hold the trial and test tables at x, without the x^power
    factors.
    """
    if coeff is not None:
        w = w * _at(coeff, x)
    return np.einsum("jiq,iq,jq->ji", w, f, np.conj(g))


def _at(fun, x):
    """fun at the points x (called on the flattened array), shaped like x:
    float64 for real values, complex128 for complex ones."""
    flat = np.ravel(x)
    vals = np.asarray(fun(flat))
    vals = vals.astype(np.result_type(vals, np.float64), copy=False)
    return np.broadcast_to(vals, flat.shape).reshape(np.shape(x))


@lru_cache(maxsize=256)
def _diagonals(p, m):
    """(r, rows, cols) slices of each row r of (2p+1, m) band storage: the
    slots band[r, cols] hold the entries A[rows, cols] of diagonal r - p;
    the slots outside the matrix are in no slice."""
    diags = []
    for r in range(2 * p + 1):
        lo = max(0, p - r)
        hi = max(lo, min(m, m + p - r))
        diags.append((r, slice(lo + r - p, hi + r - p), slice(lo, hi)))
    return tuple(diags)


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

    The parts share one ``dtype``, decided once where an operator is built:
    float64 when none has a nonzero imaginary part, else complex128.

    ``A @ x`` takes a vector or an (n, k) block.  Both add the 2p+1
    diagonals (_diagonals) in one order into one output array, so each
    column of ``A @ X`` equals ``A @ X[:, j]`` bitwise, except the seed row:
    a block sums ``row @ X`` through scipy's gemv (_matmul), a vector
    ``row @ x`` through numpy's dot, in different orders (rounding level).
    """

    band: np.ndarray
    row: np.ndarray = None
    col: np.ndarray = None
    corner: complex = 0.0

    __array_ufunc__ = None      # numpy scalars defer to __rmul__

    def __post_init__(self):
        parts = self.parts
        dtype = (complex if any(np.iscomplexobj(x) and np.any(np.imag(x))
                                for x in parts) else float)
        for name, x in zip(("band", "row", "col", "corner"), parts):
            x = np.require(x if dtype is complex else np.real(x), dtype, "C")
            object.__setattr__(self, name, x if x.ndim else x[()])

    @property
    def dtype(self):
        return self.band.dtype

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
    def parts(self):
        """The stored parts: the band, then with a seed row, col, corner."""
        return (self.band, self.row, self.col, self.corner)[
            :1 + 3 * self.seeded]

    @property
    def nbytes(self):
        """Bytes actually stored: band, border and corner."""
        return sum(x.nbytes for x in self.parts)

    def __add__(self, other):
        if self.seeded != other.seeded:
            raise DomainError("operators on different spaces")
        return BorderedBand(*(a + b for a, b in zip(self.parts, other.parts)))

    def __rmul__(self, c):
        return BorderedBand(*(c * x for x in self.parts))

    def __matmul__(self, x):
        """A x for a vector x, or A X column by column for an (n, k) block."""
        x = np.asarray(x)
        s = int(self.seeded)
        along = (...,) + (None,) * (x.ndim - 1)    # block columns ride along
        band = self.band[along]
        y = np.zeros(x.shape, np.result_type(band, x))
        yw, xw = y[s:], x[s:]
        # a zero band (the A1 of a Laplace or corner-only lambda-Robin
        # pencil) adds nothing: only the seed terms below are nonzero
        if band.any():
            for r, rows, cols in _diagonals(self.p, band.shape[1]):
                out = yw[rows]
                out += band[r, cols] * xw[cols]
        if s:
            yw += self.col[along] * x[0]
            y[0] = self.corner * x[0] + (_matmul(self.row, xw) if x.ndim > 1
                                         else self.row @ xw)
        return y

    def toarray(self):
        s = int(self.seeded)
        out = np.zeros(self.shape, dtype=self.dtype)
        lagrange = out[s:, s:]
        for r, rows, cols in _diagonals(self.p, self.band.shape[1]):
            np.fill_diagonal(lagrange[rows, cols], self.band[r, cols])
        if s:
            out[0, 0] = self.corner
            out[0, 1:] = self.row
            out[1:, 0] = self.col
        return out

    def adjoint(self):
        """The conjugate transpose, in the same storage."""
        band = np.zeros_like(self.band)
        for r, rows, cols in _diagonals(self.p, self.band.shape[1]):
            band[2 * self.p - r, rows] = np.conj(self.band[r, cols])
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

    def scaled(self, d):
        """diag(d) A diag(d), d over all dofs (seed first)."""
        s = int(self.seeded)
        dw = d[s:]
        drow = np.zeros(self.band.shape, dw.dtype)     # d of each slot's row
        for r, rows, cols in _diagonals(self.p, dw.size):
            drow[r, cols] = dw[rows]
        band = self.band * drow * dw
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
    ``degree`` (see solver_mesh), ``n_nodes`` defaulting to DEFAULT_NODES
    and ``degree`` to DEFAULTS.fem_degree.  A degree that is not an integer
    >= 2, or fewer than MIN_CELLS cells, raise DomainError.

    DOF map: the seed (when present) is dof 0; cell k owns the Lagrange dofs
    s + k p + (0..p), s the seed count, neighbouring cells sharing their edge
    dof.  A Dirichlet cap drops the dof of the last edge.
    """

    dirichlet_cap = True

    def __init__(self, nu, x_max, n_nodes=None, include_minus=None,
                 outward=False, degree=DEFAULTS.fem_degree):
        self.order = as_order(nu)
        _check_count("degree", degree, 2)
        self.degree = int(degree)
        if n_nodes is None:
            n_nodes = DEFAULT_NODES
        n_cells = int(n_nodes) // self.degree
        if n_cells < MIN_CELLS:
            raise DomainError(
                f"{n_nodes} nodes give {n_cells} cells of degree "
                f"{self.degree}; at least {MIN_CELLS} are needed")
        self.x_max = float(x_max)

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
        self.edges, self._tail_end = solver_mesh(x_max, n_cells, floor=floor,
                                                 outward=outward)

        # the seed's cutoff r(x) = (1 - (x/xc)^2)^4 on [0, xc], else 0; xc
        # is the last edge at or below half the domain
        cut_idx = int(np.searchsorted(self.edges, self.x_max / 2.0,
                                      side="right") - 1)
        self.rho_xc = float(self.edges[max(cut_idx, 1)])
        # the seed's image factors r, r'/x and -r'' - (1-2nu) r'/x, formed in
        # x (r is even, so r' = x (r'/x)): pushing the cancellation through
        # t = x/h would lose the h^2 structure of r(h t) on a ~1e-9 cell
        r = polypow([1.0, 0.0, -1.0 / self.rho_xc ** 2], 4)
        r1_x = polyder(r)[1:]
        self._seed_factors = (r, r1_x, polysub(
            -polyder(r, 2), polymul(1.0 - 2.0 * self.order.nu, r1_x)))

        p = self.degree
        self.n_cells = self.edges.size - 1
        seeds = int(include_minus)
        self.n = seeds + self.n_cells * p
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

    # -- the DOF map ------------------------------------------------------------

    def _local_coeffs(self, coeffs):
        """(..., K, p+1+s) coefficients of each cell's local functions (seed
        last) of the vectors along coeffs' last axis: (K, p+1+s) for a
        vector, (k, K, p+1+s) for the transpose of an (n, k) block."""
        c = np.asarray(coeffs, dtype=complex)
        p, K = self.degree, self.n_cells
        s = int(self.include_minus)
        w = c[..., s:]                  # K p dofs: the capped last edge is 0
        local = np.zeros(c.shape[:-1] + (K, p + 1 + s), dtype=complex)
        local[..., :p] = w.reshape(c.shape[:-1] + (K, p))
        local[..., :-1, p] = w[..., p::p]
        if s:
            local[..., p + 1] = c[..., :1]
        return local

    def _scatter(self, loc):
        """Lagrange part of global vectors from per-cell entries
        loc[..., k, 0..p], summed in loc's dtype; leading axes ride along."""
        p, K = self.degree, self.n_cells
        lead = loc.shape[:-2]
        w = np.zeros(lead + (K * p + 1,), dtype=loc.dtype)
        w[..., :K * p] += loc[..., :p].reshape(lead + (-1,))
        w[..., p::p] += loc[..., p]
        return w[..., :self.n - int(self.include_minus)]

    def _assemble_vector(self, loc):
        """Global vector from per-cell entries loc[k, i] (seed last)."""
        w = self._scatter(loc)
        if not self.include_minus:
            return w
        return np.concatenate(([loc[:, self.degree + 1].sum()], w))

    def _assemble(self, loc):
        """BorderedBand from per-cell matrices loc[k, j, i] (seed last),
        summed in loc's dtype and stored real when its entries are."""
        p, K = self.degree, self.n_cells
        j, i = np.meshgrid(np.arange(p + 1), np.arange(p + 1), indexing="ij")
        blocks = np.zeros((2 * p + 1, K, p + 1), dtype=loc.dtype)
        blocks[p + j - i, :, i] = np.moveaxis(loc[:, j, i], 0, -1)
        band = self._scatter(blocks)
        for r, _, cols in _diagonals(p, band.shape[1]):
            band[r, cols.stop:] = 0.0           # couplings to a capped dof
        if not self.include_minus:
            return BorderedBand(band)
        s = p + 1
        # a complex sum even for real loc: numpy's pairwise sum groups real
        # and complex arrays apart, and the corner must not depend on which
        return BorderedBand(band, self._scatter(loc[:, s]),
                            self._scatter(loc[:, :, s]),
                            loc[:, s, s].astype(complex).sum())

    # -- pointwise evaluation -------------------------------------------------

    def eval_coeffs(self, coeffs, x):
        """Evaluate sum_i c_i phi_i at arbitrary points in (0, X].

        ``coeffs`` of shape (n, k) evaluates k coefficient vectors at once
        (shape x.shape + (k,)); a vector is the one-column block.  The cell
        search, the Lagrange table and the x-powers are shared; each column
        sums its own Lagrange terms, so it equals its one-vector evaluation
        bitwise and the temporaries stay O(x.size k).
        """
        x = np.asarray(x, dtype=float)
        c = np.asarray(coeffs)
        cols = c.reshape(self.n, -1)
        nuval = self.order.nu
        edges = self.edges
        cell = np.clip(np.searchsorted(edges, x, side="right") - 1, 0,
                       self.n_cells - 1)
        t = (x - edges[cell]) / (edges[cell + 1] - edges[cell])
        local = self._local_coeffs(cols.T)[..., :self.degree + 1]
        lag = np.moveaxis(polyval(t, self._lagrange[0]), 0, -1)
        xb = x[..., None]
        out = xb ** (0.5 + nuval) * np.stack(
            [np.sum(loc[cell] * lag, axis=-1) for loc in local], axis=-1)
        seed = cols[0]
        if self.include_minus and np.any(seed != 0):
            r = np.where(xb < self.rho_xc, polyval(xb, self._seed_factors[0]),
                         0.0)
            out = np.where(seed != 0, out + seed * xb ** (0.5 - nuval) * r, out)
        return out if c.ndim > 1 else out[..., 0]

    # -- per-cell tables --------------------------------------------------------

    def _images(self, x, h, lag):
        """Value, d_nu and |D_nu|^2 images of the local functions at x.

        x, of shape (..., nq), lies in the cells of widths h, of shape
        (..., 1); lag holds (L, L', L'') in t at x, broadcastable to
        (p+1, ..., nq).  Returns {"v"/"d"/"c": table}, each of shape
        (..., p+1+s, nq): the image of local function i at x is
        x^self._powers[key][i] * table[..., i, :].  The seed is last and zero
        from its cutoff on.
        """
        nuval = self.order.nu
        L, L1, L2 = lag
        L = np.broadcast_to(L, L.shape[:1] + np.shape(x))
        L1, L2 = L1 / h, L2 / h ** 2
        # d_nu (x^{1/2+nu} L) = x^{nu-1/2} (x L' + 2 nu L)
        # |D_nu|^2 (x^{1/2+nu} L) = x^{nu-1/2} (-x L'' - (1+2nu) L')
        tables = [L, x * L1 + 2.0 * nuval * L,
                  -x * L2 - (1.0 + 2.0 * nuval) * L1]
        if self.include_minus:
            live = x < self.rho_xc
            tables = [np.concatenate([tab, np.where(live, polyval(x, r),
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
                  for key, tab in self._images(
                      xq, b - a, _bulk_tables(self.degree)).items()}
        return xq, wq, tables

    @cached_property
    def _origin(self):
        """(x, tables) on cell 0: its n0 = max(24, 2p + 1) fixed nodes and
        the images there, without x-powers.  Every cell-0 product has degree
        at most max(2p, p + 8, 16) < n0 (the seed factors have degree 8)."""
        h = self.edges[1]
        t, _ = power_rule(0.0, max(24, 2 * self.degree + 1))
        return h * t, self._images(h * t, h, [polyval(t, c)
                                              for c in self._lagrange])

    def _weights(self, beta):
        """Cell-0 weights w[..., q] of the product powers beta[...]."""
        return power_rule(beta, self._origin[0].size, self.edges[1])[1]

    def _beta(self, trial, test):
        """Product powers beta[j, i] of <trial image i, test image j>."""
        return np.add.outer(self._powers[test], self._powers[trial])

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

        x, tabs = self._origin
        xq, wq, tables = self._bulk
        mats = {}
        for name, (trial, test, coeff, factor) in forms.items():
            # real for S, M and a real coefficient: the tables are real
            first = factor * first_cell_inner(
                x, self._weights(self._beta(trial, test)), tabs[trial],
                tabs[test], coeff=coeff)
            wk = wq if coeff is None else wq * _at(coeff, xq)
            bulk = factor * np.matmul(tables[test], np.swapaxes(
                wk[:, None] * tables[trial], 1, 2))
            mats[name] = self._assemble(np.concatenate([first[None], bulk]))
        return mats

    def sample(self, f):
        """f at the cell-0 nodes and at the bulk nodes, shaped (n0,) and
        (K-1, nq): the samples load_vector and strong_residual read."""
        return _at(f, self._origin[0]), _at(f, self._bulk[0])

    def load_vector(self, f, singular_exponent=0.0):
        """<f, phi_i> from the samples ``sample(f)`` of f;
        ``singular_exponent`` hints the x^sigma factor of f at 0."""
        f0, fq = f
        power = self._powers["v"]
        loc = np.zeros((self.n_cells, power.size), dtype=complex)
        x, tabs = self._origin
        w = self._weights(power + singular_exponent)
        loc[0] = (w * tabs["v"]) @ (f0 / x ** singular_exponent)
        xq, wq, tables = self._bulk
        loc[1:] = np.einsum("kq,kiq->ki", wq * fq, np.conj(tables["v"]))
        return self._assemble_vector(loc)

    @property
    def resolved_start(self):
        """Index of the first cell past the geometric tail (solver_mesh).

        Strong residuals are evaluated from here: second derivatives on the
        geometric tail amplify coefficient rounding like h^{-3/2} (1e13 at
        the floor), drowning any honest signal, while the tail carries no
        L2 mass.  The boundary region is certified through traces and
        expansions instead.
        """
        return self._tail_end

    def strong_residual(self, coeffs, terms, f=None):
        """(||P u_h - f||, scale) in L2 over the resolved window (see
        resolved_start), from one evaluation of the images and of f.

        ``terms(xq, u, du, cu)`` returns the terms of P u_h at the
        quadrature points, which sum to P u_h.  f is None or the samples
        ``sample(f)``, whose bulk part holds the window.  ``scale`` is ||f||,
        or when f vanishes on the window (or is None) the L2 norm of the
        summed term moduli: they cancel for a true solution, so the ratio
        does not scale with the data.
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
            fx = f[1][lo - 1:].reshape(-1)
            r = r - fx
            scale = float(np.sqrt(np.sum(w * np.abs(fx) ** 2)))
        if scale == 0.0:
            size = sum(map(np.abs, parts[1:]), np.abs(parts[0]))
            scale = float(np.sqrt(np.sum(w * size ** 2)))
        return float(np.sqrt(np.sum(w * np.abs(r) ** 2))), scale

    def norms(self, coeffs, q2=0.0):
        """(H0^2, H1^2, H2^2) of a coefficient vector for tangential mode q.

        An (n, k) block gives three length-k arrays, each entry bitwise its
        column's own result (a vector is the one-column block).  As in
        strong_residual, u, d_nu u and |D_nu|^2 u are summed at the
        quadrature points before they are squared, so the large first-cell
        tables (~h0^{nu-3/2}) cancel in the image, not in a quadratic form.
        On cell 0 the Lagrange and seed parts of each image are paired with
        the weights of their product power.
        """
        c = np.asarray(coeffs)
        local = self._local_coeffs(c.reshape(self.n, -1).T)   # (k, K, p+1+s)
        heads = [0, self.degree + 1][:1 + int(self.include_minus)]
        x, tabs = self._origin
        xq, wq, tables = self._bulk
        sq = []
        for key in ("v", "d", "c"):
            w = self._weights(self._beta(key, key)[np.ix_(heads, heads)])
            parts = np.add.reduceat(local[:, 0, :, None] * tabs[key], heads,
                                    axis=1)
            first = [np.real(first_cell_inner(x, w, pk, pk).sum())
                     for pk in parts]
            bulk = [np.sum(wq * np.abs(np.einsum(
                "ki,kiq->kq", loc[1:], tables[key])) ** 2) for loc in local]
            sq.append(np.array(first) + np.array(bulk))
        h1sq = sq[1] + (1.0 + q2) * sq[0]
        out = sq[0], h1sq, sq[2] + (1.0 + q2) * h1sq
        return out if c.ndim > 1 else tuple(float(v[0]) for v in out)


def _inverse_diag_sqrt(diag):
    d = np.sqrt(np.abs(diag))
    d[d == 0] = 1.0
    return 1.0 / d


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
    """True when a BorderedBand equals its adjoint to rounding (1e-13 of its
    largest entry): the band, the seed row against the conjugate seed
    column, and the seed corner against its conjugate."""
    gap = max(np.max(np.abs(a - h), initial=0.0)
              for a, h in zip(A.parts, A.adjoint().parts))
    return gap <= 1e-13 * max(np.max(np.abs(a), initial=0.0)
                              for a in A.parts)


def _proportion(B1, B2):
    """(alpha, f) with B1 = alpha B2 + f e0 e0^T to rounding (1e-13 of the
    largest entry of B1 off the seed corner), else None; f = 0 without a
    seed.  alpha is the least-squares ratio, summed elementwise on the band
    storage (no BLAS product to wake numpy's pool, see _matmul), and both
    are real for real-stored operators, so a real pencil stays real."""
    pairs = list(zip(B1.parts, B2.parts))[:3]
    num = sum(np.sum(np.conj(b) * a) for a, b in pairs)
    den = sum(np.sum(b.real ** 2 + b.imag ** 2) for _, b in pairs)
    alpha = num / den if den else 0.0
    gap = max(np.max(np.abs(a - alpha * b), initial=0.0) for a, b in pairs)
    if gap > 1e-13 * max(np.max(np.abs(a), initial=0.0) for a, _ in pairs):
        return None
    return alpha, B1.corner - alpha * B2.corner


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
    if not K.dtype == M.dtype == float:
        raise DomainError("mass_deflated_eig takes real symmetric K and M")
    Ks, d = K.unit_diagonal()
    Ms = M.scaled(d)
    if not Ms.band.any():
        # the Lanczos operator would be 0: ARPACK stops on a zero vector
        raise SingularSystem("zero mass operator: every eigenvalue is "
                             "infinite")
    n, p = d.size, Ks.p
    # rows 0..p of the band storage are LAPACK's upper symmetric band
    U, info = lapack.dpbtrf(Ks.band[:p + 1])
    if info > 0:
        raise SingularSystem(f"Cholesky: leading minor {info} of the scaled "
                             f"K is not positive definite")
    m_up = np.asfortranarray(Ms.band[:p + 1])
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
    Every route works on B_i = D A_i D, D the unit_diagonal scaling of A0,
    whose structure is judged once on the band storage.

    With ``count``, the ``count + 2`` eigenvalues of least modulus (two
    spare, so a +- pair is never cut before the caller's sort); m = n, and
    at most 2n - 2 eigenvalues are returned, none when A1 = A2 = 0 (every
    eigenvalue is infinite).  An unseeded real pencil with B1 = 0 and B0, B2
    symmetric is B0 v = mu B2 v, mu = -lam^2: mass_deflated_eig's Lanczos
    on one Cholesky factor of B0 gives lam = +-sqrt(-mu), each pair sharing
    one eigenvector, as the dense reduction does (with B1 = alpha B2 the
    count least |lam| need not come from the least mu).  Any other pencil,
    or a B0 whose Cholesky fails, takes ARPACK Arnoldi on the companion
    operator shift-inverted about 0, [v1; v2] -> [v2; -B0^{-1}(B2 v1 +
    B1 v2)], applying the banded LU of B0 once per step; an exactly
    singular B0 raises SingularSystem.

    Without ``count``, every eigenvalue, nonfinite ones at infinity kept; a
    regular pencil contributes 2 m eigenvalues with multiplicity:

    * B0 and B2 Hermitian, B0 positive definite above the deflation cutoff
      and B1 = alpha B2 + f e0 e0^T (_proportion): _definite_eig, m = n,
      the rank the companion path would deflate to.  This takes A1 = 0,
      the lambda-Robin row (alpha = 0), the kg pencil at q != 0 on a
      boosted gamma0 (f = 0), and both at once.
    * otherwise _companion_qz, m the deflated rank.

    At an infinite eigenvalue the returned vector is the v2 = lam v block of
    the Cauchy data.
    """
    B0, d = A0.unit_diagonal()
    B1, B2 = A1.scaled(d), A2.scaled(d)
    n = d.size
    if count is None:
        dtype = np.result_type(B0.dtype, B1.dtype, B2.dtype)
        dense = [B.toarray().astype(dtype, copy=False) for B in (B0, B1, B2)]
        form = (_proportion(B1, B2)
                if _is_hermitian(B0) and _is_hermitian(B2) else None)
        found = form and _definite_eig(dense[0], dense[2], *form)
        lam, vecs, m = found or _companion_qz(*dense)
        idx = modulus_order(lam)
        return lam[idx], vecs[:, idx] * d[:, None], m
    if not (B1.norm1() or B2.norm1()):
        return np.zeros(0, dtype=complex), np.zeros((n, 0), dtype=complex), n
    k = min(int(count) + 2, 2 * n - 2)
    if (not B0.seeded and not np.any(B1.band) and B0.dtype == B2.dtype == float
            and _is_hermitian(B0) and _is_hermitian(B2)):
        try:
            mu, Z = mass_deflated_eig(B0, B2, (k + 1) // 2)
        except SingularSystem:
            pass    # A0 is not definite: Arnoldi below
        else:
            lam = np.sqrt((-mu).astype(complex))
            lam = np.concatenate([lam, -lam])
            vecs = np.concatenate([Z, Z], axis=1) * d[:, None]
            idx = modulus_order(lam)[:k]
            return lam[idx], vecs[:, idx], n
    from scipy.sparse.linalg import LinearOperator, eigs

    lu = _BorderedLU(B0)

    def companion(v):
        v1, v2 = v[:n], v[n:]
        return np.concatenate([v2, -lu.solve(B2 @ v1 + B1 @ v2)])

    op = LinearOperator((2 * n, 2 * n), matvec=companion, dtype=complex)
    mu, V = eigs(op, k=k, which="LM", v0=_start_vector(2 * n).astype(complex))
    finite = mu != 0
    lam = 1.0 / mu[finite]
    vecs = V[:n, finite] * d[:, None]
    idx = modulus_order(lam)
    return lam[idx], vecs[:, idx], n


def _definite_eig(A0, A2, alpha, f):
    """Every eigenpair of A0 + lam (alpha A2 + f e0 e0^T) + lam^2 A2 for
    dense Hermitian A0 and A2 (pencil_eig passes them scaled), or None
    unless A0 is positive definite with every eigenvalue above RANK_CUTOFF
    of the largest.  Returns (lam, vecs, n).

    One eigh of (A2, A0) gives V with V^H A0 V = I and V^H A2 V = Theta,
    and the pencil in V's coordinates is I + lam F + lam^2 Theta with
    F = alpha Theta + f u u^H, u = conj(V[0]): diagonal plus rank one
    (Golub, SIAM Rev. 15 (1973)).  A mode k with f u_k = 0 (every mode when
    f = 0) is decoupled: 1 + alpha theta_k lam + theta_k lam^2 = 0 gives
    lam = (-alpha +- sqrt(alpha^2 - 4 / theta_k)) / 2, the pair sharing
    v_k; at alpha = 0 that is +-sqrt(-1 / theta_k), and the Cauchy data
    (v, +-lam v) of the pair is exact.  _rank_one_eig solves the coupled
    modes, without eigenvectors of a companion.
    """
    from scipy.linalg import eigh, eigvalsh

    ev = eigvalsh(A0)        # the singular values the QZ deflation ranks
    if not ev[0] > RANK_CUTOFF * abs(ev[-1]):
        return None
    theta, V = eigh(A2, A0)  # A2 v = theta A0 v
    n = theta.size
    # As in LAPACK's rank-one divide and conquer (dlaed2), a u_k whose
    # removal moves F by less than rounding of the companion,
    # 2 |f| |u_k| |u| <= eps max(1, ||F||, ||Theta||), deflates too
    u = np.conj(V[0])
    size = abs(f) * np.linalg.norm(u)
    top = np.max(np.abs(theta))
    free = 2.0 * size * np.abs(u) <= np.finfo(float).eps * max(
        1.0, size * np.linalg.norm(u) + abs(alpha) * top, top)
    with np.errstate(divide="ignore"):
        half = 0.5 * np.sqrt((alpha * alpha - 4.0 / theta[free])
                             .astype(complex))
    lam = np.concatenate([-0.5 * alpha + half, -0.5 * alpha - half])
    vecs = np.concatenate([V[:, free], V[:, free]], axis=1)
    if not free.all():
        lam_j, X = _rank_one_eig(theta[~free], u[~free], f, alpha)
        lam = np.concatenate([lam_j, lam])
        vecs = np.concatenate([_matmul(V[:, ~free], X), vecs], axis=1)
    return lam, vecs, n


def _rank_one_eig(theta, u, f, alpha):
    """(lam, X): every eigenpair of I + lam (alpha Theta + f u u^H)
    + lam^2 Theta with no u_k = 0, the eigenvectors in the coordinates of
    theta.

    In s = 1 / lam the pencil is D(s) + f s u u^H with D(s) diagonal,
    d_k(s) = s^2 + theta_k (1 + alpha s).  One eigvals of the companion
    [[-alpha Theta - f u u^H, -Theta], [I, 0]] gives the 2n eigenvalues,
    the roots of the secular function g(s) = 1 + f s sum_k |u_k|^2 / d_k(s)
    (the rank-one reduction of Tisseur & Meerbergen, SIAM Rev. 43 (2001),
    sec. 3, with F as in Golub, SIAM Rev. 15 (1973)).  Each eigenvector is
    then, in closed form, x = D(s)^{-1} u, O(n) per mode, whose residual
    P(s) x = u g(s) is known without a product.  Near a pole d_k(s) = 0
    that closed form amplifies the error of s, and e_k is the better
    vector; each root keeps whichever of the two has the smaller residual
    (a root on a pole takes e_k).  A root whose pair is not backward stable
    also takes one Newton step on g, kept where it lowers that residual.
    The closed form reads theta itself: the rounding-level theta <= 0 of
    eigh take no square root.
    """
    from scipy.linalg import eigvals

    n = theta.size
    C = np.zeros((2 * n, 2 * n), dtype=np.result_type(f, alpha, u))
    C[:n, :n] = -f * np.outer(u, np.conj(u)) - alpha * np.diag(theta)
    C[:n, n:] = -np.diag(theta)
    C[n:, :n] = np.eye(n)
    s = eigvals(C)           # s = 1 / lam
    w = (np.abs(u) ** 2)[:, None]
    uu = w.sum()
    th = theta[:, None]

    def secular(s):
        """Per root: the residual ||P(s) x|| and the unit vector x, the
        better of the closed form and e_k at the nearest pole k, and g(s).
        With d = D(s) (n x 2n) and a2 = 1 / |d|^2, 1 / d = conj(d) a2, so
        the sums over k run in real arithmetic."""
        s2, sa = s * s, alpha * s
        dr = s2.real + th * (1.0 + sa.real)
        di = s2.imag + th * sa.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            a2 = 1.0 / (dr * dr + di * di)
            t0 = w * a2
            x2 = t0.sum(axis=0)                 # ||d^{-1} u||^2
            ud = (t0 * dr).sum(axis=0) - 1j * (t0 * di).sum(axis=0)
            g = 1.0 + f * s * ud                # u^H d^-1 u = ud
            res = np.abs(g) * np.sqrt(uu / x2)  # P(s) d^-1 u = u g(s)
            k = np.argmax(a2, axis=0)
            wk = w[k, 0]
            # P(s) e_k = d_k e_k + f s conj(u_k) u
            cols = np.arange(s.size)
            dk = dr[k, cols] + 1j * di[k, cols]
            res_e = np.sqrt(np.abs(dk + f * s * wk) ** 2 + np.abs(f * s) ** 2
                            * wk * np.maximum(uu - wk, 0.0))
            scale = a2 / np.sqrt(x2)
            X = np.empty(dr.shape, dtype=complex)
            X.real, X.imag = dr * scale, -di * scale
            X *= u[:, None]
        unit = ~(res <= res_e)                  # a pole (nan) included
        X[:, unit] = 0.0
        X[k[unit], unit] = 1.0
        return np.where(unit, res_e, res), X, g

    def slope(s):
        """g'(s) = f (u^H d^-1 u - s u^H d^-2 d' u), d' = 2 s + alpha theta."""
        d = s * s + th * (1.0 + alpha * s)
        q = w / d
        return f * (q.sum(axis=0)
                    - s * (q * (2.0 * s + alpha * th) / d).sum(axis=0))

    res, X, g = secular(s)
    # a pair within rounding of ||s^2 I + s F + Theta|| is backward stable;
    # any other root takes one Newton step on g, kept where res falls
    top = np.max(np.abs(theta))
    bound = np.abs(s) ** 2 + np.abs(s) * (abs(f) * uu + abs(alpha) * top) + top
    loose = np.flatnonzero(~(res <= 8.0 * np.finfo(float).eps * bound))
    if loose.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            step = s[loose] - g[loose] / slope(s[loose])
        step = np.where(np.isfinite(step), step, s[loose])
        res_new, X_new, _ = secular(step)
        better = res_new < res[loose]
        s[loose[better]] = step[better]
        X[:, loose[better]] = X_new[:, better]
    lam = np.full(s.shape, np.inf, dtype=complex)
    lam[s != 0] = 1.0 / s[s != 0]
    return lam, X


def _companion_qz(A0, A1, A2):
    """Dense companion QZ of pencil_eig's scaled operators, for the pencils
    _definite_eig does not take: non-Hermitian ones (the kg pencil with an
    e0 term), an indefinite or rank-deficient A0, and an A1 not of the form
    alpha A2 + f e0 e0^T (a linear pencil, A2 = 0, with more than the seed
    corner in A1 among them).  The pencil is projected onto the singular
    vectors of A0's Hermitian part above RANK_CUTOFF of the largest, m of
    them; real QZ for real operators.  Returns (lam, vecs, m)."""
    from scipy.linalg import eig, svd

    U, sv, _ = svd(0.5 * (A0 + A0.conj().T))
    T = U[:, sv > RANK_CUTOFF * sv[0]]
    Th = T.conj().T
    A0p = _matmul(_matmul(Th, A0), T)
    A1p = _matmul(_matmul(Th, A1), T)
    A2p = _matmul(_matmul(Th, A2), T)
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
    return lam, _matmul(T, vecs), m
