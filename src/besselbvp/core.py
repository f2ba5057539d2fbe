"""Twisted derivatives, weighted traces, norms and the Green/Hardy checks.

The twisted derivative is d_nu = d/dx + (nu - 1/2)/x together with its formal
Lebesgue adjoint d_nu* = -x^{nu-1/2} d/dx x^{1/2-nu}; their composition is the
one-dimensional singular operator

    d_nu* d_nu = -d^2/dx^2 + (nu^2 - 1/4) x^{-2}.

Functions near the singular end are handled in two representations:

* ``plain``: complex samples on a radial grid; derivatives use local
  polynomial stencils, traces use a two-term power fit at the innermost nodes;
* ``fnupair``: u = x^{1/2-nu} m(x^2) + x^{1/2+nu} p(x) with polynomial smooth
  factors.  Everything (derivatives, traces, inner products) is then exact:
  products of branches are x^sigma * polynomial and are integrated by
  Gauss-Jacobi rules of sufficient order.

The pair representation is what makes the Green and Hardy identities
certifiable at 1e-7 and below; sampled data cannot reach that near x = 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import DEFAULTS
from .errors import DomainError, GridTooCoarse, TraceFitError
from .quadrature import composite_rule, graded_panels, jacobi_rule

__all__ = [
    "Order",
    "Regime",
    "RadialGrid",
    "GridFunction",
    "TraceData",
    "BranchFunction",
    "d_nu",
    "d_nu_star",
    "twisted_norm",
    "traces",
    "green_defect",
    "hardy_check",
    "dilate",
    "gridfunction_to_csv",
    "gridfunction_from_csv",
]


class Regime(Enum):
    SUBCRITICAL = "subcritical"    # 0 < nu < 1: boundary conditions required
    CRITICAL = "critical"          # nu = 1
    SUPERCRITICAL = "supercritical"  # nu > 1: no boundary conditions


@dataclass(frozen=True)
class Order:
    """Bessel order nu > 0 (the Breitenlohner-Freedman bound is nu > 0)."""

    nu: float

    def __post_init__(self):
        if not (self.nu > 0):
            raise DomainError(f"order must satisfy nu > 0, got {self.nu}")

    @property
    def regime(self):
        if self.nu < 1.0:
            return Regime.SUBCRITICAL
        if self.nu == 1.0:
            return Regime.CRITICAL
        return Regime.SUPERCRITICAL

    @property
    def needs_boundary_conditions(self):
        return self.regime is Regime.SUBCRITICAL


def as_order(nu):
    return nu if isinstance(nu, Order) else Order(float(nu))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class DensityHint(Enum):
    GAUSS_JACOBI = "gauss_jacobi"   # algebraic clustering, Jacobi-like density
    GRADED_MESH = "graded_mesh"     # geometric panels toward x = 0


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature grid on (0, x_max] for the plain Lebesgue measure dx.

    Nodes exclude x = 0 exactly (the operator is singular there); the weights
    integrate polynomials panel-exactly, so sum(weights) == x_max at rounding
    level.  ``grid_derivative`` keeps the stencil weights it computes on
    the grid, keyed by (width, deriv), so each set is computed once.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    x_max: float
    density_hint: DensityHint = DensityHint.GRADED_MESH
    _stencils: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes/weights must be matching 1-d arrays")
        if np.any(nodes <= 0) or np.any(nodes > self.x_max * (1 + 1e-12)):
            raise DomainError("nodes must lie in (0, x_max]")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if abs(weights.sum() - self.x_max) > 1e-10 * max(1.0, self.x_max):
            raise DomainError("weights must integrate 1 to x_max")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def build(cls, x_max, n_nodes=None, hint=DensityHint.GRADED_MESH,
              settings=DEFAULTS):
        n_nodes = settings.default_nodes if n_nodes is None else int(n_nodes)
        order = min(settings.panel_order, max(4, n_nodes))
        n_panels = max(2, int(round(n_nodes / order)))
        kind = "geometric" if hint is DensityHint.GRADED_MESH else "algebraic"
        edges = graded_panels(x_max, n_panels, kind=kind,
                              floor=settings.grading_floor)
        nodes, weights = composite_rule(edges, order)
        return cls(nodes, weights, float(x_max), hint)

    @classmethod
    def uniform(cls, x_max, n_nodes, settings=DEFAULTS):
        """Quasi-uniform panel grid; best for interior stencil derivatives."""
        order = min(settings.panel_order, max(4, int(n_nodes)))
        n_panels = max(2, int(round(n_nodes / order)))
        edges = np.linspace(0.0, x_max, n_panels + 1)
        nodes, weights = composite_rule(edges, order)
        return cls(nodes, weights, float(x_max), DensityHint.GRADED_MESH)

    @property
    def size(self):
        return self.nodes.size

    def integrate(self, values):
        return np.sum(self.weights * np.asarray(values))


# ---------------------------------------------------------------------------
# branch functions: sums of x^e * polynomial(x)
# ---------------------------------------------------------------------------

class BranchFunction:
    """Finite sum of terms x^exponent * P(x) with polynomial P.

    ``terms`` lists (exponent, coefficients) by exponent; the coefficients
    of P are a complex ndarray in increasing powers of x, nonzero at both
    ends (inputs may give P as a sequence or a numpy ``Polynomial``).
    Closed under d_nu, d_nu*, multiplication by polynomials and x^r; inner
    products over (0, X) reduce to Gauss-Jacobi integrals that the rules
    integrate exactly.
    """

    def __init__(self, terms):
        merged = {}
        for e, c in terms:
            c = np.atleast_1d(np.asarray(getattr(c, "coef", c), dtype=complex))
            e, c = _normalize(float(e), c)
            if c is not None:
                key = round(e, 12)
                merged[key] = _add(merged[key], c) if key in merged else c
        self.terms = []
        for e in sorted(merged):
            e, c = _normalize(e, merged[e])
            if c is not None:
                self.terms.append((e, c))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for e, c in self.terms:
            out += x ** e * _horner(c, x)
        return out

    def d_nu(self, nu):
        """d_nu (x^e P) = x^{e-1} [(e + nu - 1/2) P + x P']."""
        return BranchFunction([(e - 1.0, (e + nu - 0.5) * c + _xd(c))
                               for e, c in self.terms])

    def d_nu_star(self, nu):
        """d_nu* (x^e P) = -x^{e-1} [(e + 1/2 - nu) P + x P']."""
        return BranchFunction([(e - 1.0, -((e + 0.5 - nu) * c + _xd(c)))
                               for e, c in self.terms])

    def d_x(self):
        return BranchFunction([(e - 1.0, e * c + _xd(c)) for e, c in self.terms])

    def times_poly(self, q):
        q = np.atleast_1d(np.asarray(getattr(q, "coef", q), dtype=complex))
        return BranchFunction([(e, np.convolve(c, q)) for e, c in self.terms])

    def __add__(self, other):
        return BranchFunction(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        # np.convolve rounds complex products as numpy.polynomial does
        return self.times_poly(c)

    def dilate(self, tau):
        """x -> u(tau x): each branch picks up tau^e and a rescaled polynomial."""
        return BranchFunction([(e, c * tau ** np.arange(c.size) * tau ** e)
                               for e, c in self.terms])


def _normalize(e, c):
    """Shift vanishing leading coefficients into the exponent.

    Exact cancellations in d_nu / d_nu* leave rounding fuzz in the constant
    term; stripping at a relative tolerance keeps integrability bookkeeping
    honest.  Returns (e, None) for a zero polynomial.
    """
    mag = np.abs(c)
    c = np.where(mag <= 1e-12 * np.max(mag, initial=0.0), 0.0, c)
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return e, None
    for _ in range(nz[0]):
        e += 1.0          # one step at a time: e + k rounds differently
    return e, c[nz[0]:nz[-1] + 1]


def _add(a, b):
    a, b = (a, b) if a.size >= b.size else (b, a)
    return np.concatenate([a[:b.size] + b, a[b.size:]])


def _xd(c):
    """Coefficients of x P'(x): k c_k."""
    return np.arange(c.size) * c


def _horner(c, x):
    """P(x) by Horner's rule, in the order of numpy's ``polyval``."""
    y = c[-1] + x * 0
    for a in c[-2::-1]:
        y = a + y * x
    return y


def branch_inner(f, g, x_max):
    """L2 inner product <f, g> = int_0^xmax f conj(g) dx, exact per branch pair.

    The factors are evaluated at the Jacobi nodes and multiplied there: the
    product polynomial in the monomial basis cancels.
    """
    total = 0.0 + 0.0j
    for ef, cf in f.terms:
        for eg, cg in g.terms:
            sigma = ef + eg
            if sigma <= -1.0:
                raise DomainError(
                    f"branch product x^{sigma} is not integrable at 0")
            npts = (cf.size - 1 + cg.size - 1) // 2 + 2
            x, w = jacobi_rule(sigma, npts, 0.0, x_max)
            total += np.sum(w * _horner(cf, x) * np.conj(_horner(cg, x)))
    return total


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceData:
    """Weighted boundary data (gamma_-, gamma_+) at x = 0."""

    gamma_minus: complex
    gamma_plus: complex
    fit_residual: float = 0.0


class GridFunction:
    """Complex samples on a RadialGrid, optionally backed by smooth factors.

    ``fnupair`` functions store u = x^{1/2-nu} m(x^2) + x^{1/2+nu} p(x) with
    polynomial m (in x^2) and p (in x); the sampled values are reconstructed
    from the factors, and all calculus on them is exact.  Given a ``pair``
    and no ``values``, the pair is evaluated on the grid once; values given
    with a pair must reproduce it to 1e-10.
    """

    def __init__(self, grid, values=None, fourier_index=None, pair=None,
                 order=None):
        self.grid = grid
        self.fourier_index = (None if fourier_index is None
                              else np.atleast_1d(np.asarray(fourier_index, dtype=int)))
        self.pair = pair          # BranchFunction or None
        self.order = order        # Order used to build the pair
        recon = None if pair is None else pair(grid.nodes)
        self.values = np.asarray(recon if values is None else values,
                                 dtype=complex)
        if self.values.shape != grid.nodes.shape:
            raise DomainError("values must match grid nodes")
        if values is not None and recon is not None:
            scale = max(np.max(np.abs(self.values)), 1.0)
            if np.max(np.abs(recon - self.values)) > 1e-10 * scale:
                raise DomainError("pair factors do not reproduce stored values")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_callable(cls, grid, f, fourier_index=None):
        return cls(grid, np.asarray(f(grid.nodes), dtype=complex),
                   fourier_index=fourier_index)

    @classmethod
    def from_pair(cls, grid, nu, minus_coeffs_in_x2=(), plus_coeffs_in_x=(),
                  fourier_index=None):
        """Build x^{1/2-nu} m(x^2) + x^{1/2+nu} p(x) from factor coefficients."""
        order = as_order(nu)
        m = np.atleast_1d(np.asarray(minus_coeffs_in_x2, dtype=complex))
        coef = np.zeros(2 * m.size, dtype=complex)
        coef[::2] = m                          # m(x^2) as a polynomial in x
        pair = BranchFunction([(0.5 - order.nu, coef),
                               (0.5 + order.nu, plus_coeffs_in_x)])
        return cls(grid, fourier_index=fourier_index, pair=pair, order=order)

    # -- basic structure ----------------------------------------------------

    @property
    def rep(self):
        return "fnupair" if self.pair is not None else "plain"

    @property
    def q_norm_sq(self):
        if self.fourier_index is None:
            return 0.0
        return float(np.sum(self.fourier_index.astype(float) ** 2))

    def with_values(self, values):
        return GridFunction(self.grid, values, fourier_index=self.fourier_index)

    def norm_sq(self):
        return float(np.real(self.grid.integrate(np.abs(self.values) ** 2)))


# ---------------------------------------------------------------------------
# stencil differentiation on arbitrary grids (Fornberg weights)
# ---------------------------------------------------------------------------

def _fornberg(z, x, m):
    """Weights (..., w, m + 1) for derivatives 0..m at points z (...) from
    stencil nodes x (..., w), by Fornberg's recurrence (1988)."""
    w = x.shape[-1]
    c = np.zeros(x.shape + (m + 1,))
    c1, c4 = 1.0, x[..., 0] - z
    c[..., 0, 0] = 1.0
    for i in range(1, w):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1]
                                         - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c


def grid_derivative(grid, values, deriv=1, width=None, settings=DEFAULTS,
                    check=True):
    """Derivative of sampled values by sliding local polynomial stencils.

    Node i uses the ``width`` nodes centred on it, shifted inwards at the
    ends; the Fornberg weights of each (width, deriv) are computed on the
    first call and kept on the grid.  The stencil error is estimated by re-running two orders lower; a
    grid-too-coarse diagnostic is raised when the estimate exceeds the
    configured relative tolerance.
    """
    width = settings.stencil_width if width is None else int(width)
    x, memo = grid.nodes, grid._stencils
    values = np.asarray(values)
    n = x.size
    width = min(width, n)
    if width < deriv + 2:
        raise GridTooCoarse("not enough nodes for the requested stencil")

    def sweep(w):
        # every node's stencil from one gather; a batched (1, w) @ (w, 1)
        # product takes the same BLAS dot per node, on the same memory
        # layout (hence copy=False, and a strided view kept on the grid), as
        # np.dot on one stencil
        idx = np.clip(np.arange(n) - w // 2, 0, n - w)[:, None] + np.arange(w)
        wts = memo.get((w, deriv))
        if wts is None:
            wts = memo[w, deriv] = _fornberg(x, x[idx], deriv)[..., deriv]
            wts.flags.writeable = False
        vals = values[idx][:, :, None]
        wts = wts[:, None, :].astype(np.result_type(wts, vals), copy=False)
        return (wts @ vals)[:, 0, 0].astype(complex, copy=False)

    result = sweep(width)
    if check and width - 2 >= deriv + 2:
        # estimate over interior nodes only: at the singular end every
        # stencil degrades (fractional powers), and that region is handled
        # by trace/expansion machinery rather than stencils
        lo, hi = width, max(n - width, width + 1)
        if lo >= n:
            raise GridTooCoarse(
                f"{n} nodes leave no interior node for the stencil error "
                f"estimate of width {width}")
        rough = sweep(width - 2)
        scale = np.max(np.abs(result[lo:hi])) or 1.0
        estimate = np.max(np.abs(result[lo:hi] - rough[lo:hi])) / scale
        if estimate > settings.derivative_check_tol:
            raise GridTooCoarse(
                f"stencil error estimate {estimate:.2e} exceeds "
                f"{settings.derivative_check_tol:.2e}")
    return result


# ---------------------------------------------------------------------------
# the twisted operations
# ---------------------------------------------------------------------------

def d_nu(u, nu, settings=DEFAULTS):
    """Twisted derivative d_nu u = x^{1/2-nu} d/dx (x^{nu-1/2} u)."""
    order = as_order(nu)
    if u.rep == "fnupair":
        return GridFunction(u.grid, fourier_index=u.fourier_index,
                            pair=u.pair.d_nu(order.nu), order=order)
    du = grid_derivative(u.grid, u.values, settings=settings)
    vals = du + (order.nu - 0.5) * u.values / u.grid.nodes
    return u.with_values(vals)


def d_nu_star(u, nu, settings=DEFAULTS):
    """Formal adjoint d_nu* u = -x^{nu-1/2} d/dx (x^{1/2-nu} u)."""
    order = as_order(nu)
    if u.rep == "fnupair":
        return GridFunction(u.grid, fourier_index=u.fourier_index,
                            pair=u.pair.d_nu_star(order.nu), order=order)
    du = grid_derivative(u.grid, u.values, settings=settings)
    vals = -du + (order.nu - 0.5) * u.values / u.grid.nodes
    return u.with_values(vals)


def bessel_schroedinger_apply(u, nu, settings=DEFAULTS):
    """|D_nu|^2 u = -u'' + (nu^2 - 1/4) x^{-2} u (one second-derivative pass)."""
    order = as_order(nu)
    if u.rep == "fnupair":
        return GridFunction(u.grid, fourier_index=u.fourier_index,
                            pair=u.pair.d_nu(order.nu).d_nu_star(order.nu), order=order)
    d2 = grid_derivative(u.grid, u.values, deriv=2, settings=settings)
    vals = -d2 + (order.nu ** 2 - 0.25) * u.values / u.grid.nodes ** 2
    return u.with_values(vals)


def _mode_weight_sq(u):
    return 1.0 + u.q_norm_sq


def twisted_norm(u, s, nu, settings=DEFAULTS):
    """Per-Fourier-mode H^s norm, s in {0, 1, 2}.

    H^1: ||u||^2 + ||d_nu u||^2 + |q|^2 ||u||^2;
    H^2: ||d_nu* d_nu u||^2 + (1 + |q|^2) * H^1-part, matching the twisted
    Sobolev norms specialised to the tangential mode stored on u.
    """
    if s not in (0, 1, 2):
        raise DomainError("twisted_norm defined for s in {0,1,2}")
    order = as_order(nu)
    X = u.grid.x_max

    if u.rep == "fnupair":
        f = u.pair
        l2 = np.real(branch_inner(f, f, X))
        if s == 0:
            return float(np.sqrt(max(l2, 0.0)))
        df = f.d_nu(order.nu)
        h1 = np.real(branch_inner(df, df, X)) + _mode_weight_sq(u) * l2
        if s == 1:
            return float(np.sqrt(max(h1, 0.0)))
        cf = df.d_nu_star(order.nu)
        h2 = np.real(branch_inner(cf, cf, X)) + _mode_weight_sq(u) * h1
        return float(np.sqrt(max(h2, 0.0)))

    l2 = u.norm_sq()
    if s == 0:
        return float(np.sqrt(l2))
    du = grid_derivative(u.grid, u.values, settings=settings, check=False)
    dnu_vals = du + (order.nu - 0.5) * u.values / u.grid.nodes
    h1 = float(np.real(u.grid.integrate(np.abs(dnu_vals) ** 2))) \
        + _mode_weight_sq(u) * l2
    if s == 1:
        return float(np.sqrt(h1))
    d2 = grid_derivative(u.grid, u.values, deriv=2, settings=settings,
                         check=False)
    comp_vals = -d2 + (order.nu ** 2 - 0.25) * u.values / u.grid.nodes ** 2
    h2 = float(np.real(u.grid.integrate(np.abs(comp_vals) ** 2))) \
        + _mode_weight_sq(u) * h1
    return float(np.sqrt(h2))


def dilate(u, tau, grid=None):
    """Dilation S_tau u(x) = u(tau x) for pair-represented functions.

    Pass a grid covering (0, x_max / tau) when norms of the dilated function
    are wanted: dilation moves mass across the truncation radius.
    """
    if u.rep != "fnupair":
        raise DomainError("dilate requires a pair-represented function")
    return GridFunction(grid or u.grid, fourier_index=u.fourier_index,
                        pair=u.pair.dilate(tau), order=u.order)


def traces(u, nu, window_fraction=0.02, corrections=4, settings=DEFAULTS):
    """Weighted traces (gamma_- u, gamma_+ u) at x = 0.

    gamma_- u = x^{nu-1/2} u|_0 and gamma_+ u = x^{1-2nu} d/dx (x^{nu-1/2} u)|_0.
    Exact for pair-represented functions.  Plain samples are fit against the
    two branch powers with x^2-tail correction regressors per branch over a
    window reaching from the innermost nodes out to ``window_fraction`` of
    the domain: the wide lever arm is what separates the branch exponents
    when 2 nu approaches an even integer (a bare two-term fit on the
    innermost nodes cannot see the x^{1/2+nu} signal in double precision).
    """
    order = as_order(nu)
    if order.regime is not Regime.SUBCRITICAL:
        raise DomainError("gamma_+ requires 0 < nu < 1 (subcritical regime)")
    nu = order.nu
    if u.rep == "fnupair":
        gm = gp = 0.0 + 0.0j
        for e, c in u.pair.terms:
            if abs(e - (0.5 - nu)) < 1e-9:
                gm = complex(c[0])
            elif abs(e - (0.5 + nu)) < 1e-9:
                gp = 2.0 * nu * complex(c[0])
            else:
                raise DomainError(f"unexpected branch exponent {e}")
        return TraceData(gm, gp, 0.0)

    x = u.grid.nodes
    n_min = 2 * (corrections + 1) + 4

    def fit(mask):
        xw, vw = x[mask], u.values[mask]
        cols = []
        for k in range(corrections + 1):
            cols.append(xw ** (0.5 - nu + 2 * k))
            cols.append(xw ** (0.5 + nu + 2 * k))
        A = np.stack(cols, axis=1)
        scale = np.linalg.norm(A, axis=0)
        scale[scale == 0] = 1.0
        coef, *_ = np.linalg.lstsq(A / scale, vw, rcond=None)
        coef = coef / scale
        rel = np.linalg.norm(A @ coef - vw) / max(np.linalg.norm(vw), 1e-300)
        return coef, rel

    # shrink the window until the expansion model fits; the innermost nodes
    # alone cannot separate the branches, so never go below n_min nodes
    best = None
    frac = window_fraction
    for _ in range(12):
        mask = x <= frac * u.grid.x_max
        if np.sum(mask) < n_min:
            mask = np.zeros(x.size, dtype=bool)
            mask[:min(x.size, n_min)] = True
        coef, rel = fit(mask)
        if best is None or rel < best[1]:
            best = (coef, rel)
        if rel < 1e-12 or np.sum(mask) <= n_min:
            break
        frac /= 2.0
    coef, rel = best
    if rel > settings.trace_fit_residual:
        raise TraceFitError(
            f"power fit residual {rel:.2e} exceeds "
            f"{settings.trace_fit_residual:.2e}")
    return TraceData(complex(coef[0]), 2.0 * nu * complex(coef[1]), float(rel))


# ---------------------------------------------------------------------------
# Green's identity and the Hardy inequality
# ---------------------------------------------------------------------------

def _operator_branches(op, u, nu):
    """P u for a pair-represented u: |D_nu|^2 u + b (D_nu u) + a u with
    polynomial a, b pulled from the operator's coefficients."""
    a_poly, b_poly = op.a_poly(), op.b_poly()
    f = u.pair
    df = f.d_nu(nu)
    out = df.d_nu_star(nu) + f.times_poly(a_poly)
    if b_poly is not None:
        # B D_nu u = -i b d_nu u
        out = out + df.times_poly(b_poly).scale(-1.0j)
    return out


def _adjoint_branches(op, v, nu):
    """P* v = |D_nu|^2 v + i d_nu*(conj(b) v) + conj(a) v."""
    a_poly, b_poly = op.a_poly(), op.b_poly()
    f = v.pair
    out = f.d_nu(nu).d_nu_star(nu) + f.times_poly(np.conj(a_poly.coef))
    if b_poly is not None:
        bbar = np.conj(b_poly.coef)
        out = out + f.times_poly(bbar).d_nu_star(nu).scale(1.0j)
    return out


def green_defect(op, u, v, nu=None, settings=DEFAULTS):
    """|<Pu, v> - <u, P*v> - boundary pairing| for pair-represented u, v.

    The boundary pairing is gamma_+u conj(gamma_-v) - gamma_-u conj(gamma_+v)
    for 0 < nu < 1 and empty for nu >= 1; small defects certify both the
    quadrature and the trace normalisation.
    """
    order = as_order(op.nu if nu is None else nu)
    if u.rep != "fnupair" or v.rep != "fnupair":
        raise DomainError("green_defect requires pair-represented inputs")
    X = u.grid.x_max
    pu = _operator_branches(op, u, order.nu)
    pv = _adjoint_branches(op, v, order.nu)
    lhs = branch_inner(pu, v.pair, X)
    rhs = branch_inner(u.pair, pv, X)
    boundary = 0.0 + 0.0j
    if order.regime is Regime.SUBCRITICAL:
        tu = traces(u, order)
        tv = traces(v, order)
        boundary = (tu.gamma_plus * np.conj(tv.gamma_minus)
                    - tu.gamma_minus * np.conj(tv.gamma_plus))
    return float(abs(lhs - rhs - boundary))


def hardy_check(u, nu, settings=DEFAULTS):
    """Both sides of the twisted Hardy inequality and the verdict.

    For 0 < nu < 1/2:  4 nu^2 ||u'||^2 <= ||d_nu u||^2;
    for nu >= 1/2:     ||u'||^2 <= ||d_nu u||^2.
    Requires u (numerically) supported away from x_max.
    """
    order = as_order(nu)
    nu = order.nu
    X = u.grid.x_max
    if u.rep == "fnupair":
        dx = u.pair.d_x()
        dn = u.pair.d_nu(nu)
        n_dx = float(np.real(branch_inner(dx, dx, X)))
        n_dn = float(np.real(branch_inner(dn, dn, X)))
    else:
        du = grid_derivative(u.grid, u.values, settings=settings, check=False)
        n_dx = float(np.real(u.grid.integrate(np.abs(du) ** 2)))
        dn = du + (nu - 0.5) * u.values / u.grid.nodes
        n_dn = float(np.real(u.grid.integrate(np.abs(dn) ** 2)))
    if nu < 0.5:
        lhs, rhs = 4.0 * nu ** 2 * n_dx, n_dn
    else:
        lhs, rhs = n_dx, n_dn
    slack = 1e-12 * max(1.0, rhs)
    return lhs, rhs, bool(lhs <= rhs + slack)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def gridfunction_to_csv(u, path_or_buf):
    """Write ``x,value_re,value_im`` rows (header mandatory)."""
    own = isinstance(path_or_buf, (str, bytes))
    fh = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        w = csv.writer(fh)
        w.writerow(["x", "value_re", "value_im"])
        for x, v in zip(u.grid.nodes, u.values):
            w.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])
    finally:
        if own:
            fh.close()


def gridfunction_from_csv(path_or_buf, grid=None):
    """Read a grid function written by gridfunction_to_csv.

    When ``grid`` is omitted a grid is rebuilt from the x column with
    interpolatory weights unavailable, so integration then uses trapezoid
    weights; pass the original grid for exact round trips.
    """
    own = isinstance(path_or_buf, (str, bytes))
    fh = open(path_or_buf, newline="") if own else path_or_buf
    try:
        rows = list(csv.reader(fh))
    finally:
        if own:
            fh.close()
    if not rows or rows[0] != ["x", "value_re", "value_im"]:
        raise DomainError("missing mandatory header x,value_re,value_im")
    data = np.array([[float(a), float(b), float(c)] for a, b, c in rows[1:]])
    x, vals = data[:, 0], data[:, 1] + 1j * data[:, 2]
    if grid is not None:
        if not np.allclose(grid.nodes, x, rtol=0, atol=1e-12):
            raise DomainError("csv nodes do not match the supplied grid")
        return GridFunction(grid, vals)
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = x[0] + (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    xmax = float(w.sum())
    grid = RadialGrid(x, w, xmax)
    return GridFunction(grid, vals)
