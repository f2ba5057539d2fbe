"""Model boundary value solves for Bessel operators.

Covers the regular 1D problems on the (truncated) half-line, the Dirichlet
Laplacian on (0, 1), separable problems on (0,1) x T^{n-1} mode by mode, the
explicit Poisson lifts built from K_nu / I_nu, and the large-parameter
resolvent sweep.  Every solve goes through the enriched Galerkin space of
:mod:`besselbvp.fem`; the regularity (Lopatinskii) test runs first, on the
decaying root and boundary matrix of :mod:`besselbvp.symbols`, and a
failing pair is refused with the offending sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from numpy.polynomial import Polynomial

from .config import DEFAULTS
from .core import (
    GridFunction,
    Order,
    RadialGrid,
    Regime,
    TraceData,
    as_order,
    grid_derivative,
)
from .errors import (
    DomainError,
    RegularityViolated,
    SingularSystem,
    SpectralParameterOnCut,
)
from .fem import Space, galerkin_solve
from .quadrature import composite_rule
from .symbols import boundary_matrix, decaying_root, mode_traces

__all__ = [
    "BesselOperator",
    "BVProblem",
    "CapCondition",
    "Solution",
    "SeparableSolution",
    "ResolventReport",
    "solve_1d",
    "solve_dirichlet_laplacian",
    "solve_separable",
    "poisson_lift",
    "operator_residual",
    "resolvent_sweep",
]


def _as_callable(c):
    if c is None:
        return None
    if callable(c):
        return c
    value = complex(c)
    return lambda x: np.full(np.shape(x), value, dtype=complex)


def _q_squared(q):
    """|q|^2 of a tangential mode index, an int or a tuple (None: 0)."""
    q = 0 if q is None else q
    return float(np.dot(np.atleast_1d(q), np.atleast_1d(q)))


@dataclass(frozen=True)
class BesselOperator:
    """|D_nu|^2 + b(x) D_nu + a(x) (+ A(q) per tangential mode).

    ``a_coeff``/``b_coeff`` may be constants or callables; b must vanish at
    x = 0, so the only constant b is 0, which means no b term (it is stored
    as None).  ``pencil_fourier`` returns (a2, a1, a0) with
    A(q, lambda) = a2 + a1 lambda + a0 lambda^2 per tangential mode q; the
    default is (|q|^2, 0, 1).
    """

    nu: Order
    a_coeff: object = 0.0
    b_coeff: object = None
    pencil_fourier: object = None

    def __post_init__(self):
        object.__setattr__(self, "nu", as_order(self.nu))
        b = self.b_coeff
        if b is None:
            return
        if not callable(b):
            if complex(b) != 0:
                raise DomainError("b_coeff must vanish at x = 0")
            object.__setattr__(self, "b_coeff", None)
        elif abs(complex(np.asarray(b(1e-9)).reshape(-1)[0])) > 1e-6:
            raise DomainError("b_coeff must vanish at x = 0")

    def mode_coefficients(self, q=None):
        """(a2, a1, a0): mode q (None: 0) adds a2 + a1 lambda + a0 lambda^2
        to a(x); pencil_fourier(q), else (|q|^2, 0, 1)."""
        q = 0 if q is None else q
        if self.pencil_fourier is not None:
            return tuple(self.pencil_fourier(q))
        return _q_squared(q), 0.0, 1.0

    def forms(self, space):
        """(S + A + B, M) on ``space``; a shift or mode value c adds c M.

        A constant a enters as a M, and not at all when a = 0, just as a
        shift does: ``space.matrices`` assembles S and M (and B) only.  A
        callable a, a Polynomial included, is integrated as its own form A.
        """
        a = self.a_coeff
        mats = space.matrices(a_fun=a if callable(a) else None,
                              b_fun=self.b_coeff)
        base = mats["S"]
        if callable(a):
            base = base + mats["A"]
        elif complex(a) != 0:
            base = base + complex(a) * mats["M"]
        if "B" in mats:
            base = base + mats["B"]
        return base, mats["M"]

    def a_poly(self):
        """Polynomial form of a_coeff (constants only), for branch calculus."""
        if callable(self.a_coeff):
            if isinstance(self.a_coeff, Polynomial):
                return self.a_coeff
            raise DomainError("branch calculus needs constant/polynomial a")
        return Polynomial([complex(self.a_coeff)])

    def b_poly(self):
        if self.b_coeff is None:
            return None
        if isinstance(self.b_coeff, Polynomial):
            return self.b_coeff
        raise DomainError("branch calculus needs polynomial b (b(0) = 0)")


class CapCondition(Enum):
    DIRICHLET = "dirichlet"      # u(x_max) = 0 on the interval model
    DECAY = "decay"              # truncated half-line, Dirichlet cap far out


@dataclass(frozen=True)
class BVProblem:
    op: BesselOperator
    bc0: object = None                  # BoundaryOperator, subcritical only
    bc1: CapCondition = CapCondition.DIRICHLET
    rhs: object = 0.0                   # callable f(x) or constant
    boundary_data: object = 0.0         # g (scalar or length J+1 vector)
    fourier_index: object = None        # tangential mode q
    rhs_singular_exponent: float = 0.0  # x^sigma hint for the rhs at 0

    def __post_init__(self):
        _check_bc0(self.op.nu, self.bc0)


def _check_bc0(order, bc0):
    """DomainError unless bc0 is given exactly when 0 < nu < 1."""
    needs = order.regime is Regime.SUBCRITICAL
    if needs and bc0 is None:
        raise DomainError("0 < nu < 1 requires a boundary condition at 0")
    if not needs and bc0 is not None:
        raise DomainError("no boundary conditions are admissible for nu >= 1")


@dataclass(frozen=True)
class Solution:
    u: GridFunction
    traces: object
    residual_norm: float
    condition_estimate: float
    aux: object = None                    # recovered u_ for J >= 1
    truncation_estimate: object = None    # half-line x_max doubling check
    space: object = field(default=None, repr=False, compare=False)
    coeffs: object = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# regularity pre-check (the 1D Lopatinskii test with full trace values)
# ---------------------------------------------------------------------------

def regularity_check(nu, a_eff, bc, q=None):
    """Raise RegularityViolated unless {P, T, C} is regular at mode q;
    returns the decaying root xi of xi^2 + a.

    The determinant is symbols' boundary matrix, read on the full rows and
    C at (eta, lambda) = (q, 0).
    """
    order = as_order(nu)
    a = complex(a_eff)
    if a.imag == 0 and a.real <= 0:
        raise RegularityViolated(
            f"zeroth-order value a={a_eff} lies on (-inf, 0]; "
            "the operator is not regular", sample={"a": a_eff})
    xi = decaying_root(a)
    if order.regime is not Regime.SUBCRITICAL:
        return xi
    eta = bc.mode_eta(q)
    M = boundary_matrix(bc.evaluate_full(eta, 0.0), mode_traces(order, xi),
                        bc.c_values(eta, 0.0))
    det = np.linalg.det(M)
    scale = float(np.prod(np.maximum(
        np.sum(np.abs(M), axis=1), 1e-300)))
    if abs(det) <= 1e-10 * scale:
        raise RegularityViolated(
            "boundary operator is singular on the decaying solution "
            f"(|det| = {abs(det):.2e})", sample={"a": a_eff, "xi": xi})
    return xi


def _reduce_boundary_system(bc, g, q=None, lam=0.0):
    """Eliminate the auxiliary unknowns: returns (alpha, beta, gamma, recover).

    The J+1 boundary rows T u + C u_ = g, read at (eta, lambda) = (q, lam),
    reduce generically to one relation alpha gamma_-(u) + beta gamma_+(u) =
    gamma; ``recover(gm, gp)`` then returns u_.
    """
    eta = bc.mode_eta(q)
    rows = bc.evaluate_full(eta, lam)
    tvec = np.array(rows, dtype=complex)          # (J+1, 2)
    g = np.atleast_1d(np.asarray(g, dtype=complex))
    J = bc.n_aux
    if J == 0:
        if g.size != 1:
            raise DomainError("scalar boundary data expected")
        return tvec[0, 0], tvec[0, 1], g[0], lambda gm, gp: np.zeros(0)
    C = np.asarray(bc.c_values(eta, lam), dtype=complex)
    if g.size != J + 1:
        raise DomainError(f"boundary data must have length {J + 1}")
    # unit vector spanning the complement of range(C)
    Q, _ = np.linalg.qr(C, mode="complete")
    w = Q[:, J].conj()
    alpha = complex(w @ tvec[:, 0])
    beta = complex(w @ tvec[:, 1])
    gamma = complex(w @ g)

    def recover(gm, gp):
        resid = g - gm * tvec[:, 0] - gp * tvec[:, 1]
        sol, *_ = np.linalg.lstsq(C, resid, rcond=None)
        return sol

    return alpha, beta, gamma, recover


# ---------------------------------------------------------------------------
# the 1D solve
# ---------------------------------------------------------------------------

def _mode_value(op, c):
    """a(0) + c: the zeroth-order value the regularity test reads."""
    a0 = _as_callable(op.a_coeff)(np.array([1e-8]))
    return complex(np.asarray(a0).reshape(-1)[0] + c)


def _solve_on_space(space, A, load, bc, g, q=None, lam=0.0):
    """Solve the assembled A with the row of bc evaluated at (eta, lambda) =
    (q, lam); returns (coeffs, cond, aux)."""
    aux = np.zeros(0)
    recover = None

    if bc is not None:
        alpha, beta, gamma, recover = _reduce_boundary_system(bc, g, q, lam)
        im = space.idx_minus
        if im is None:
            raise DomainError("boundary conditions need the x^{1/2-nu} branch")
        if abs(beta) <= 1e-14 * max(abs(alpha), 1.0):
            # essential: gamma_- u = gamma / alpha fixes the seed dof
            gval = gamma / alpha
            keep = np.arange(space.n) != im
            sol, cond = galerkin_solve(A.lagrange_block(),
                                       load[keep] - gval * A.col)
            coeffs = np.zeros(space.n, dtype=complex)
            coeffs[keep] = sol
            coeffs[im] = gval
        else:
            A = replace(A, corner=A.corner - alpha / beta)
            load = load.copy()
            load[im] -= gamma / beta
            coeffs, cond = galerkin_solve(A, load)
    else:
        coeffs, cond = galerkin_solve(A, load)

    if recover is not None and bc.n_aux:
        tr = _discrete_traces(space, coeffs)
        aux = recover(tr.gamma_minus, tr.gamma_plus)
    return coeffs, cond, aux


def _discrete_traces(space, coeffs):
    gm = complex(space.gamma_minus_vector() @ coeffs)
    gp = complex(space.gamma_plus_vector() @ coeffs)
    return TraceData(gm, gp)


def _residual(space, op, c, coeffs, rhs):
    """Relative strong residual ||P u_h - f|| over the resolved window; a
    residual above 1e-2 (the data is not resolved) raises SingularSystem.

    Normalised by ||f||, or for f = 0 by the L2 size of the operator terms
    |cu| + |a u| + |b d_nu u| (they cancel for a true solution, as in
    operator_residual), so the measure does not scale with the data.
    """
    a_fun, b_fun = _as_callable(op.a_coeff), op.b_coeff

    def terms(xq, u, du, cu):
        au = (np.asarray(a_fun(xq), dtype=complex) + c) * u
        if b_fun is None:
            return cu, au
        return cu, au, -1j * np.asarray(b_fun(xq), dtype=complex) * du

    rnorm, scale = space.strong_residual(coeffs, terms, f=_as_callable(rhs))
    resid = rnorm / scale if scale > 0 else rnorm
    if not np.isfinite(resid) or resid > 1e-2:
        raise SingularSystem(
            f"strong residual {resid:.2e}: the discrete problem did not "
            "resolve this data")
    return resid


def _gated_solution(space, A, load, c, prob, grid):
    """Solve prob with A = base + c M; gate the residual, sample on grid."""
    coeffs, cond, aux = _solve_on_space(space, A, load, prob.bc0,
                                        prob.boundary_data, prob.fourier_index)
    resid = _residual(space, prob.op, c, coeffs, prob.rhs)
    u = GridFunction(grid, space.eval_coeffs(coeffs, grid.nodes),
                     fourier_index=prob.fourier_index)
    # gamma_-/gamma_+ of the discrete solution are exactly the enrichment
    # coefficients (the piecewise part has a double zero at x = 0)
    tr = _discrete_traces(space, coeffs) if space.include_minus else None
    return Solution(u, tr, float(resid), float(cond),
                    aux=aux if np.size(aux) else None,
                    space=space, coeffs=coeffs)


def solve_1d(prob, n_nodes=None, settings=DEFAULTS):
    """Solve P u = f, T u = g on (0, 1) or the truncated half-line.

    The pair (P, T), the row read at eta = fourier_index, is checked for
    regularity first (RegularityViolated refusal otherwise); the discrete
    solution, its fitted traces, the relative strong residual, a condition
    estimate and, for DECAY, the change when x_max doubles are returned.
    """
    op = prob.op
    order = op.nu
    c = op.mode_coefficients(prob.fourier_index)[0]
    xi = regularity_check(order, _mode_value(op, c), prob.bc0,
                          prob.fourier_index)

    decay = prob.bc1 is CapCondition.DECAY
    x_max = (settings.halfline_decay_lengths / max((1j * xi).real, 1e-8)
             if decay else 1.0)

    def assemble(xm):
        space = Space(order, xm, n_nodes=n_nodes,
                      outward=decay, settings=settings)
        base, M = op.forms(space)
        return space, base + c * M, space.load_vector(
            _as_callable(prob.rhs), singular_exponent=prob.rhs_singular_exponent)

    space, A, load = assemble(x_max)
    sol = _gated_solution(space, A, load, c, prob, RadialGrid.build(
        x_max, n_nodes=n_nodes, settings=settings))

    if decay:
        space2, A2, load2 = assemble(2.0 * x_max)
        coeffs2, *_ = _solve_on_space(space2, A2, load2, prob.bc0,
                                      prob.boundary_data, prob.fourier_index)
        probe = np.linspace(0.05 * x_max, 0.9 * x_max, 64)
        near = space.eval_coeffs(sol.coeffs, probe)
        diff = np.max(np.abs(space2.eval_coeffs(coeffs2, probe) - near))
        sol = replace(sol, truncation_estimate=float(
            diff / max(np.max(np.abs(near)), 1e-300)))
    return sol


# ---------------------------------------------------------------------------
# the Dirichlet Laplacian, mode by mode
# ---------------------------------------------------------------------------

def solve_dirichlet_laplacian(nu, a, rhs_modes, n_nodes=None,
                              settings=DEFAULTS):
    """(Delta_nu + a) u = f with the twisted-Dirichlet form domain, per mode.

    ``rhs_modes`` maps the tangential mode q to a callable f_q(x); ``a`` must
    avoid the cut (-inf, 0].  Mode q solves S + (a + |q|^2) M, S and M
    assembled once.  A mode whose strong residual exceeds 1e-2 raises
    SingularSystem, as in solve_1d.
    """
    order = as_order(nu)
    a = complex(a)
    if a.imag == 0 and a.real <= 1e-12:
        raise SpectralParameterOnCut(f"a = {a} lies on (-inf, 0]")
    space = Space(order, 1.0, n_nodes=n_nodes,
                  include_minus=False, settings=settings)
    grid = RadialGrid.build(1.0, n_nodes=n_nodes, settings=settings)
    op = BesselOperator(order, a_coeff=a)
    base, M = op.forms(space)
    out = {}
    for q, f in rhs_modes.items():
        c = op.mode_coefficients(q)[0]
        coeffs, cond, _ = _solve_on_space(
            space, base + c * M, space.load_vector(_as_callable(f)), None, 0.0)
        resid = _residual(space, op, c, coeffs, f)
        u = GridFunction(grid, space.eval_coeffs(coeffs, grid.nodes),
                         fourier_index=q)
        out[q] = Solution(u, None, float(resid), float(cond),
                          space=space, coeffs=coeffs)
    return out


# ---------------------------------------------------------------------------
# separable problems on (0,1) x T^{n-1}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableSolution:
    modes: dict
    condition_spread: float

    def synthesize(self, x, y):
        """u(x, y) = sum_q u_q(x) exp(i <q, y>) from the per-mode solves."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        for q, sol in self.modes.items():
            qv = np.atleast_1d(q).astype(float)
            phase = np.exp(1j * qv[0] * y) if qv.size == 1 else \
                np.exp(1j * np.tensordot(y, qv, axes=0).sum(-1))
            out = out + sol.space.eval_coeffs(sol.coeffs, x) * phase
        return out


def solve_separable(nu, op, bc0, rhs_modes, boundary_data=None,
                    n_nodes=None, settings=DEFAULTS):
    """Per-mode 1D solves of a separable problem; fails on the offending q.

    ``rhs_modes``: {q: callable}, ``boundary_data``: {q: g} (default 0);
    mode q reads the row at eta = q.  Per-mode condition estimates must stay
    within a bounded spread (reported).  The operator is assembled once;
    mode q adds c M, c = A(q) (mode_coefficients).
    """
    order = as_order(nu)
    _check_bc0(order, bc0)
    space = Space(order, 1.0, n_nodes=n_nodes, settings=settings)
    base, M = op.forms(space)
    grid = RadialGrid.build(1.0, n_nodes=n_nodes, settings=settings)
    out = {}
    for q, f in sorted(rhs_modes.items(), key=lambda kv: np.sum(np.square(kv[0]))):
        c = op.mode_coefficients(q)[0]
        try:
            regularity_check(order, _mode_value(op, c), bc0, q)
        except RegularityViolated as exc:
            raise RegularityViolated(f"mode q = {q}: {exc}",
                                     sample={"q": q}) from exc
        g = 0.0 if boundary_data is None else boundary_data.get(q, 0.0)
        prob = BVProblem(op=op, bc0=bc0, bc1=CapCondition.DIRICHLET,
                         rhs=f, boundary_data=g, fourier_index=q)
        out[q] = _gated_solution(space, base + c * M,
                                 space.load_vector(_as_callable(f)), c, prob,
                                 grid)
    conds = [sol.condition_estimate for sol in out.values()]
    spread = float(max(conds) / max(min(conds), 1e-300)) if conds else 1.0
    return SeparableSolution(out, spread)


# ---------------------------------------------------------------------------
# Poisson lifts (explicit Bessel formulas, overflow-safe scaled evaluation)
# ---------------------------------------------------------------------------

def _bracket(q):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    return float(np.sqrt(1.0 + np.dot(q, q)))


def poisson_lift_profile(nu, which, q):
    """Radial profile callable of the (Delta_nu + 1) lift at mode q.

    "at_zero": gamma_- = 1 and value 0 at x = 1 (0 < nu < 1 only);
    "at_one":  gamma_- = 0 and value 1 at x = 1 (any nu > 0).  Evaluation is
    overflow-safe for large <q> through exponentially scaled Bessel calls.
    """
    from scipy.special import gamma, ive, kve

    order = as_order(nu)
    nuval = order.nu
    if which not in ("at_zero", "at_one"):
        raise DomainError("which must be 'at_zero' or 'at_one'")
    if which == "at_zero" and order.regime is not Regime.SUBCRITICAL:
        raise DomainError("the gamma_- lift requires 0 < nu < 1")
    tau = _bracket(q)
    if which == "at_one":
        def profile(x):
            x = np.asarray(x, dtype=float)
            return (np.sqrt(x) * ive(nuval, tau * x) / ive(nuval, tau)
                    * np.exp(tau * (x - 1.0)))
        return profile

    # (2 (tau/2)^nu / Gamma(nu)) [sqrt(x) K(tau x) - (K(tau)/I(tau)) sqrt(x) I(tau x)]
    pref = 2.0 * (tau / 2.0) ** nuval / gamma(nuval)
    ratio = (kve(nuval, tau) / ive(nuval, tau)) * np.exp(-2.0 * tau)

    def profile(x):
        x = np.asarray(x, dtype=float)
        k_part = np.sqrt(x) * kve(nuval, tau * x) * np.exp(-tau * x)
        i_part = ratio * np.sqrt(x) * ive(nuval, tau * x) * np.exp(tau * x)
        return pref * (k_part - i_part)

    return profile


def poisson_lift(nu, which, phi_modes, grid=None, n_nodes=None,
                 settings=DEFAULTS):
    """Mode-wise lifts with (Delta_nu + 1) kernel on (0, 1).

    ``which`` = "at_zero": gamma_-(lift) = phi_q and lift(1) = 0 (0 < nu < 1);
    ``which`` = "at_one":  gamma_-(lift) = 0 and lift(1) = phi_q (any nu > 0).
    """
    if grid is None:
        grid = RadialGrid.build(1.0, n_nodes=n_nodes, settings=settings)
    out = {}
    for q, phi in phi_modes.items():
        profile = poisson_lift_profile(nu, which, q)
        out[q] = GridFunction(grid, complex(phi) * profile(grid.nodes),
                              fourier_index=q)
    return out


def operator_residual(u, nu, a_value, settings=DEFAULTS):
    """Relative residual of (|D_nu|^2 + a) u on the window (0.05, 0.95) x_max.

    Differentiates the sampled values with local stencils.  The residual is
    normalised by the interior magnitude of the individual operator terms
    (which cancel for a true solution), so it measures how well the samples
    satisfy the ODE independently of how large those terms are.  A (CSV)
    grid with no node in the window raises DomainError.
    """
    order = as_order(nu)
    x = u.grid.nodes
    lo, hi = 0.05 * u.grid.x_max, 0.95 * u.grid.x_max
    mask = (x >= lo) & (x <= hi)
    if not np.any(mask):
        raise DomainError("no grid node in the residual window")
    d2 = grid_derivative(u.grid, u.values, deriv=2, settings=settings,
                         check=False)
    centrifugal = (order.nu ** 2 - 0.25) * u.values / x ** 2
    zeroth = complex(a_value) * u.values
    res = -d2 + centrifugal + zeroth
    scale = np.max(np.abs(d2[mask]) + np.abs(centrifugal[mask])
                   + np.abs(zeroth[mask]))
    return float(np.max(np.abs(res[mask])) / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# resolvent sweep in parameter-dependent norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolventReport:
    rows: tuple            # dicts: radius, lambda, ratio, singular, condition
    bounded: bool

    def ratios(self):
        return [r["ratio"] for r in self.rows if not r["singular"]]


def _random_smooth_rhs(x_max, seed, n_terms=6):
    rng = np.random.default_rng(seed)
    cr = rng.standard_normal(n_terms)
    ci = rng.standard_normal(n_terms)

    def f(x):
        out = np.zeros(np.shape(x), dtype=complex)
        for k in range(n_terms):
            out += (cr[k] + 1j * ci[k]) * np.sin((k + 1) * np.pi * x / x_max)
        return out

    return f


def resolvent_sweep(op, bc, sector, radii, q=None, n_nodes=None, seed=0,
                    settings=DEFAULTS):
    """Solve P(lambda) u = f along the sector bisector at growing |lambda|.

    Reports the parameter-dependent ratio [[u]]_{H^2} / [[f]]_{H^0} per
    radius, the norm taken for mode q (Space.norms with q2 = |q|^2); a
    singular solve is reported in the row, not raised (that radius is below
    the invertibility threshold).  The operator and load are
    assembled once; each lambda adds (a2 + a1 lambda + a0 lambda^2) M, and
    the boundary row is read at (eta, lambda) = (q, lambda).
    """
    order = op.nu
    theta = sector.intervals[0]
    theta = 0.5 * (theta[0] + theta[1])
    space = Space(order, 1.0, n_nodes=n_nodes,
                  include_minus=(bc is not None
                                 and order.regime is Regime.SUBCRITICAL),
                  settings=settings)
    f = _random_smooth_rhs(space.x_max, seed)
    x, w = composite_rule(space.edges, space.degree + 8)
    fnorm = np.sqrt(np.sum(w * np.abs(f(x)) ** 2))
    base, M = op.forms(space)
    load = space.load_vector(f)
    a2, a1, a0 = op.mode_coefficients(q)
    q2 = _q_squared(q)
    rows = []
    for r in radii:
        lam = r * complex(np.cos(theta), np.sin(theta))
        shift = a2 + a1 * lam + a0 * lam * lam
        try:
            coeffs, cond, _ = _solve_on_space(space, base + shift * M, load,
                                              bc, 0.0, q, lam)
            singular = cond > 1e12
        except SingularSystem:
            rows.append({"radius": float(r), "lambda": lam, "ratio": None,
                         "singular": True, "condition": np.inf})
            continue
        h0, h1, h2 = space.norms(coeffs, q2=q2)
        al = abs(lam)
        u_param = np.sqrt(al ** 4 * h0 + al ** 2 * h1 + h2)
        rows.append({"radius": float(r), "lambda": lam,
                     "ratio": float(u_param / max(fnorm, 1e-300)),
                     "singular": bool(singular), "condition": float(cond)})
    ratios = [row["ratio"] for row in rows if not row["singular"]]
    bounded = all(b <= a * 1.1 for a, b in zip(ratios, ratios[1:]))
    return ResolventReport(tuple(rows), bool(bounded))
