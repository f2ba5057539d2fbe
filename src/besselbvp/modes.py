"""Spectra of Bessel operators and quadratic pencils, with diagnostics.

The interval Dirichlet spectrum has the closed form 1 + |q|^2 + j_{nu,n}^2
with eigenfunctions sqrt(x) J_nu(j_{nu,n} x); the discrete Galerkin
eigenproblem is solved alongside, by shift-invert Lanczos for the modes
asked for, and the per-mode discrepancy reported.  Quadratic pencils
P(lambda) = P2 + lambda P1 + lambda^2 (with optionally lambda-linear
boundary rows) are linearised to a companion eigenproblem: shift-invert
Arnoldi when a mode count is given.  The full spectrum is dense: a
Hermitian definite even pencil (P1 = 0, no lambda in the boundary row) is
one symmetric problem in mu = lambda^2, any other goes through companion QZ.
Two-fold completeness is probed by the numerical rank of the stacked Cauchy
data (u, lambda u), the desk-scale surrogate for the continuum density
statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy import linalg as la

from .config import DEFAULTS
from .core import GridFunction, RadialGrid, Regime, as_order
from .errors import (DomainError, IncompleteModeInput, LinearizationSingular,
                     SingularSystem)
from .fem import (Space, mass_deflated_eig, modulus_order, pencil_eig,
                  spectral_norm)
from .special import bessel_zeros

__all__ = [
    "ModeSource",
    "ModeSet",
    "CompletenessReport",
    "SingularValueReport",
    "dirichlet_spectrum",
    "pencil_modes",
    "completeness_check",
    "embedding_singular_values",
    "modeset_to_json",
]


class ModeSource(Enum):
    LINEAR_EVP = "linear_evp"
    QUADRATIC_PENCIL = "quadratic_pencil"


@dataclass(frozen=True)
class ModeSet:
    """Eigenvalues sorted by |lambda|, with eigenvectors and Cauchy data."""

    nu: float
    fourier_index: object
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: tuple = field(repr=False)
    cauchy_data: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    source: ModeSource = ModeSource.LINEAR_EVP
    closed_form: object = None
    discrepancy: object = None
    constraint: object = None        # row vector defining the bc subspace
    dof: int = 0

    def __len__(self):
        return len(self.eigenvalues)


@dataclass(frozen=True)
class CompletenessReport:
    ambient_dim: int
    numerical_rank: int
    smallest_retained_singular_value: float
    verdict: bool
    note: str = ("numerical-rank surrogate at the discrete level; the "
                 "infinite-dimensional two-fold completeness statement is "
                 "not reproducible at desk scale")


@dataclass(frozen=True)
class SingularValueReport:
    s: np.ndarray
    fitted_exponent: float
    constant: float

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if np.any(s <= 0) or np.any(np.diff(s) > 1e-14):
            raise DomainError("singular values must be positive non-increasing")
        object.__setattr__(self, "s", s)


def dirichlet_spectrum(nu, q_max=0, n_max=10, n_nodes=None, settings=DEFAULTS):
    """Spectrum of Delta_nu + 1 on (0,1) x T^{n-1} restricted to |q| <= q_max.

    Returns a ModeSet whose eigenvalues come from the discrete Galerkin
    problem; ``closed_form`` carries 1 + |q|^2 + j_{nu,n}^2 from the zero
    table and ``discrepancy`` the per-mode relative difference.
    """
    order = as_order(nu)
    n_nodes = settings.default_nodes if n_nodes is None else int(n_nodes)
    zeros = bessel_zeros(order.nu, n_max, settings=settings)
    grid = RadialGrid.build(1.0, n_nodes=min(n_nodes, 256), settings=settings)

    space = Space(order, 1.0,
                  n_cells=max(4, n_nodes // settings.fem_degree),
                  dirichlet_cap=True, include_minus=False, settings=settings)
    mats = space.matrices()
    S, M = mats["S"], mats["M"]

    records = []
    for q in range(-q_max, q_max + 1):
        q2 = float(q * q)
        K = S + (1.0 + q2) * M
        lam, vec = mass_deflated_eig(K, M, n_max)
        # residuals in the coordinates scaled by K's diagonal
        Ks, d = K.unit_diagonal()
        Ms = M.scaled(d)
        scale_k, scale_m = spectral_norm(Ks), spectral_norm(Ms)
        for n in range(lam.size):
            lamk = float(np.real(lam[n]))
            c = vec[:, n]
            z = c / d
            r = Ks @ z - lamk * (Ms @ z)
            resid = np.linalg.norm(r) / max(
                (scale_k + abs(lamk) * scale_m) * np.linalg.norm(z), 1e-300)
            closed = 1.0 + q2 + float(zeros.zeros[n]) ** 2
            records.append((lamk, closed, q, c, resid))

    records.sort(key=lambda rec: abs(rec[0]))
    lams = np.array([r[0] for r in records])
    closed = np.array([r[1] for r in records])
    residuals = np.array([r[4] for r in records])
    eigenvectors = []
    cauchy_cols = []
    vals = space.eval_coeffs(np.array([r[3] for r in records]).T, grid.nodes)
    for k, (lamk, _, q, c, _) in enumerate(records):
        nrm = np.max(np.abs(vals[:, k])) or 1.0
        eigenvectors.append(GridFunction(grid, vals[:, k] / nrm,
                                         fourier_index=q))
        cauchy_cols.append(np.concatenate([c, lamk * c]))

    disc = np.abs(lams - closed) / np.abs(closed)
    return ModeSet(order.nu, None, lams, tuple(eigenvectors),
                   np.array(cauchy_cols).T, residuals, ModeSource.LINEAR_EVP,
                   closed_form=closed, discrepancy=disc, dof=space.n)


# ---------------------------------------------------------------------------
# quadratic pencils
# ---------------------------------------------------------------------------

def _pencil_matrices(nu, pencil_op, bc, q, n_nodes, settings):
    """(A0, A1, A2, space): BorderedBands of A(lam) = A0 + lam A1 + lam^2 A2
    with the boundary row folded in."""
    order = as_order(nu)
    a2c, a1c, a0c = pencil_op.mode_coefficients(q)

    essential = bc is None
    lam_plus = False
    if bc is not None:
        if all(s.const == 0 and s.lam == 0 for s in bc.t_plus):
            essential = True            # Dirichlet-type row: gamma_- u = 0
        lam_plus = any(s.lam != 0 for s in bc.t_plus)
        if bc.n_aux:
            raise DomainError("pencil solver supports scalar boundary rows")

    space = Space(order, 1.0,
                  n_cells=max(4, n_nodes // settings.fem_degree),
                  dirichlet_cap=True,
                  include_minus=(order.regime is Regime.SUBCRITICAL
                                 and not essential),
                  settings=settings)
    base, M = pencil_op.forms(space)
    A0 = base + a2c * M
    A1 = a1c * M
    A2 = a0c * M

    if bc is not None and not essential and order.regime is Regime.SUBCRITICAL:
        # the seed is dof 0: its test row is the border row plus the corner
        tmc, tpc = bc.t_minus[0], bc.t_plus[0]
        if lam_plus:
            # bordered lambda-linear boundary row replaces the gamma_- test row
            gm = space.gamma_minus_vector()
            gp = space.gamma_plus_vector()

            def boundary_row(A, cm, cp):
                t = cm * gm + cp * gp
                return replace(A, row=t[1:], corner=t[0])

            A0 = boundary_row(A0, tmc.const, tpc.const)
            A1 = boundary_row(A1, tmc.lam, tpc.lam)
            A2 = boundary_row(A2, 0.0, 0.0)
        else:
            # natural substitution gamma_+ u = -(t_-(lam)/t_+) gamma_- u in
            # the boundary term of <P(lam) u, phi> on the gamma_- test row
            A0 = replace(A0, corner=A0.corner - tmc.const / tpc.const)
            A1 = replace(A1, corner=A1.corner - tmc.lam / tpc.const)
    return A0, A1, A2, space


def pencil_modes(nu, pencil_op, bc, q=0, n_nodes=None, residual_cap="default",
                 max_modes=None, settings=DEFAULTS):
    """Eigenvalues of P(lambda) = P2 + lambda P1 + lambda^2 at a fixed mode.

    Companion linearisation with the boundary row treated by elimination
    (lambda-free conditions) or as an augmented lambda-linear row; residuals
    are checked against the unlinearised pencil.  By default modes above the
    1e-7 residual budget are dropped; pass ``residual_cap=None`` to collect
    every eigenvalue of the discrete pencil (with multiplicity), as the
    completeness check requires.

    ``max_modes=k`` asks for the k modes of least modulus only: shift-invert
    Arnoldi through the banded LU of P(0), O(n) per step.  Without it every
    eigenvalue is computed densely (fem.pencil_eig): as +-sqrt(mu) of one
    Hermitian definite problem in mu = lambda^2 when the pencil has no
    lambda-linear term and its operators allow it, by companion QZ
    otherwise.
    """
    order = as_order(nu)
    n_nodes = settings.default_nodes if n_nodes is None else int(n_nodes)
    if residual_cap == "default":
        residual_cap = settings.solver_residual_tol
    A0, A1, A2, space = _pencil_matrices(order, pencil_op, bc, q, n_nodes,
                                         settings)
    n = A0.shape[0]
    try:
        lam, cvecs, m_eff = pencil_eig(A0, A1, A2, count=max_modes)
    except (la.LinAlgError, SingularSystem) as exc:
        raise LinearizationSingular(str(exc)) from exc
    if lam.size == 0:
        raise LinearizationSingular("every pencil eigenvalue is infinite")

    # residuals against the unlinearised pencil, scale-aware
    scale0, scale1, scale2 = (spectral_norm(A) for A in (A0, A1, A2))
    keep, resid = [], []
    for k in range(lam.size):
        c = cvecs[:, k]
        nc = np.linalg.norm(c)
        if nc == 0:
            continue
        c = c / nc
        if not np.isfinite(lam[k]):
            # eigenvalue at infinity: kept only for completeness collection
            if residual_cap is None:
                keep.append(k)
                resid.append(0.0)
            continue
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        scale = scale0 + abs(lam[k]) * scale1 + abs(lam[k]) ** 2 * scale2
        rel = np.linalg.norm(r) / max(scale, 1e-300)
        if residual_cap is None or rel < residual_cap:
            keep.append(k)
            resid.append(rel)
    lam, cvecs = lam[keep], cvecs[:, keep]
    resid = np.array(resid)
    idx = modulus_order(lam)
    lam, cvecs, resid = lam[idx], cvecs[:, idx], resid[idx]
    if max_modes is not None:
        lam, cvecs, resid = (lam[:max_modes], cvecs[:, :max_modes],
                             resid[:max_modes])

    grid = RadialGrid.build(1.0, n_nodes=min(n_nodes, 256), settings=settings)
    cauchy = np.zeros((2 * n, lam.size), dtype=complex)
    for k in range(lam.size):
        nrm = np.linalg.norm(cvecs[:, k]) or 1.0
        cvecs[:, k] = c = cvecs[:, k] / nrm
        if np.isfinite(lam[k]):
            scale = max(1.0, abs(lam[k]))
            cauchy[:n, k] = c / scale
            cauchy[n:, k] = lam[k] * c / scale
        else:
            cauchy[n:, k] = c     # pencil_eig returns the v2 data at infinity
    vals = space.eval_coeffs(cvecs, grid.nodes)
    eigenvectors = [GridFunction(grid, vals[:, k], fourier_index=q)
                    for k in range(lam.size)]

    constraint = None
    if bc is not None and any(s.lam != 0 for s in bc.t_plus + bc.t_minus):
        gm = space.gamma_minus_vector()
        gp = space.gamma_plus_vector()
        t1 = bc.t_minus[0].const * gm + bc.t_plus[0].const * gp
        t0 = bc.t_minus[0].lam * gm + bc.t_plus[0].lam * gp
        constraint = np.concatenate([t1, t0])   # T1 v1 + T0 v2 = 0

    return ModeSet(order.nu, q, lam, tuple(eigenvectors), cauchy, resid,
                   ModeSource.QUADRATIC_PENCIL, constraint=constraint,
                   dof=m_eff)


def completeness_check(modes, dof=None, settings=DEFAULTS):
    """Numerical rank of the stacked Cauchy data against the ambient space.

    The ambient space is C^{2 dof}, restricted to the lambda-dependent
    boundary constraint subspace when the mode set carries one; the verdict
    is full numerical rank at the 1e-8 relative singular-value threshold.
    """
    D = modes.cauchy_data
    if D.size == 0:
        raise IncompleteModeInput("mode set carries no Cauchy data")
    dof = modes.dof if dof is None else int(dof)
    ambient = 2 * dof
    constraint = modes.constraint
    if constraint is not None:
        ambient -= 1
    if D.shape[1] < ambient:
        raise IncompleteModeInput(
            f"need at least {ambient} modes, got {D.shape[1]}")
    cols = D / np.maximum(np.linalg.norm(D, axis=0, keepdims=True), 1e-300)
    if constraint is not None:
        w = constraint / max(np.linalg.norm(constraint), 1e-300)
        cols = cols - np.outer(w, w.conj() @ cols)
    s = la.svdvals(cols)
    thresh = settings.rank_rel_tol * s[0] if s.size else 0.0
    rank = int(np.sum(s > thresh))
    smallest = float(s[rank - 1]) if rank else 0.0
    return CompletenessReport(ambient, rank, smallest, bool(rank == ambient))


def embedding_singular_values(nu, dof=64, settings=DEFAULTS):
    """Singular values of the discrete H^1 -> L^2 embedding (Dirichlet part).

    They equal (1 + lambda_n)^{-1/2} for the discrete Dirichlet eigenvalues,
    the finite-rank counterpart of (1 + j_{nu,n}^2)^{-1/2}; a log-log fit of
    s_j against j estimates the decay exponent (continuum value -1 at n = 1).
    """
    order = as_order(nu)
    degree = settings.fem_degree
    # resolve well past `dof` modes: the trailing eigenvalues of a spectral
    # discretisation overshoot, and the embedding's leading dof singular
    # values are the desk-scale surrogate being certified
    n_cells = max(8, (4 * int(dof)) // degree)
    space = Space(order, 1.0, n_cells=n_cells, dirichlet_cap=True,
                  include_minus=False, settings=settings)
    mats = space.matrices()
    lam, _ = mass_deflated_eig(mats["S"] + mats["M"], mats["M"], dof)
    s = 1.0 / np.sqrt(np.maximum(np.sort(lam.real), 1e-300))
    j = np.arange(1, s.size + 1)
    slope, intercept = np.polyfit(np.log(j), np.log(s), 1)
    return SingularValueReport(s, float(slope), float(np.exp(intercept)))


def modeset_to_json(modes, completeness=None):
    body = {
        "nu": modes.nu,
        "q": (None if modes.fourier_index is None
              else np.asarray(modes.fourier_index).tolist()),
        "eigenvalues": [
            {"re": float(l.real), "im": float(l.imag),
             "residual": float(r)}
            for l, r in zip(modes.eigenvalues, modes.residuals)
        ],
    }
    if modes.closed_form is not None:
        body["closed_form"] = [float(v) for v in modes.closed_form]
        body["discrepancy"] = [float(v) for v in modes.discrepancy]
    if completeness is not None:
        body["completeness"] = {
            "ambient_dim": completeness.ambient_dim,
            "numerical_rank": completeness.numerical_rank,
            "smallest_retained_singular_value":
                completeness.smallest_retained_singular_value,
            "verdict": completeness.verdict,
            "note": completeness.note,
        }
    return json.dumps(body, indent=2, sort_keys=True)
