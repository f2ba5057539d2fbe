"""Spectra of Bessel operators and quadratic pencils, with diagnostics.

The interval Dirichlet spectrum has the closed form 1 + |q|^2 + j_{nu,n}^2
with eigenfunctions sqrt(x) J_nu(j_{nu,n} x); the discrete Galerkin
eigenproblem is solved alongside, by Lanczos on a banded Cholesky factor
for the modes asked for, and the per-mode discrepancy reported.  Quadratic
pencils P(lambda) = P2 + lambda P1 + lambda^2 (lambda may enter the
gamma_- term of the boundary row) with a mode count take the same Lanczos
in mu = -lambda^2 when P1 = 0 and the operators are real and symmetric,
else shift-invert Arnoldi on the companion linearisation.  The full
spectrum is dense: a pencil whose lambda-free and lambda^2 parts are
Hermitian, the first definite, and whose P1 is a multiple of the lambda^2
part plus a lambda in the boundary row, is reduced by one symmetric
problem (lambda in closed form for a mode the boundary row leaves
decoupled, else from the eigenvalues of one standard eigenproblem in
1 / lambda, the eigenvectors in closed form); any other takes companion QZ.
Two-fold completeness is probed by the numerical rank of the stacked Cauchy
data (u, lambda u), the desk-scale surrogate for the continuum density
statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .config import DEFAULTS, _check_count
from .core import Regime, as_order
from .errors import (DomainError, IncompleteModeInput, LinearizationSingular,
                     SingularSystem)
from .fem import (Space, _matmul, mass_deflated_eig, modulus_order,
                  norm_bound, pencil_eig)
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
]


class ModeSource(Enum):
    LINEAR_EVP = "linear_evp"
    QUADRATIC_PENCIL = "quadratic_pencil"


@dataclass(frozen=True)
class ModeSet:
    """Eigenvalues sorted by |lambda|, with eigenvectors and Cauchy data.

    Mode k is ``space.eval_coeffs(coeffs[:, k], x)``.  ``fourier_index`` is
    the pencil's q, or for a Dirichlet spectrum the q of each mode.
    """

    nu: float
    fourier_index: object
    eigenvalues: np.ndarray = field(repr=False)
    space: Space = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
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


def _column_norms(X, cols=None):
    """The 2-norm of each column of X, or of the columns ``cols`` only (once
    per distinct column): one dot per row of a contiguous copy of X^T, the
    sums np.linalg.norm forms for each column (a single norm(axis=0) rounds
    differently)."""
    rows = np.ascontiguousarray(X.T if cols is None else X.T[cols])
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt([sum(r.dot(r) for r in row) for row in zip(*parts)])


def _dirichlet_pairs(K, M, n_max):
    """(lambda, coeffs, residuals) of the n_max eigenpairs of K u = lambda M u
    nearest 0, residuals in the coordinates scaled by K's diagonal, relative
    to the norm bounds of the scaled K and M (fem.norm_bound)."""
    lam, vec = mass_deflated_eig(K, M, n_max)
    Ks, d = K.unit_diagonal()
    Ms = M.scaled(d)
    scale_k, scale_m = norm_bound(Ks), norm_bound(Ms)
    Z = vec / d[:, None]
    R = Ks @ Z - lam * (Ms @ Z)
    resid = _column_norms(R) / np.maximum(
        (scale_k + np.abs(lam) * scale_m) * _column_norms(Z), 1e-300)
    return lam, vec, resid


def dirichlet_spectrum(nu, q_max=0, n_max=10, n_nodes=None, settings=DEFAULTS):
    """Spectrum of Delta_nu + 1 on (0,1) x T^{n-1} restricted to |q| <= q_max.

    Returns a ModeSet whose eigenvalues come from the discrete Galerkin
    problem; ``closed_form`` carries 1 + |q|^2 + j_{nu,n}^2 from the zero
    table and ``discrepancy`` the per-mode relative difference.
    """
    order = as_order(nu)
    _check_count("q_max", q_max, 0)
    _check_count("n_max", n_max, 1)
    space = Space(order, 1.0, n_nodes=n_nodes,
                  include_minus=False, settings=settings)
    zeros = bessel_zeros(order.nu, n_max, settings=settings).zeros
    mats = space.matrices()
    S, M = mats["S"], mats["M"]

    pairs = [_dirichlet_pairs(S + (1.0 + q * q) * M, M, n_max)
             for q in range(q_max + 1)]         # (lambda, coeffs, resid)
    qs = np.arange(-q_max, q_max + 1)
    lam_q, vec_q, resid_q = zip(*(pairs[abs(q)] for q in qs))
    lams = np.concatenate(lam_q)
    # float_power squares through libm pow, as a Python float ** 2 does;
    # np.square rounds some zeros differently in the last bit
    closed = np.concatenate([1.0 + float(q * q)
                             + np.float_power(zeros[:lam.size], 2)
                             for q, lam in zip(qs, lam_q)])
    fourier = np.repeat(qs, [lam.size for lam in lam_q])
    vecs = np.concatenate(vec_q, axis=1)
    residuals = np.concatenate(resid_q)

    idx = np.argsort(np.abs(lams), kind="stable")
    lams, closed, vecs = lams[idx], closed[idx], vecs[:, idx]
    disc = np.abs(lams - closed) / np.abs(closed)
    return ModeSet(order.nu, fourier[idx], lams, space, vecs,
                   np.concatenate([vecs, lams * vecs]), residuals[idx],
                   ModeSource.LINEAR_EVP, closed_form=closed,
                   discrepancy=disc, dof=space.n)


# ---------------------------------------------------------------------------
# quadratic pencils
# ---------------------------------------------------------------------------

def _pencil_matrices(nu, pencil_op, bc, q, n_nodes, settings):
    """(A0, A1, A2, space): BorderedBands of A(lam) = A0 + lam A1 + lam^2 A2
    with the boundary row, read at eta = q, folded in."""
    order = as_order(nu)
    a2c, a1c, a0c = pencil_op.mode_coefficients(q)

    if bc is not None and bc.n_aux:
        raise DomainError("pencil solver supports scalar boundary rows")
    # no row, or a Dirichlet-type one (gamma_- u = 0), is essential
    essential = bc is None or all(s.const == 0 for s in bc.t_plus)

    space = Space(order, 1.0, n_nodes=n_nodes,
                  include_minus=(order.regime is Regime.SUBCRITICAL
                                 and not essential),
                  settings=settings)
    base, M = pencil_op.forms(space)
    A0 = base + a2c * M
    A1 = a1c * M
    A2 = a0c * M

    if bc is not None and not essential and order.regime is Regime.SUBCRITICAL:
        # natural substitution gamma_+ u = -(t_-(q, lam)/t_+) gamma_- u in
        # the boundary term of <P(lam) u, phi> on the seed's test row (dof 0)
        tmc, tpc = bc.t_minus[0], bc.t_plus[0]
        t0 = tmc.const_at(bc.mode_eta(q))
        A0 = replace(A0, corner=A0.corner - t0 / tpc.const)
        A1 = replace(A1, corner=A1.corner - tmc.lam / tpc.const)
    return A0, A1, A2, space


def pencil_modes(nu, pencil_op, bc, q=0, n_nodes=None, residual_cap="default",
                 max_modes=None, settings=DEFAULTS):
    """Eigenvalues of P(lambda) = P2 + lambda P1 + lambda^2 at a fixed mode.

    Companion linearisation with the boundary row, read at eta = q, folded
    into the seed corner (a lambda in its gamma_- term enters P1); residuals
    are checked against the unlinearised pencil, for every mode at once:
    with C the unit eigenvectors, R = A0 C + Lam (A1 C) + Lam^2 (A2 C) takes
    one block product per operator (BorderedBand @ (n, k)) in the
    operator's own storage (real for a real pencil), and the Cauchy data
    are array operations on C.  Residuals divide by a0 + |lam| a1 +
    |lam|^2 a2, a_i = fem.norm_bound(A_i) >= ||A_i||_2: a valid backward
    error, up to 1.44 times below the one on exact 2-norms.  By default
    modes above the 1e-7 residual budget are dropped (length 0 when none
    passes); pass ``residual_cap=None`` to collect every eigenvalue of the
    discrete pencil (with multiplicity), as the completeness check requires.

    ``max_modes=k`` asks for the k modes of least modulus only, O(n) per
    Krylov step: the Cholesky Lanczos in -lambda^2 for a real symmetric
    pencil without a lambda-linear term (the Dirichlet Laplace and kg
    pencils), else shift-invert Arnoldi through the banded LU of P(0).
    Without it every eigenvalue is computed densely (fem.pencil_eig).  When
    the lambda-free and lambda^2 operators are Hermitian, the first is
    definite and the lambda-linear one is a multiple of the lambda^2 one
    plus the seed corner (the Laplace pencil with a Dirichlet, lambda-free
    or lambda-Robin row; the kg pencil without e0), one symmetric eigh
    reduces the pencil.  Any other pencil (an e0 term, an indefinite A0)
    takes companion QZ.  Without a lambda-linear term the +- pairs of both
    paths share one vector, and its norm and residual are formed once.
    """
    order = as_order(nu)
    if max_modes is not None:
        _check_count("max_modes", max_modes, 1)
    if residual_cap == "default":
        residual_cap = settings.solver_residual_tol
    if residual_cap is not None and not 0 < residual_cap < np.inf:
        raise DomainError(f"residual_cap must be finite and > 0, "
                          f"got {residual_cap!r}")
    A0, A1, A2, space = _pencil_matrices(order, pencil_op, bc, q, n_nodes,
                                         settings)
    n = A0.shape[0]
    try:        # scipy.linalg raises numpy's LinAlgError
        lam, cvecs, m_eff = pencil_eig(A0, A1, A2, count=max_modes)
    except (np.linalg.LinAlgError, SingularSystem) as exc:
        raise LinearizationSingular(str(exc)) from exc
    if lam.size == 0:
        raise LinearizationSingular("every pencil eigenvalue is infinite")

    # residuals against the unlinearised pencil, scale-aware, for every
    # mode at once: R = A0 C + Lam (A1 C) + Lam^2 (A2 C), C the unit columns.
    # With A1 = 0 the norm and residual of a mode read c, lam^2 and |lam|
    # only, so a +- pair sharing one vector (adjacent after modulus_order)
    # takes them once
    scale0, scale1, scale2 = (norm_bound(A) for A in (A0, A1, A2))
    linear = scale1 != 0                        # A1 has a nonzero entry
    first = np.ones(lam.size, dtype=bool)
    if not linear:
        first[1:] = ~((lam[1:] == -lam[:-1])
                      & (cvecs[:, 1:] == cvecs[:, :-1]).all(axis=0))
    distinct = np.flatnonzero(first)
    index = np.cumsum(first) - 1                # each mode's distinct vector
    norms = _column_norms(cvecs, distinct)[index]
    finite = np.isfinite(lam)
    live = finite & (norms != 0)
    own = live & first
    C, lam_c = cvecs[:, own] / norms[own], lam[own]
    # lam^2 and |lam| as numpy scalars round them: the array loops of
    # complex squares and np.abs differ from them in the last bit
    lam2 = np.array([l ** 2 for l in lam_c], dtype=complex)
    scale = np.array([scale0 + abs(l) * scale1 + abs(l) ** 2 * scale2
                      for l in lam_c])
    R = A0 @ C
    if linear:
        R = R + lam_c * (A1 @ C)
    R = R + lam2 * (A2 @ C)
    resid = np.zeros(lam.size)
    resid[own] = _column_norms(R) / np.maximum(scale, 1e-300)
    resid = resid[distinct[index]]
    if residual_cap is None:
        # eigenvalues at infinity are kept only for completeness collection
        keep = norms != 0
    else:
        keep = live & (resid < residual_cap)
    idx = np.flatnonzero(keep)[modulus_order(lam[keep])[:max_modes]]
    lam, resid = lam[idx], resid[idx]
    cvecs = cvecs[:, idx] / norms[idx]

    finite = np.isfinite(lam)
    scale = np.array([max(1.0, abs(l)) for l in lam[finite]])
    cauchy = np.zeros((2 * n, lam.size), dtype=complex)
    cauchy[:n, finite] = cvecs[:, finite] / scale
    cauchy[n:, finite] = lam[finite] * cvecs[:, finite] / scale
    # pencil_eig returns the v2 data at infinity
    cauchy[n:, ~finite] = cvecs[:, ~finite]

    constraint = None
    if bc is not None and any(s.lam != 0 for s in bc.t_minus):
        gm = space.gamma_minus_vector()
        gp = space.gamma_plus_vector()
        tm = bc.t_minus[0]
        t1 = tm.const_at(bc.mode_eta(q)) * gm + bc.t_plus[0].const * gp
        constraint = np.concatenate([t1, tm.lam * gm])   # T1 v1 + T0 v2 = 0

    return ModeSet(order.nu, q, lam, space, cvecs, cauchy, resid,
                   ModeSource.QUADRATIC_PENCIL, constraint=constraint,
                   dof=m_eff)


def completeness_check(modes, settings=DEFAULTS):
    """Numerical rank of the stacked Cauchy data against the ambient space.

    The ambient space is C^{2 dof} (the mode set's dof), restricted to the
    lambda-dependent boundary constraint subspace when the mode set carries
    one; the verdict
    is full numerical rank at the 1e-8 relative singular-value threshold.
    """
    from scipy.linalg import svdvals

    D = modes.cauchy_data
    if D.size == 0:
        raise IncompleteModeInput("mode set carries no Cauchy data")
    ambient = 2 * modes.dof
    constraint = modes.constraint
    if constraint is not None:
        ambient -= 1
    if D.shape[1] < ambient:
        raise IncompleteModeInput(
            f"need at least {ambient} modes, got {D.shape[1]}")
    cols = D / np.maximum(np.linalg.norm(D, axis=0, keepdims=True), 1e-300)
    if constraint is not None:
        w = constraint / max(np.linalg.norm(constraint), 1e-300)
        cols = cols - np.outer(w, _matmul(w.conj(), cols))
    s = svdvals(cols)
    thresh = settings.rank_rel_tol * s[0] if s.size else 0.0
    rank = int(np.sum(s > thresh))
    smallest = float(s[rank - 1]) if rank else 0.0
    return CompletenessReport(ambient, rank, smallest, bool(rank == ambient))


def embedding_singular_values(nu, dof=64, settings=DEFAULTS):
    """Singular values of the discrete H^1 -> L^2 embedding (Dirichlet part).

    They equal (1 + lambda_n)^{-1/2} for the discrete Dirichlet eigenvalues,
    the finite-rank counterpart of (1 + j_{nu,n}^2)^{-1/2}; a log-log fit of
    s_j against j estimates the decay exponent (continuum value -1 at n = 1).
    ``dof`` is an integer >= 2 (a line fit needs two points).  Only the
    eigenvalues are read, so the Lanczos forms no Ritz vectors.
    """
    order = as_order(nu)
    _check_count("dof", dof, 2)
    # resolve well past `dof` modes: the trailing eigenvalues of a spectral
    # discretisation overshoot, and the embedding's leading dof singular
    # values are the desk-scale surrogate being certified
    space = Space(order, 1.0, n_nodes=4 * dof,
                  include_minus=False, settings=settings)
    mats = space.matrices()
    lam, _ = mass_deflated_eig(mats["S"] + mats["M"], mats["M"], dof,
                               vectors=False)
    s = 1.0 / np.sqrt(np.maximum(np.sort(lam.real), 1e-300))
    j = np.arange(1, s.size + 1)
    slope, intercept = np.polyfit(np.log(j), np.log(s), 1)
    return SingularValueReport(s, float(slope), float(np.exp(intercept)))
