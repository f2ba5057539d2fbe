"""Boundary symbols, ellipticity and the Lopatinskii condition.

The boundary symbol of |D_nu|^2 + B D_nu + A at a boundary point is the
one-dimensional model operator |D_nu|^2 + a2(eta, lambda), where a2 is the
(parameter-dependent) principal symbol of A at x = 0.  Ellipticity means
xi^2 + a2 has no real roots; the decaying solution is then a multiple of
sqrt(x) K_nu(i xi x) for the root with Im xi < 0, normalised so that
gamma_- = 1 and

    gamma_+ = -2 nu (Gamma(1-nu)/Gamma(1+nu)) (i xi / 2)^{2 nu}.

The Lopatinskii condition asks that the principal boundary symbol, assembled
with the integer-ceiling selection rule on the nu-order, is injective on
span(mode solution) x C^J; numerically that is a determinant bounded away
from zero relative to the row scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import HALFLINE_DECAY_LENGTHS
from .core import GridFunction, RadialGrid, TraceData, as_order
from .errors import DomainError
from .special import sqrtx_K

__all__ = [
    "BoundarySymbol",
    "LinearSymbol",
    "BoundaryOperator",
    "Sector",
    "NotElliptic",
    "ModeSolution",
    "decaying_root",
    "elliptic_roots",
    "mode_solution",
    "mode_traces",
    "halfline_grid",
    "boundary_matrix",
    "boundary_scale",
    "lopatinskii_verdict",
    "lopatinskii_sweep",
    "SweepReport",
]


# ---------------------------------------------------------------------------
# symbols and sectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySymbol:
    """Principal symbol a2(eta, lambda) at a fixed boundary point.

    ``a2`` must be jointly homogeneous of degree 2 in (eta, lambda); nothing
    else is assumed.  Factory helpers cover the symbols used throughout.
    """

    a2: object                  # callable (eta: array, lam: complex) -> complex
    dim_eta: int

    def __call__(self, eta, lam=0.0):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if eta.size != self.dim_eta:
            raise DomainError(f"expected eta of dimension {self.dim_eta}")
        return complex(self.a2(eta, complex(lam)))

    @classmethod
    def laplace(cls, dim_eta):
        """|eta|^2: the flat Laplacian Delta_nu."""
        return cls(lambda eta, lam: np.dot(eta, eta), dim_eta)

    @classmethod
    def laplace_pencil(cls, dim_eta):
        """|eta|^2 + lambda^2: the pencil Delta_nu + lambda^2."""
        return cls(lambda eta, lam: np.dot(eta, eta) + lam * lam, dim_eta)

    @classmethod
    def wave(cls, dim_eta):
        """|eta|^2 - lambda^2: fails ellipticity on real rays."""
        return cls(lambda eta, lam: np.dot(eta, eta) - lam * lam, dim_eta)

    @classmethod
    def from_boundary_metric(cls, gamma0):
        """-gamma0^{-1}(eta dy - lambda dt) for a Lorentzian metric in (t, y).

        gamma0 is the (1 + dim_eta) x (1 + dim_eta) symmetric matrix of the
        boundary metric with the t row/column first.
        """
        g = np.asarray(gamma0, dtype=float)
        ginv = np.linalg.inv(g)
        d = g.shape[0] - 1

        def a2(eta, lam):
            zeta = np.concatenate(([-lam], np.asarray(eta, dtype=complex)))
            return -(zeta @ ginv @ zeta)

        return cls(a2, d)

    def check_homogeneity(self, rng):
        """max relative defect of a2(t eta, t lam) = t^2 a2(eta, lam)."""
        worst = 0.0
        for _ in range(20):
            eta = rng.standard_normal(self.dim_eta)
            lam = complex(*rng.standard_normal(2))
            t = float(rng.uniform(0.3, 3.0))
            base = self(eta, lam)
            scaled = self(t * eta, t * lam)
            denom = max(abs(base) * t ** 2, 1e-300)
            worst = max(worst, abs(scaled - t ** 2 * base) / denom)
        return worst


@dataclass(frozen=True)
class Sector:
    """Union of closed angular intervals {r e^{i theta}: r > 0, theta in [a,b]}."""

    intervals: tuple

    @classmethod
    def imaginary_axis(cls):
        return cls(((math.pi / 2, math.pi / 2), (-math.pi / 2, -math.pi / 2)))

    @classmethod
    def elliptic_cone(cls):
        """{Re lambda > |Im lambda|}: the sector of the resolvent sweep."""
        return cls(((-math.pi / 4 + 1e-9, math.pi / 4 - 1e-9),))

    def angles(self, n):
        """n representative angles spread over the intervals."""
        per = max(1, n // len(self.intervals))
        out = []
        for a, b in self.intervals:
            if abs(b - a) < 1e-15:
                out.append(a)
            else:
                out.extend(np.linspace(a, b, per))
        return np.array(out)


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotElliptic:
    """Value returned when xi^2 + a2 has (numerically) real roots."""

    eta: tuple
    lam: complex
    a2: complex

    def __bool__(self):
        return False


def decaying_root(a2):
    """The root xi of xi^2 + a2 = 0 with Im xi < 0, or Re xi > 0 when the
    root is real (a2 on (-inf, 0]; callers refuse or flag that case)."""
    xi = complex(np.sqrt(complex(-a2)))
    if xi.imag > 0 or (xi.imag == 0 and xi.real < 0):
        xi = -xi
    return xi


ELLIPTICITY_REL_TOL = 1e-12


def elliptic_roots(sym, eta, lam=0.0):
    """Roots +/- xi of xi^2 + a2(eta, lambda) = 0, decaying root first.

    Returns (xi, -xi) with Im xi < 0 (so Re(i xi) > 0 and the K_nu branch
    decays), or NotElliptic when |Im xi| < ELLIPTICITY_REL_TOL |xi|.
    """
    a2 = sym(eta, lam)
    xi = decaying_root(a2)
    if abs(xi.imag) < ELLIPTICITY_REL_TOL * max(abs(xi), 1e-300):
        return NotElliptic(tuple(np.atleast_1d(eta)), complex(lam), a2)
    return xi, -xi


# ---------------------------------------------------------------------------
# the normalized decaying mode solution
# ---------------------------------------------------------------------------

def mode_traces(nu, xi):
    """Closed-form traces (1, -2nu Gamma(1-nu)/Gamma(1+nu) (i xi/2)^{2nu});
    Gamma of the real order from ``math``."""
    order = as_order(nu)
    if order.regime.value != "subcritical":
        raise DomainError("mode traces require 0 < nu < 1")
    nu = order.nu
    gp = -2.0 * nu * (math.gamma(1.0 - nu) / math.gamma(1.0 + nu)) \
        * (1j * xi / 2.0) ** (2.0 * nu)
    return TraceData(1.0 + 0.0j, complex(gp))


def halfline_grid(xi):
    """Truncated half-line grid sized to the decay rate Re(i xi)."""
    rate = (1j * xi).real
    if rate <= 0:
        raise DomainError("Im xi < 0 required for a decaying profile")
    return RadialGrid.build(HALFLINE_DECAY_LENGTHS / rate)


@dataclass(frozen=True)
class ModeSolution:
    """Normalized decaying solution of the boundary symbol operator."""

    xi: complex
    profile: GridFunction
    traces: TraceData


def mode_solution(nu, xi, grid=None):
    """Profile (2^{1-nu}/Gamma(nu)) (i xi)^nu sqrt(x) K_nu(i xi x) on the grid.

    The prefactor is the reflection-formula form of
    2^{1-nu} Gamma(1-nu) sin(pi nu) / pi, finite for every nu > 0.  The
    normalisation makes gamma_- = 1; traces follow the closed form above
    (subcritical orders only).
    """
    from scipy.special import gamma

    order = as_order(nu)
    xi = complex(xi)
    if not (xi.imag < 0):
        raise DomainError("mode_solution requires Im xi < 0")
    if grid is None:
        grid = halfline_grid(xi)
    tau = 1j * xi
    c = 2.0 ** (1.0 - order.nu) / gamma(order.nu)
    vals = c * tau ** order.nu * sqrtx_K(order.nu, tau, grid.nodes)
    prof = GridFunction(grid, vals)
    tr = (mode_traces(order, xi) if order.regime.value == "subcritical"
          else TraceData(np.nan, np.nan))
    return ModeSolution(xi, prof, tr)


# ---------------------------------------------------------------------------
# boundary operators and the nu-order selection rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSymbol:
    """const + sum_j eta_j coeff_j + lam_coeff * lambda (pd-order <= 1)."""

    const: complex = 0.0
    eta: tuple = ()
    lam: complex = 0.0

    def order(self):
        """Parameter-dependent order; the zero symbol gets -inf (any negative)."""
        if any(c != 0 for c in self.eta) or self.lam != 0:
            return 1
        if self.const != 0:
            return 0
        return -math.inf

    def part(self, k, eta, lam):
        """Homogeneous pd-degree-k part evaluated at (eta, lambda)."""
        if k == 0:
            return complex(self.const)
        if k == 1:
            eta = np.atleast_1d(np.asarray(eta, dtype=complex))
            acc = complex(self.lam) * lam
            for j, c in enumerate(self.eta):
                acc += c * eta[j]
            return complex(acc)
        return 0.0 + 0.0j

    def part_scale(self, k):
        """Coefficient size of the degree-k part; bounds |part| on the sphere."""
        if k == 0:
            return abs(self.const)
        if k == 1:
            return sum(abs(c) for c in self.eta) + abs(self.lam)
        return 0.0

    def __call__(self, eta, lam):
        return self.part(0, eta, lam) + self.part(1, eta, lam)

    def const_at(self, eta):
        """The lambda-free value const + sum_j coeff_j eta_j."""
        return self.const + sum(c * e for c, e in zip(self.eta, eta))


def _ceil_fuzz(t, tol=1e-9):
    """Ceiling with a tolerance so that mu-1+nu hitting an integer up to
    rounding (the nu = 1/2 ties) selects that integer."""
    return int(math.ceil(t - tol))


@dataclass(frozen=True)
class BoundaryOperator:
    """Row(s) T_k = t_minus_k gamma_- + t_plus_k gamma_+, optional matrix C.

    ``nu_order`` is the nu-order bound mu in {1-nu, 2-nu, 1+nu}; the principal
    boundary symbol selects the pd-degree ceil(mu-1+nu) part of t_minus and
    the ceil(mu-1-nu) part of t_plus.  C holds symbol values (constants or a
    callable of (eta, lambda)) of shape (J+1, J).
    """

    t_minus: tuple               # tuple[LinearSymbol], length J+1
    t_plus: tuple                # tuple[LinearSymbol], length J+1
    nu_order: float
    C: object = None             # None, ndarray, or callable -> ndarray

    @staticmethod
    def _aslist(x):
        if isinstance(x, LinearSymbol):
            return (x,)
        return tuple(x)

    @classmethod
    def make(cls, nu, t_minus, t_plus, C=None, nu_order=None):
        order = as_order(nu)
        tm = cls._aslist(t_minus)
        tp = cls._aslist(t_plus)
        if len(tm) != len(tp):
            raise DomainError("t_minus and t_plus must have equal length")
        for s in tp:
            if any(c != 0 for c in s.eta):
                raise DomainError("t_plus must have eta-degree 0")
        if nu_order is None:
            nu_order = minimal_nu_order(order, tm, tp)
        _validate_nu_order(order, tm, tp, nu_order)
        Cmat = None
        if C is not None:
            Cmat = C if callable(C) else np.asarray(C, dtype=complex)
            shape = Cmat(np.zeros(1), 0.0).shape if callable(C) else Cmat.shape
            if shape != (len(tm), len(tm) - 1):
                raise DomainError("C must have shape (J+1, J)")
        return cls(tm, tp, float(nu_order), Cmat)

    # convenience constructors for the classical conditions
    @classmethod
    def dirichlet(cls, nu):
        return cls.make(nu, LinearSymbol(const=1.0), LinearSymbol())

    @classmethod
    def neumann(cls, nu):
        return cls.make(nu, LinearSymbol(), LinearSymbol(const=1.0))

    @classmethod
    def robin(cls, nu, beta):
        return cls.make(nu, LinearSymbol(const=beta), LinearSymbol(const=1.0))

    @classmethod
    def oblique(cls, nu, eta_coeffs):
        """T = gamma_+ + T^- gamma_- with T^- a tangential vector field."""
        return cls.make(nu, LinearSymbol(eta=tuple(eta_coeffs)),
                        LinearSymbol(const=1.0))

    @classmethod
    def lambda_robin(cls, nu, coeff=1.0):
        """T(lambda) = gamma_+ + coeff lambda gamma_-."""
        return cls.make(nu, LinearSymbol(lam=coeff), LinearSymbol(const=1.0))

    @property
    def n_rows(self):
        return len(self.t_minus)

    @property
    def n_aux(self):
        return self.n_rows - 1

    def principal_rows(self, nu, eta, lam):
        """Pairs (that_minus_k, that_plus_k) after the ceiling selection."""
        nu = as_order(nu).nu
        mu = self.nu_order
        k_minus = _ceil_fuzz(mu - 1.0 + nu)
        k_plus = _ceil_fuzz(mu - 1.0 - nu)
        rows = []
        for sm, sp in zip(self.t_minus, self.t_plus):
            rows.append((sm.part(k_minus, eta, lam), sp.part(k_plus, eta, lam)))
        return rows

    def mode_eta(self, q):
        """eta = q, the tangential mode at which the solvers read the rows;
        q = None reads eta = 0.  DomainError when a row with an eta term gets
        no q, or a q of another dimension."""
        syms = self.t_minus + self.t_plus
        if q is None and any(c != 0 for s in syms for c in s.eta):
            raise DomainError("a boundary row with an eta term needs the "
                              "tangential mode q")
        eta = np.atleast_1d(np.asarray(0.0 if q is None else q, dtype=float))
        if eta.ndim != 1 or self._eta_mismatch(eta.size):
            raise DomainError(f"tangential mode q = {q} and the eta terms of "
                              "the boundary row differ in dimension")
        return eta

    def _eta_mismatch(self, dim):
        """True when a row's eta term has a dimension other than ``dim``."""
        return bool({len(s.eta) for s in self.t_minus + self.t_plus
                     if s.eta} - {dim})

    def c_values(self, eta, lam):
        if self.C is None:
            return None
        return self.C(eta, lam) if callable(self.C) else self.C

    def evaluate_full(self, eta, lam):
        """Non-principal (full) rows, used by solvers rather than symbol tests."""
        return [(sm(eta, lam), sp(eta, lam))
                for sm, sp in zip(self.t_minus, self.t_plus)]


def minimal_nu_order(nu, t_minus, t_plus):
    order = as_order(nu).nu
    for mu in sorted((1.0 - order, 2.0 - order, 1.0 + order)):
        try:
            _validate_nu_order(nu, t_minus, t_plus, mu)
            return mu
        except DomainError:
            continue
    raise DomainError("no admissible nu-order for these boundary symbols")


def _validate_nu_order(nu, t_minus, t_plus, mu):
    order = as_order(nu).nu
    admissible = (1.0 - order, 2.0 - order, 1.0 + order)
    if not any(abs(mu - m) < 1e-12 for m in admissible):
        raise DomainError(f"nu_order must lie in {admissible}, got {mu}")
    tol = 1e-12
    for sm, sp in zip(t_minus, t_plus):
        if sm.order() - order > mu - 1.0 + tol:
            raise DomainError("ord(T^-) - nu exceeds mu - 1")
        if sp.order() + order > mu - 1.0 + tol:
            raise DomainError("ord(T^+) + nu exceeds mu - 1")


# ---------------------------------------------------------------------------
# the Lopatinskii determinant and sweeps
# ---------------------------------------------------------------------------

def boundary_matrix(rows, tr, C):
    """Matrix of (u, u_) -> T u + C u_ on the mode with traces ``tr``.

    Row k is (t_minus_k gamma_- + t_plus_k gamma_+, C[k]) for the pairs
    ``rows`` = [(t_minus_k, t_plus_k)] and the (J+1, J) values C (unread
    when J = 0).
    """
    J = len(rows) - 1
    M = np.zeros((J + 1, J + 1), dtype=complex)
    for k, (tm, tp) in enumerate(rows):
        M[k, 0] = tm * tr.gamma_minus + tp * tr.gamma_plus
    if J:
        M[:, 1:] = C
    return M


def boundary_scale(sizes, tr, C):
    """Product over rows k of |t_minus_k||gamma_-| + |t_plus_k||gamma_+| +
    sum |C[k]| for ``sizes`` = [(|t_minus_k|, |t_plus_k|)]: the size of
    boundary_matrix's determinant without cancellation (C unread if J = 0)."""
    scale = 1.0
    for k, (sm, sp) in enumerate(sizes):
        row_scale = sm * abs(tr.gamma_minus) + sp * abs(tr.gamma_plus)
        if len(sizes) > 1:
            row_scale += float(np.sum(np.abs(C[k])))
        scale *= max(row_scale, 1e-300)
    return scale


def _lopatinskii_matrix(nu, sym, bc, eta, lam):
    """Matrix of (u, u_) -> That u + Chat u_ plus a cancellation-free scale.

    The scale multiplies the coefficient sizes of the selected principal
    parts by the trace magnitudes, so a determinant that vanishes through
    cancellation at special (eta, lambda) is judged against the size the
    entries would have without cancellation.
    """
    roots = elliptic_roots(sym, eta, lam)
    if isinstance(roots, NotElliptic):
        return roots, 0.0
    tr = mode_traces(nu, roots[0])
    J = bc.n_aux
    Cvals = bc.c_values(eta, lam) if J else None
    M = boundary_matrix(bc.principal_rows(nu, eta, lam), tr, Cvals)
    mu = bc.nu_order
    nuval = as_order(nu).nu
    k_minus = _ceil_fuzz(mu - 1.0 + nuval)
    k_plus = _ceil_fuzz(mu - 1.0 - nuval)
    sizes = [(sm.part_scale(k_minus), sp.part_scale(k_plus))
             for sm, sp in zip(bc.t_minus, bc.t_plus)]
    return M, boundary_scale(sizes, tr, Cvals)


LOPATINSKII_REL_TOL = 1e-10


def lopatinskii_verdict(nu, sym, bc, eta, lam=0.0):
    """(holds, det, scale) with the cancellation-free row-coefficient scale.

    det is the determinant of the boundary-symbol map on span(mode) x C^J,
    or NotElliptic when the interior symbol already fails at (eta, lambda);
    it holds when |det| > LOPATINSKII_REL_TOL scale.
    """
    M, scale = _lopatinskii_matrix(nu, sym, bc, eta, lam)
    if isinstance(M, NotElliptic):
        return False, M, 0.0
    det = complex(np.linalg.det(M))
    return bool(abs(det) > LOPATINSKII_REL_TOL * scale), det, scale


def _eta_directions(dim, n):
    """Deterministic unit directions; equal angles in 2d (hits the diagonals),
    Fibonacci lattice in 3d and up."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = 2.0 * math.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    k = np.arange(n) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    if dim == 3:
        return pts
    raise DomainError("eta dimensions above 3 are not sampled")


@dataclass(frozen=True)
class SweepReport:
    samples: tuple           # of dicts
    min_abs_det: float
    all_pass: bool


def lopatinskii_sweep(nu, sym, bc, sphere_samples=64, sector=None):
    """Sample the unit sphere in (eta, lambda) and report verdicts.

    Without a sector, lambda = 0 and eta runs over the unit sphere.  With a
    sector, mixing angles cover |eta|^2 + |lambda|^2 = 1 including the pure
    eta and pure lambda extremes (joint homogeneity makes the unit sphere
    sufficient).
    """
    if sphere_samples < 8:
        raise DomainError("sphere_samples must be at least 8")
    if bc._eta_mismatch(sym.dim_eta):
        raise DomainError(f"the symbol's dim_eta = {sym.dim_eta} and the eta "
                          "terms of the boundary row differ in dimension")
    samples = []
    if sector is None:
        for eta in _eta_directions(sym.dim_eta, sphere_samples):
            samples.append((eta, 0.0 + 0.0j))
    else:
        n_dir = max(4, int(math.sqrt(sphere_samples)))
        n_mix = max(3, sphere_samples // (n_dir * max(1, len(sector.intervals))))
        dirs = _eta_directions(sym.dim_eta, n_dir)
        angles = sector.angles(max(2, sphere_samples // (n_dir * n_mix)))
        for th in np.atleast_1d(angles):
            for phi in np.linspace(0.0, math.pi / 2.0, n_mix):
                lam = math.sin(phi) * complex(math.cos(th), math.sin(th))
                if phi == 0.0:
                    for eta in dirs:
                        samples.append((eta, 0.0 + 0.0j))
                elif abs(phi - math.pi / 2.0) < 1e-15:
                    samples.append((np.zeros(sym.dim_eta), lam))
                else:
                    for eta in dirs:
                        samples.append((math.cos(phi) * eta, lam))

    seen = set()
    rows = []
    worst = math.inf
    ok = True
    for eta, lam in samples:
        key = (tuple(np.round(eta, 12)), round(lam.real, 12), round(lam.imag, 12))
        if key in seen:
            continue
        seen.add(key)
        holds, det, scale = lopatinskii_verdict(nu, sym, bc, eta, lam)
        if isinstance(det, NotElliptic):
            rows.append({"eta": tuple(eta), "lambda": complex(lam),
                         "det": 0.0 + 0.0j, "pass": False})
            ok = False
            worst = 0.0
        else:
            rows.append({"eta": tuple(eta), "lambda": complex(lam),
                         "det": det, "pass": holds})
            rel = abs(det) / max(scale, 1e-300)
            worst = min(worst, rel)
            ok = ok and holds
    return SweepReport(tuple(rows), float(worst), bool(ok))
