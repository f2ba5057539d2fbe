import math
import time

import numpy as np
import pytest
from scipy.special import gamma

from besselbvp.core import RadialGrid, traces
from besselbvp.errors import DomainError
from besselbvp.solve import operator_residual
from besselbvp.symbols import (
    BoundaryOperator,
    BoundarySymbol,
    LinearSymbol,
    NotElliptic,
    Sector,
    decaying_root,
    elliptic_roots,
    halfline_grid,
    lopatinskii_sweep,
    lopatinskii_verdict,
    mode_solution,
    mode_traces,
)


# --------------------------------------------------------------------------
# ellipticity
# --------------------------------------------------------------------------

def test_elliptic_roots_laplace():
    sym = BoundarySymbol.laplace(2)
    xi, xim = elliptic_roots(sym, [1.0, 0.0])
    assert abs(xi + 1j) < 1e-14 and abs(xim - 1j) < 1e-14


@pytest.mark.parametrize("a2, want", [
    (4.0, -2j),                                 # the decaying K_nu branch
    (-4.0, 2.0), (0.0, 0.0),                    # real roots: Re xi >= 0
    (1j, (1 - 1j) / np.sqrt(2.0)),
    (-1j, -(1 + 1j) / np.sqrt(2.0))])
def test_decaying_root(a2, want):
    xi = decaying_root(a2)
    assert abs(xi - want) < 1e-15
    assert abs(xi * xi + a2) < 1e-15


def test_elliptic_roots_wave_real_roots():
    sym = BoundarySymbol.wave(1)
    out = elliptic_roots(sym, [1.0], 2.0)
    assert isinstance(out, NotElliptic)
    assert not out


def test_elliptic_roots_ads_symbol_off_axis():
    gamma0 = np.diag([1.0, -1.0, -1.0])
    sym = BoundarySymbol.from_boundary_metric(gamma0)
    xi, _ = elliptic_roots(sym, [0.4, -0.2], 0.3 + 0.8j)
    assert xi.imag < 0


def test_symbol_homogeneity():
    rng = np.random.default_rng(1)
    for sym in (BoundarySymbol.laplace(2), BoundarySymbol.wave(2),
                BoundarySymbol.laplace_pencil(3),
                BoundarySymbol.from_boundary_metric(np.diag([1.0, -1, -1]))):
        assert sym.check_homogeneity(rng) < 1e-10


def test_adjoint_symbol_elliptic():
    # conjugating the symbol preserves ellipticity
    sym = BoundarySymbol(lambda eta, lam: np.dot(eta, eta) * (1 + 0.3j), 2)
    conj_sym = BoundarySymbol(lambda eta, lam: np.conj(sym.a2(eta, lam)), 2)
    for eta in ([1.0, 0.0], [0.3, -0.7]):
        assert not isinstance(elliptic_roots(sym, eta), NotElliptic)
        assert not isinstance(elliptic_roots(conj_sym, eta), NotElliptic)


# --------------------------------------------------------------------------
# mode solution
# --------------------------------------------------------------------------

def test_mode_solution_half_order_is_exponential():
    ms = mode_solution(0.5, -1.0j)
    x = ms.profile.grid.nodes
    assert np.max(np.abs(ms.profile.values - np.exp(-x))) < 1e-13
    assert abs(ms.traces.gamma_minus - 1.0) < 1e-14
    assert abs(ms.traces.gamma_plus + 1.0) < 1e-14   # -i xi at xi = -i


def test_mode_traces_quarter_order():
    nu = 0.25
    tr = mode_traces(nu, -1.0j)
    want = -2 * nu * gamma(1 - nu) / gamma(1 + nu) * (0.5) ** (2 * nu)
    assert abs(tr.gamma_plus - want) < 1e-14


@pytest.mark.parametrize("nu", [1e-4, 0.3, 0.5, 0.97])
def test_mode_traces_gamma_ratio_matches_mpmath(nu):
    # at xi = -2i the power (i xi / 2)^{2nu} is 1: gamma_+ = -2nu times the
    # ratio Gamma(1 - nu) / Gamma(1 + nu), here from math.gamma
    import mpmath
    with mpmath.workdps(30):
        x = mpmath.mpf(nu)
        ratio = mpmath.gamma(1 - x) / mpmath.gamma(1 + x)
        got = mode_traces(nu, -2.0j).gamma_plus
        assert got.imag == 0.0
        assert abs(mpmath.mpf(got.real) / (-2 * x) - ratio) <= 1e-14 * ratio


def test_mode_solution_interior_residual():
    for nu, xi in ((0.3, -1.0j), (0.8, -0.4 - 1.2j), (1.4, -2.0j)):
        g = RadialGrid.uniform(halfline_grid(xi).x_max, 1024)
        ms = mode_solution(nu, xi, grid=g)
        assert operator_residual(ms.profile, nu, -xi * xi) < 1e-8


def test_mode_solution_decay():
    xi = -0.3 - 0.9j
    ms = mode_solution(0.6, xi)
    x = ms.profile.grid.nodes
    rate = (1j * xi).real
    mask = x > 5.0
    bound = 5.0 * np.exp(-x[mask] * rate / 2.0)
    assert np.all(np.abs(ms.profile.values[mask]) <= bound)


def test_mode_solution_branch_error():
    with pytest.raises(DomainError):
        mode_solution(0.5, 1.0j)


def test_traces_of_mode_solutions_20_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nu = rng.uniform(0.0, 1.0)
        while nu <= 1e-3:
            nu = rng.uniform(0.0, 1.0)
        xi = complex(rng.uniform(-2, 2), -rng.uniform(0.3, 2.5))
        ms = mode_solution(nu, xi)
        fitted = traces(ms.profile, nu)
        closed = mode_traces(nu, xi)
        assert abs(fitted.gamma_minus - closed.gamma_minus) < 1e-8
        assert abs(fitted.gamma_plus - closed.gamma_plus) < 1e-8


# --------------------------------------------------------------------------
# nu-order bookkeeping
# --------------------------------------------------------------------------

def test_nu_order_validation():
    with pytest.raises(DomainError):
        # order-1 T^+ is never admissible
        BoundaryOperator.make(0.4, LinearSymbol(const=1.0),
                              LinearSymbol(eta=(1.0,)))
    # nor is a lambda in T^+, at any nu and any nu-order
    lam_plus = LinearSymbol(const=0.5, lam=0.5)
    for nu in (0.1, 0.5, 0.9):
        for mu in (None, 1.0 - nu, 2.0 - nu, 1.0 + nu):
            with pytest.raises(DomainError):
                BoundaryOperator.make(nu, LinearSymbol(const=1.0), lam_plus,
                                      nu_order=mu)
    bc = BoundaryOperator.robin(0.4, 2.0)
    assert abs(bc.nu_order - 1.4) < 1e-12
    bc = BoundaryOperator.dirichlet(0.4)
    assert abs(bc.nu_order - 0.6) < 1e-12


def test_principal_part_three_way_split():
    # oblique condition gamma_+ + (dy - dz) gamma_-
    eta_coeffs = (1j, -1j)
    for nu, expect_minus, expect_plus in (
            (0.3, True, False),     # T-hat = sigma_1(T^-) gamma_-
            (0.5, True, True),      # classical oblique: both terms
            (0.7, False, True)):    # T-hat = gamma_+
        bc = BoundaryOperator.oblique(nu, eta_coeffs)
        rows = bc.principal_rows(nu, np.array([1.0, 0.4]), 0.0)
        tm, tp = rows[0]
        assert (tm != 0) == expect_minus
        assert (tp != 0) == expect_plus


# --------------------------------------------------------------------------
# Lopatinskii determinants and sweeps
# --------------------------------------------------------------------------

def test_dirichlet_det_is_one():
    sym = BoundarySymbol.laplace(2)
    bc = BoundaryOperator.dirichlet(0.4)
    for eta in ([1.0, 0.0], [0.3, 0.9]):
        det = lopatinskii_verdict(0.4, sym, bc, eta)[1]
        assert abs(det - 1.0) < 1e-14


def test_robin_det_nonzero_half_order():
    nu = 0.5
    sym = BoundarySymbol.laplace(2)
    bc = BoundaryOperator.robin(nu, 3.0)
    eta = np.array([0.6, -0.8])
    det = lopatinskii_verdict(nu, sym, bc, eta)[1]
    # principal selection keeps only gamma_+, whose trace is -i xi = -|eta|
    xi = elliptic_roots(sym, eta)[0]
    assert abs(det - mode_traces(nu, xi).gamma_plus) < 1e-12
    holds, _, _ = lopatinskii_verdict(nu, sym, bc, eta)
    assert holds


def test_oblique_det_vanishes_on_diagonal():
    nu = 0.3
    sym = BoundarySymbol.laplace(2)
    bc = BoundaryOperator.oblique(nu, (1j, -1j))
    eta = np.array([1.0, 1.0]) / math.sqrt(2.0)
    det = lopatinskii_verdict(nu, sym, bc, eta)[1]
    assert abs(det) < 1e-15
    holds, _, _ = lopatinskii_verdict(nu, sym, bc, eta)
    assert not holds
    # off the diagonal it passes
    holds, det, _ = lopatinskii_verdict(nu, sym, bc, [1.0, 0.0])
    assert holds and abs(det - 1j) < 1e-12


def test_det_homogeneity_and_scale_invariance():
    nu = 0.35
    sym = BoundarySymbol.laplace_pencil(2)
    bc = BoundaryOperator.robin(nu, 1.5)
    eta = np.array([0.8, -0.6])
    lam = 0.4 + 0.2j
    d1 = lopatinskii_verdict(nu, sym, bc, eta, lam)[1]
    d2 = lopatinskii_verdict(nu, sym, bc, 2.0 * eta, 2.0 * lam)[1]
    # gamma_+ of the mode scales like |xi|^{2 nu}: weight 2 nu
    assert abs(d2 / d1 - 2.0 ** (2 * nu)) < 1e-12
    v1, _, _ = lopatinskii_verdict(nu, sym, bc, eta, lam)
    v2, _, _ = lopatinskii_verdict(nu, sym, bc, 2.0 * eta, 2.0 * lam)
    assert v1 == v2


def test_classical_half_order_oracle():
    # nu = 1/2 is the smooth Neumann/oblique case: for -Laplace with
    # boundary operator d/dn + b . d/dy + beta, the Lopatinskii-Shapiro
    # determinant is -i xi + i b.eta with xi = -i|eta|; verdicts must agree
    nu = 0.5
    sym = BoundarySymbol.laplace(2)
    cases = [
        ((0.0, 0.0), [1.0, 0.0]),            # Neumann: passes
        ((1.0, 0.5), [0.4, -0.3]),           # real oblique: passes
        ((1j, -1j), [1.0, 1.0]),             # complex tangential: fails there
    ]
    for coeffs, eta in cases:
        bc = BoundaryOperator.make(nu, LinearSymbol(eta=coeffs),
                                   LinearSymbol(const=1.0))
        eta = np.asarray(eta, dtype=float)
        eta = eta / np.linalg.norm(eta)
        xi = elliptic_roots(sym, eta)[0]
        classical = -1j * xi + sum(c * e for c, e in zip(coeffs, eta))
        ours, det, scale = lopatinskii_verdict(nu, sym, bc, eta)
        assert ours == (abs(classical) > 1e-10 * max(abs(classical), 1.0))
        assert abs(det - classical) < 1e-10


def test_sweep_dirichlet_all_pass():
    sym = BoundarySymbol.laplace(2)
    bc = BoundaryOperator.dirichlet(0.4)
    t0 = time.time()
    rep = lopatinskii_sweep(0.4, sym, bc, sphere_samples=64)
    assert time.time() - t0 < 1.0
    assert rep.all_pass and abs(rep.min_abs_det - 1.0) < 1e-12
    assert len(rep.samples) == 64


def test_sweep_oblique_fails_on_diagonal_samples():
    sym = BoundarySymbol.laplace(2)
    bc = BoundaryOperator.oblique(0.3, (1j, -1j))
    rep = lopatinskii_sweep(0.3, sym, bc, sphere_samples=64)
    assert not rep.all_pass
    fails = [s for s in rep.samples if not s["pass"]]
    assert len(fails) == 2
    for s in fails:
        assert abs(s["eta"][0] - s["eta"][1]) < 1e-12


@pytest.mark.parametrize("dim_eta, eta_coeffs", [(1, (1j, -1j)), (2, (1j,))])
def test_sweep_refuses_a_row_of_another_eta_dimension(dim_eta, eta_coeffs):
    # the first raised IndexError, the second dropped eta_2 and answered
    sym = BoundarySymbol.laplace(dim_eta)
    bc = BoundaryOperator.oblique(0.3, eta_coeffs)
    with pytest.raises(DomainError, match="dim_eta"):
        lopatinskii_sweep(0.3, sym, bc)


def test_sweep_samples_the_fibonacci_sphere_at_dim_eta_3():
    sym = BoundarySymbol.laplace(3)
    bc = BoundaryOperator.dirichlet(0.3)
    rep = lopatinskii_sweep(0.3, sym, bc, sphere_samples=64)
    assert len(rep.samples) == 64 and rep.all_pass
    etas = np.array([s["eta"] for s in rep.samples])
    assert np.allclose(np.linalg.norm(etas, axis=1), 1.0, rtol=0, atol=1e-14)
    with pytest.raises(DomainError, match="above 3"):
        lopatinskii_sweep(0.3, BoundarySymbol.laplace(4), bc)


def test_sweep_reports_not_elliptic_samples():
    # on the real lambda ray the wave symbol has real roots once |lambda|
    # reaches |eta|: those rows fail with det 0
    bc = BoundaryOperator.dirichlet(0.3)
    rep = lopatinskii_sweep(0.3, BoundarySymbol.wave(1), bc,
                            sphere_samples=16, sector=Sector(((0.0, 0.0),)))
    assert not rep.all_pass and rep.min_abs_det == 0.0
    fails = [s for s in rep.samples if not s["pass"]]
    assert (len(fails), len(rep.samples)) == (3, 7)
    for s in fails:
        assert s["det"] == 0 and abs(s["lambda"]) > abs(s["eta"][0])


def test_sweep_lambda_robin_on_imaginary_axis():
    nu = 0.7
    sym = BoundarySymbol.wave(2)
    bc = BoundaryOperator.lambda_robin(nu)
    rep = lopatinskii_sweep(nu, sym, bc, sphere_samples=64,
                            sector=Sector.imaginary_axis())
    assert rep.all_pass
