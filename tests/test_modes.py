import numpy as np
import pytest

from besselbvp import modes
from besselbvp.core import Order, RadialGrid, GridFunction
from besselbvp.errors import (DomainError, IncompleteModeInput,
                              LinearizationSingular, SingularSystem)
from besselbvp.modes import (
    ModeSource,
    completeness_check,
    dirichlet_spectrum,
    embedding_singular_values,
    pencil_modes,
)
from besselbvp.solve import BesselOperator, operator_residual
from besselbvp.special import bessel_zeros
from besselbvp.symbols import BoundaryOperator, LinearSymbol

import mpmath
import scipy.linalg
import scipy.special as ss

import reference_oracles as oracles


def laplace_pencil(nu):
    return BesselOperator(Order(nu), a_coeff=0.0,
                          pencil_fourier=lambda q: (float(np.dot(q, q)),
                                                    0.0, 1.0))


# --------------------------------------------------------------------------
# Dirichlet spectrum
# --------------------------------------------------------------------------

def test_dirichlet_spectrum_half_order_closed_form():
    ms = dirichlet_spectrum(0.5, q_max=0, n_max=3, n_nodes=256)
    want = 1.0 + np.pi ** 2 * np.arange(1, 4) ** 2
    assert np.allclose(ms.eigenvalues, want, rtol=1e-9)
    assert np.allclose(ms.closed_form, want, rtol=1e-12)


def test_dirichlet_spectrum_discrepancy_reported():
    ms = dirichlet_spectrum(0.3, q_max=0, n_max=1, n_nodes=256)
    j1 = bessel_zeros(0.3, 1).zeros[0]
    assert abs(ms.eigenvalues[0] - (1 + j1 ** 2)) / (1 + j1 ** 2) < 1e-6
    assert ms.discrepancy[0] < 1e-6
    assert np.all(ms.residuals < 1e-7)


def test_dirichlet_spectrum_with_tangential_modes():
    ms = dirichlet_spectrum(0.4, q_max=2, n_max=2, n_nodes=160)
    j = bessel_zeros(0.4, 2).zeros
    want = sorted(1.0 + q * q + j[n] ** 2
                  for q in range(-2, 3) for n in range(2))
    assert np.allclose(np.sort(ms.eigenvalues), want, rtol=1e-6)
    assert np.all(np.diff(np.abs(ms.eigenvalues)) > -1e-12)


def test_dirichlet_spectrum_refuses_negative_q_max():
    # once a raw ValueError from unpacking an empty list of spectra
    with pytest.raises(DomainError, match="q_max"):
        dirichlet_spectrum(0.4, q_max=-1)


@pytest.mark.parametrize("q_max", [1.5, True])
def test_dirichlet_spectrum_refuses_non_integer_q_max(q_max):
    # 1.5 once raised a bare TypeError and True ran as q_max = 1
    with pytest.raises(DomainError, match="q_max"):
        dirichlet_spectrum(0.4, q_max=q_max)


@pytest.mark.parametrize("n_max", [1.5, True, 0])
def test_dirichlet_spectrum_refuses_a_bad_mode_count(n_max):
    # 1.5 and True once returned one mode silently
    with pytest.raises(DomainError, match="n_max"):
        dirichlet_spectrum(0.4, n_max=n_max, n_nodes=64)


def test_dirichlet_spectrum_large_order_is_a_typed_failure():
    # at nu = 20 the first stiffness entries underflow to 0, so the scaled K
    # is not positive definite: a SingularSystem, never a silent spectrum
    with pytest.raises(SingularSystem, match="leading minor"):
        dirichlet_spectrum(20, n_max=10)


def test_dirichlet_spectrum_solves_each_abs_q_once(monkeypatch):
    # modes q and -q share K = S + (1 + q^2) M: one eigensolve and one pair
    # of norm bounds per |q|, each record kept once per q
    calls = {"eig": 0, "norm": 0}
    eig, norm = modes.mass_deflated_eig, modes.norm_bound

    def counted_eig(*args):
        calls["eig"] += 1
        return eig(*args)

    def counted_norm(*args):
        calls["norm"] += 1
        return norm(*args)

    monkeypatch.setattr(modes, "mass_deflated_eig", counted_eig)
    monkeypatch.setattr(modes, "norm_bound", counted_norm)
    ms = dirichlet_spectrum(0.4, q_max=2, n_max=2, n_nodes=160)
    assert calls == {"eig": 3, "norm": 6}
    assert len(ms) == 10
    qs = ms.fourier_index
    assert sorted(qs) == sorted(q for q in range(-2, 3) for _ in range(2))
    for q in (1, 2):
        assert np.array_equal(ms.eigenvalues[qs == q],
                              ms.eigenvalues[qs == -q])


def test_dirichlet_modes_evaluate_on_demand():
    # each mode is its coefficient column, evaluated in the ModeSet's space
    nu = 0.4
    ms = dirichlet_spectrum(nu, n_max=4, n_nodes=256)
    x = np.linspace(0.05, 1.0, 200)
    for k in range(4):
        j = float(mpmath.besseljzero(nu, k + 1))
        want = np.sqrt(x) * ss.jv(nu, j * x)
        got = ms.space.eval_coeffs(ms.coeffs[:, k], x)
        scale = np.vdot(want, got) / np.vdot(want, want)
        assert np.max(np.abs(got - scale * want)) \
            < 1e-8 * np.max(np.abs(scale * want))


def test_dirichlet_eigenfunction_satisfies_ode():
    nu = 0.6
    j1 = bessel_zeros(nu, 1).zeros[0]
    grid = RadialGrid.uniform(1.0, 1024)
    u = GridFunction(grid, np.sqrt(grid.nodes) * ss.jv(nu, j1 * grid.nodes))
    assert operator_residual(u, nu, -j1 ** 2) < 1e-7


# --------------------------------------------------------------------------
# quadratic pencils
# --------------------------------------------------------------------------

def test_pencil_dirichlet_matches_zero_table():
    nu = 0.4
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=256)
    assert ms.source is ModeSource.QUADRATIC_PENCIL
    jz = bessel_zeros(nu, 8).zeros
    lam = ms.eigenvalues[:16]
    for k in range(8):
        pair = lam[2 * k:2 * k + 2]
        assert abs(abs(pair[0].imag) - jz[k]) / jz[k] < 1e-6
        assert abs(pair[0] + pair[1]) < 1e-8 * jz[k]   # +- pairing
        assert abs(pair[0].real) < 1e-8 * jz[k]
    assert np.all(ms.residuals < 1e-7)


@pytest.mark.parametrize("max_modes", [-3, 0])
def test_pencil_refuses_a_mode_count_below_one(max_modes):
    # -3 once reached ARPACK's raw ValueError, 0 an empty ModeSet
    nu = 0.4
    with pytest.raises(DomainError, match="max_modes"):
        pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=64,
                     max_modes=max_modes)


@pytest.mark.parametrize("max_modes", [1.5, True])
def test_pencil_refuses_a_non_integer_mode_count(max_modes):
    # 1.5 once raised a bare TypeError (slice indices) and True ran as 1
    nu = 0.4
    with pytest.raises(DomainError, match="max_modes"):
        pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=64,
                     max_modes=max_modes)


@pytest.mark.parametrize("cap", [-1, 0.0, np.nan, np.inf])
def test_pencil_refuses_a_bad_residual_cap(cap):
    # -1 once crashed in modulus_order on the empty kept set
    nu = 0.4
    with pytest.raises(DomainError, match="residual_cap"):
        pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=64,
                     residual_cap=cap)


def test_pencil_with_no_mode_under_the_cap_is_empty():
    nu = 0.4
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=64,
                      residual_cap=1e-30)
    assert len(ms) == 0
    assert ms.coeffs.shape == (ms.dof, 0)
    assert ms.cauchy_data.shape == (2 * ms.dof, 0)
    assert ms.residuals.shape == (0,)


@pytest.mark.parametrize("error", [scipy.linalg.LinAlgError("QZ failed"),
                                   SingularSystem("zero pivot")])
def test_pencil_eigensolver_failure_is_linearization_singular(monkeypatch,
                                                              error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(modes, "pencil_eig", fail)
    nu = 0.4
    with pytest.raises(LinearizationSingular) as info:
        pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=64)
    assert info.value.__cause__ is error


def test_pencil_without_lambda_terms_is_linearization_singular():
    # P(lambda) = P(0) has every eigenvalue at infinity: the shift-inverted
    # companion operator is nilpotent, so Arnoldi returns no finite mode
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=0.0,
                        pencil_fourier=lambda q: (1.0, 0.0, 0.0))
    with pytest.raises(LinearizationSingular, match="infinite"):
        pencil_modes(nu, op, BoundaryOperator.robin(nu, 0.7), q=0,
                     n_nodes=64, max_modes=4)


def test_count_limited_pencil_without_lambda_terms_is_typed():
    # with no boundary row the even real pencil takes the Cholesky Lanczos
    # in -lambda^2, whose mass A2 is 0: mass_deflated_eig refuses it before
    # ARPACK (no raw ArpackError), and no finite mode is left
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=0.0,
                        pencil_fourier=lambda q: (1.0, 0.0, 0.0))
    with pytest.raises(LinearizationSingular, match="infinite"):
        pencil_modes(nu, op, None, q=0, n_nodes=64, max_modes=4)


# (nu, boundary row, n_nodes, modes kept under the default 1e-7 cap): the
# residuals divide by fem.norm_bound scales; the static Robin rows with
# beta > 2 nu lose the modes that companion QZ returns as infinite
KEPT_MODES = [
    (0.55, ("lambda_robin", 1.0), 128, 252),
    (0.3, ("lambda_robin", 0.7), 128, 252),
    (0.52, ("lambda_robin", 1.3), 256, 512),
    (0.4, None, 128, 250),
    (0.75, None, 128, 250),
    (5.5, None, 112, 220),
    (0.3, ("robin", 0.9), 128, 218),
    (0.3, ("robin", 1.8), 128, 218),
    (0.6, ("robin", 1.8), 128, 150),
    (0.6, ("robin", 3.6), 128, 150),
]


@pytest.mark.parametrize("nu, row, n_nodes, kept", KEPT_MODES)
def test_pencil_kept_mode_counts(nu, row, n_nodes, kept):
    bc = None if row is None else getattr(BoundaryOperator, row[0])(nu, row[1])
    ms = pencil_modes(nu, laplace_pencil(nu), bc, q=0, n_nodes=n_nodes)
    assert len(ms) == kept
    assert np.all(ms.residuals < 1e-7)
    if (nu, row) == (0.55, ("lambda_robin", 1.0)):
        ms = pencil_modes(nu, laplace_pencil(nu), bc, q=0, n_nodes=n_nodes,
                          max_modes=8)
        assert len(ms) == 8


def test_even_pencil_spectrum_symmetry():
    nu = 0.7
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=128)
    lam = ms.eigenvalues[np.isfinite(ms.eigenvalues)]
    lam = lam[np.abs(lam) < 100]
    spec = set(np.round(lam, 6))
    for l in lam:
        assert np.round(-l, 6) in spec


@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (129, 258), (40, 1),
                                   (3, 50)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_column_norms_equal_per_column_norm(shape, dtype):
    # row dots on a contiguous copy of X^T sum as np.linalg.norm does
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    X = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        X += 1j * rng.standard_normal(shape)
    want = np.array([np.linalg.norm(X[:, j]) for j in range(shape[1])])
    assert modes._column_norms(X).tobytes() == want.tobytes()
    assert modes._column_norms(np.asfortranarray(X)).tobytes() \
        == want.tobytes()
    cols = np.arange(shape[1])[::2]
    assert modes._column_norms(X, cols).tobytes() == want[cols].tobytes()


def test_pencil_eigenvalue_count_with_multiplicity():
    nu = 0.5
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=64,
                      residual_cap=None)
    assert len(ms.eigenvalues) == 2 * ms.dof


def test_pencil_lambda_robin_regression():
    # residual-certified fixtures, each checked against the nearest zero of
    # the closed-form characteristic function F(lambda) (mpmath)
    nu = 0.7
    bc = BoundaryOperator.lambda_robin(nu)
    ms = pencil_modes(nu, laplace_pencil(nu), bc, q=0, n_nodes=256)
    assert np.all(ms.residuals < 1e-7)
    lam = ms.eigenvalues[:4]
    want = [0.4803985 - 1.09678936j, 0.4803985 + 1.09678936j,
            0.25751747 - 4.32747309j, 0.25751747 + 4.32747309j]
    for w in want:
        assert np.min(np.abs(lam - w)) < 1e-6 * abs(w)
        exact = oracles.lambda_robin_eigenvalue(nu, 1.0, w)
        assert abs(w - exact) < 1e-6 * abs(exact)
        assert np.min(np.abs(lam - exact)) < 1e-6 * abs(exact)


def test_pencil_reads_eta_row_at_q():
    # T(lambda) = gamma_+ + (i eta_1 - i eta_2 + lambda) gamma_- at eta =
    # q = (3, 1) is the lambda-Robin row with constant 2i: the same corner,
    # the same modes and the same constraint
    nu, q = 0.3, (3, 1)

    def row(t_minus):
        return BoundaryOperator.make(nu, t_minus, LinearSymbol(const=1.0))

    got = pencil_modes(nu, laplace_pencil(nu),
                       row(LinearSymbol(eta=(1j, -1j), lam=1.0)), q=q,
                       n_nodes=96, max_modes=6)
    want = pencil_modes(nu, laplace_pencil(nu),
                        row(LinearSymbol(const=2j, lam=1.0)), q=q,
                        n_nodes=96, max_modes=6)
    assert len(got) == len(want) > 0
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) \
        <= 1e-12 * np.max(np.abs(want.eigenvalues))
    assert np.max(np.abs(got.constraint - want.constraint)) \
        <= 1e-12 * np.max(np.abs(want.constraint))
    with pytest.raises(DomainError):
        pencil_modes(nu, laplace_pencil(nu), BoundaryOperator.oblique(
            nu, (1j, -1j)), q=3, n_nodes=96, max_modes=6)


def test_self_adjoint_spectrum_real():
    # linear eigenproblem of Delta_nu + 1: eigenvalues real to 1e-9
    ms = dirichlet_spectrum(0.75, q_max=0, n_max=10, n_nodes=256)
    assert np.max(np.abs(np.imag(ms.eigenvalues))) < 1e-9


# --------------------------------------------------------------------------
# completeness
# --------------------------------------------------------------------------

def test_completeness_dirichlet_pencil_dof32():
    nu = 0.4
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=32,
                      residual_cap=None)
    rep = completeness_check(ms)
    assert rep.verdict
    assert rep.numerical_rank == rep.ambient_dim == 2 * ms.dof
    assert "surrogate" in rep.note


def test_completeness_fails_on_truncated_modes():
    nu = 0.4
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=32,
                      residual_cap=None)
    half = ms.cauchy_data[:, : ms.cauchy_data.shape[1] // 2]
    import dataclasses
    truncated = dataclasses.replace(ms, cauchy_data=half)
    with pytest.raises(IncompleteModeInput):
        completeness_check(truncated)
    # with enough columns but spanning only half the space: verdict false
    doubled = np.concatenate([half, half], axis=1)
    padded = dataclasses.replace(ms, cauchy_data=doubled)
    rep = completeness_check(padded)
    assert not rep.verdict


def test_completeness_lambda_robin_constraint_subspace():
    nu = 0.7
    bc = BoundaryOperator.lambda_robin(nu)
    ms = pencil_modes(nu, laplace_pencil(nu), bc, q=0, n_nodes=32,
                      residual_cap=None)
    rep = completeness_check(ms)
    assert rep.ambient_dim == 2 * ms.dof - 1
    assert rep.verdict


# --------------------------------------------------------------------------
# embedding singular values
# --------------------------------------------------------------------------

def test_embedding_half_order_closed_form():
    rep = embedding_singular_values(0.5, dof=32)
    want = 1.0 / np.sqrt(1.0 + np.pi ** 2 * np.arange(1, 33) ** 2)
    # leading block is spectrally resolved; the tail carries the usual
    # discrete overshoot but stays within a couple of percent
    assert np.allclose(rep.s[:8], want[:8], rtol=1e-7)
    assert np.allclose(rep.s, want, rtol=2e-2)


def test_embedding_exponent_in_range():
    rep = embedding_singular_values(0.3, dof=64)
    assert -1.1 <= rep.fitted_exponent <= -0.9
    assert np.all(np.diff(rep.s) < 0)


@pytest.mark.parametrize("dof", [10.5, True, 1])
def test_embedding_refuses_a_bad_dof(dof):
    # 10.5 once ran as dof = 10, and True failed on a 4-node mesh; a
    # log-log fit needs two singular values
    with pytest.raises(DomainError, match="dof"):
        embedding_singular_values(0.3, dof=dof)


def test_embedding_monotone_and_positive():
    rep = embedding_singular_values(1.5, dof=48)
    assert np.all(rep.s > 0)
    assert np.all(np.diff(rep.s) < 0)
