"""Targeted eigensolves (shift-invert Lanczos/Arnoldi through the banded LU)
and full pencil spectra by structure, checked against dense references,
plus structural guards: count-limited paths never densify an operator,
full lambda-Robin spectra never fall back to QZ, and the residuals of a
spectrum take a fixed number of operator products."""

import ast
import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg as la

import reference_oracles as oracles
from besselbvp import fem, modes
from besselbvp.config import DEFAULTS
from besselbvp.core import Order
from besselbvp.errors import DomainError, LinearizationSingular, SingularSystem
from besselbvp.fem import (BorderedBand, Space, _BorderedLU, _companion_qz,
                           _definite_eig, _is_hermitian, _proportion,
                           mass_deflated_eig, modulus_order, norm_bound,
                           pencil_eig)
from besselbvp.kg import ModelMetric, mass_of_order, reduce
from besselbvp.modes import (_pencil_matrices, dirichlet_spectrum,
                             embedding_singular_values, pencil_modes)
from besselbvp.solve import BesselOperator
from besselbvp.symbols import BoundaryOperator

from test_cli import run_cmd


def laplace_pencil(nu):
    return BesselOperator(Order(nu), a_coeff=0.0,
                          pencil_fourier=lambda q: (float(np.dot(q, q)),
                                                    0.0, 1.0))


def kg_pencil(nu, e0=0.0):
    red = reduce(ModelMetric(3, np.diag([1.0, -1.0, -1.0]), None, e0),
                 mass_of_order(nu, 3))
    return red.nu, red.bessel_op, (0, 0)


def pencil_case(name):
    """(A0, A1, A2) of the pencils the library reports spectra for."""
    if name.startswith("kg"):
        nu, op, q = kg_pencil(float(name[2:]))
        return _pencil_matrices(nu, op, None, q, 160, DEFAULTS)[:3]
    kind, nu = name.split()
    nu = float(nu)
    bc = BoundaryOperator.lambda_robin(nu) if kind == "robin" else None
    return _pencil_matrices(nu, laplace_pencil(nu), bc, 0, 128, DEFAULTS)[:3]


PENCILS = ["laplace 0.4", "laplace 0.75", "robin 0.55", "laplace 5.5",
           "kg0.5", "kg0.7"]


def dirichlet_operators(nu, q, n_nodes=256):
    space = Space(Order(nu), 1.0, n_nodes=n_nodes, include_minus=False)
    mats = space.matrices()
    return mats["S"] + (1.0 + q * q) * mats["M"], mats["M"]


def two_norms(*ops):
    """Dense ||A||_2 of each operator, the reference scale of a residual."""
    return [la.norm(A.toarray(), 2) for A in ops]


def rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


# --------------------------------------------------------------------------
# agreement with the dense references
# --------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0, 2])
@pytest.mark.parametrize("nu", [0.3, 0.5, 2.0, 10.0])
def test_dirichlet_lanczos_matches_dense_reduction(nu, q):
    K, M = dirichlet_operators(nu, q)
    lam, vecs = mass_deflated_eig(K, M, 8)
    ref, _, qz = oracles.dense_hermitian_eig(K, M)
    assert lam.size == 8
    assert rel(lam, ref[:8]) < 1e-10
    assert rel(lam, qz[:8].real) < 1e-10
    for k in range(8):
        r = K @ vecs[:, k] - lam[k] * (M @ vecs[:, k])
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(K @ vecs[:, k])
    # the eigenvectors are M-orthonormal
    gram = vecs.T @ M.toarray().real @ vecs
    assert np.max(np.abs(gram - np.eye(8))) < 1e-12


@pytest.mark.parametrize("name", PENCILS)
def test_pencil_arnoldi_matches_dense_qz(name):
    A0, A1, A2 = pencil_case(name)
    count = 8
    lam, vecs, m = pencil_eig(A0, A1, A2, count=count)
    assert m == A0.shape[0] and lam.size == count + 2
    qz, _, _ = pencil_eig(A0, A1, A2)
    qz = qz[np.isfinite(qz)]
    qz = qz[np.argsort(np.abs(qz), kind="stable")]
    # the same eigenvalues, up to the order inside a +- pair
    assert rel(np.abs(lam[:count]), np.abs(qz[:count])) < 1e-10
    for value in lam[:count]:
        assert np.min(np.abs(qz - value)) < 1e-10 * abs(value)
    norms = two_norms(A0, A1, A2)
    for k in range(count):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        scale = sum(a * abs(lam[k]) ** i for i, a in enumerate(norms))
        assert np.linalg.norm(r) < 1e-12 * scale


def norm_bound_case(name):
    """Operators whose residual scale is checked: a pencil's (A0, A1, A2),
    the scaled Dirichlet (K, M) at q = 1, the non-Hermitian kg pencil, or a
    lone seed row, whose ||A||_1 = 1 lies below ||A||_2 = sqrt(n)."""
    if name == "seed row":
        m = 15
        return (BorderedBand(np.zeros((3, m)), np.ones(m), np.zeros(m), 1.0),)
    if name.startswith("dirichlet"):
        K, M = dirichlet_operators(float(name.split()[1]), 1)
        Ks, d = K.unit_diagonal()
        return Ks, M.scaled(d)
    if name == "kg0.3 e0":
        nu, op, q = kg_pencil(0.3, e0=0.5)
        A0, A1, A2, _ = _pencil_matrices(nu, op, None, q, 64, DEFAULTS)
        dense = A0.toarray()
        assert not np.allclose(dense, dense.conj().T)
        return A0, A1, A2
    return pencil_case(name)


@pytest.mark.parametrize("name", PENCILS + ["dirichlet 0.4", "dirichlet 2",
                                            "dirichlet 10", "kg0.3 e0",
                                            "seed row"])
def test_norm_bound_brackets_the_two_norm(name):
    # sqrt(||A||_1 ||A||_inf) is an upper bound on ||A||_2, and within 1.5x
    # of it on every operator a residual divides by
    ops = norm_bound_case(name)
    for A in ops:
        dense = A.toarray()
        want = la.norm(dense, 2)
        got = norm_bound(A)
        assert want * (1.0 - 1e-14) <= got <= 1.5 * want
        if np.allclose(dense, dense.conj().T, rtol=0.0,
                       atol=1e-14 * np.abs(dense).max(initial=0.0)):
            assert abs(got - A.norm1()) <= 1e-15 * got
        assert norm_bound(0.0 * A) == 0.0
    if name.startswith("robin"):
        # the lambda-Robin A1 is its seed corner alone: the bound is exact
        A1 = ops[1]
        assert np.count_nonzero(A1.toarray()) == 1
        assert norm_bound(A1) == abs(A1.corner) > 0


def test_singular_p0_is_refused(monkeypatch):
    # dof 0 is free in A0 (zero row and column): P(0) has an exact zero
    # pivot, so the shift-inverted Arnoldi has no LU to apply; pencil_eig
    # raises SingularSystem and pencil_modes reports LinearizationSingular
    n = 24
    band = np.zeros((3, n), dtype=complex)
    band[1] = 2.0
    band[0, 1:] = band[2, :-1] = -1.0
    band[:, 0] = 0.0
    band[2, 0] = band[0, 1] = 0.0
    A0 = BorderedBand(band)
    A1 = BorderedBand(np.vstack([np.zeros(n), np.ones(n), np.zeros(n)])
                      + 0j)
    mass = np.vstack([np.full(n, 1.0), np.full(n, 4.0), np.full(n, 1.0)])
    mass[0, 0] = mass[2, -1] = 0.0
    A2 = BorderedBand(mass / 6.0 + 0j)
    with pytest.raises(SingularSystem):
        _BorderedLU(A0.unit_diagonal()[0])
    with pytest.raises(SingularSystem):
        pencil_eig(A0, A1, A2, count=6)
    monkeypatch.setattr(modes, "_pencil_matrices",
                        lambda *args: (A0, A1, A2, None))
    with pytest.raises(LinearizationSingular):
        pencil_modes(0.5, None, None, max_modes=6)


def test_lanczos_refuses_complex_operators():
    K, M = dirichlet_operators(0.5, 0, n_nodes=40)
    with pytest.raises(DomainError):
        mass_deflated_eig(K + 0.1j * M, M, 3)


def test_lanczos_refuses_an_indefinite_K():
    # S - 50 M has S's least eigenvalue (about 9.9 at nu = 0.5) below 50
    space = Space(Order(0.5), 1.0, n_nodes=40, include_minus=False)
    mats = space.matrices()
    with pytest.raises(SingularSystem, match="leading minor"):
        mass_deflated_eig(mats["S"] + (-50.0) * mats["M"], mats["M"], 3)


def test_lanczos_refuses_a_zero_mass():
    # M = 0 makes the Lanczos operator 0 (ARPACK would stop on a zero
    # start vector): every eigenvalue is infinite, a typed refusal
    K, M = dirichlet_operators(0.4, 0, n_nodes=64)
    with pytest.raises(SingularSystem, match="zero mass"):
        mass_deflated_eig(K, 0.0 * M, 3)


def test_lanczos_refuses_seeded_operators():
    space = Space(Order(0.3), 1.0, n_nodes=40, include_minus=True)
    mats = space.matrices()
    K, M = mats["S"] + mats["M"], mats["M"]
    for ops in [(K, M), (K, M.lagrange_block()), (K.lagrange_block(), M)]:
        with pytest.raises(DomainError):
            mass_deflated_eig(*ops, 3)


def test_lanczos_makes_no_operator_product_and_no_lu(monkeypatch):
    # one Cholesky factor and BLAS band kernels do every Krylov step
    def refuse(*args, **kwargs):
        raise AssertionError("mass_deflated_eig left the Cholesky path")

    K, M = dirichlet_operators(0.5, 1, n_nodes=128)
    monkeypatch.setattr(BorderedBand, "__matmul__", refuse)
    monkeypatch.setattr(fem, "_BorderedLU", refuse)
    lam, _ = mass_deflated_eig(K, M, 6)
    assert lam.size == 6


def kg_ads_static_pencil():
    """The pencil of the kg fixture ads_static.cfg (mass -2, nu = 1/2) at
    the fixture's mesh."""
    red = reduce(ModelMetric(3, np.diag([1.0, -1.0, -1.0]), None, 0.0), -2.0)
    return _pencil_matrices(red.nu, red.bessel_op, None, (0, 0), 160,
                            DEFAULTS)[:3]


def count_routes(monkeypatch):
    """Patch fem so that each count-limited pencil_eig records whether the
    Lanczos ran (and returned) and whether the banded LU was built."""
    seen = {"lanczos": 0, "lanczos_failed": 0, "lu": 0}
    lanczos, lu = fem.mass_deflated_eig, fem._BorderedLU

    def spy_lanczos(*args):
        try:
            out = lanczos(*args)
        except SingularSystem:
            seen["lanczos_failed"] += 1
            raise
        seen["lanczos"] += 1
        return out

    def spy_lu(*args):
        seen["lu"] += 1
        return lu(*args)

    monkeypatch.setattr(fem, "mass_deflated_eig", spy_lanczos)
    monkeypatch.setattr(fem, "_BorderedLU", spy_lu)
    return seen


@pytest.mark.parametrize("name", ["laplace", "kg ads_static"])
def test_even_real_pencil_count_takes_the_lanczos(name, monkeypatch):
    if name == "laplace":
        A0, A1, A2 = _pencil_matrices(0.4, laplace_pencil(0.4), None, 0, 128,
                                      DEFAULTS)[:3]
    else:
        A0, A1, A2 = kg_ads_static_pencil()
    seen = count_routes(monkeypatch)
    lam, vecs, m = pencil_eig(A0, A1, A2, count=8)
    assert seen == {"lanczos": 1, "lanczos_failed": 0, "lu": 0}
    assert m == A0.shape[0] and lam.size == 10
    # count + 2 eigenvalues also when that splits a +- pair, as the Arnoldi
    assert pencil_eig(A0, A1, A2, count=5)[0].size == 7
    B0, d = A0.unit_diagonal()
    ref, _, _ = _definite_eig(B0.toarray().real, A2.scaled(d).toarray().real,
                              0.0, 0.0)
    ref = ref[modulus_order(ref)]
    assert np.max(np.abs(lam - ref[:10]) / np.abs(ref[:10])) < 1e-10
    # each +- pair shares one eigenvector
    assert np.array_equal(vecs[:, 0::2], vecs[:, 1::2])
    norms = two_norms(A0, A1, A2)
    for k in range(10):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] ** 2 * (A2 @ c)
        assert np.linalg.norm(r) < 1e-12 * (norms[0] + abs(lam[k]) ** 2
                                            * norms[2])


def other_pencil(name):
    if name == "lambda-robin":
        return pencil_case("robin 0.55")
    if name == "kg e0":
        nu, op, q = kg_pencil(0.3, e0=0.5)
        return _pencil_matrices(nu, op, None, q, 128, DEFAULTS)[:3]
    A0, A1, A2 = pencil_case("laplace 0.4")
    return A0 + (-30.0) * A2, A1, A2


@pytest.mark.parametrize("name, lanczos_failed", [("lambda-robin", 0),
                                                   ("kg e0", 0),
                                                   ("indefinite", 1)])
def test_other_pencil_counts_take_the_arnoldi(name, lanczos_failed,
                                              monkeypatch):
    # a seeded lambda-Robin pencil, a non-Hermitian A0 (e0 term) and an
    # indefinite A0 = S - 30 M, whose Cholesky fails, keep the Arnoldi
    A0, A1, A2 = other_pencil(name)
    seen = count_routes(monkeypatch)
    lam, _, _ = pencil_eig(A0, A1, A2, count=6)
    assert seen == {"lanczos": 0, "lanczos_failed": lanczos_failed,
                    "lu": 1}
    qz, _, _ = pencil_eig(A0, A1, A2)
    qz = qz[np.isfinite(qz)]
    for value in lam[:6]:
        assert np.min(np.abs(qz - value)) < 1e-10 * abs(value)


def test_zero_pencil_count_returns_before_any_factorisation(monkeypatch):
    # A1 = A2 = 0: every eigenvalue is infinite, known before a banded LU
    # or an Arnoldi run on the nilpotent companion operator
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("a zero pencil was factored")

    monkeypatch.setattr(fem, "_BorderedLU", refuse)
    monkeypatch.setattr(fem, "mass_deflated_eig", refuse)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", refuse)
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=0.0,
                        pencil_fourier=lambda q: (1.0, 0.0, 0.0))
    A0, A1, A2 = _pencil_matrices(nu, op, None, 0, 64, DEFAULTS)[:3]
    lam, vecs, m = pencil_eig(A0, A1, A2, count=4)
    assert lam.size == 0 and vecs.shape == (A0.shape[0], 0)
    assert m == A0.shape[0]
    with pytest.raises(LinearizationSingular, match="infinite"):
        pencil_modes(nu, op, None, q=0, n_nodes=64, max_modes=4)


def test_requests_beyond_arpack_limits_return_what_fits():
    K, M = dirichlet_operators(0.5, 0, n_nodes=40)
    n = K.shape[0]
    lam, _ = mass_deflated_eig(K, M, n + 5)
    assert lam.size == n - 1
    ref, _, _ = oracles.dense_hermitian_eig(K, M)
    assert rel(lam[:8], ref[:8]) < 1e-10
    A0, A1, A2 = _pencil_matrices(0.5, laplace_pencil(0.5), None, 0, 30,
                                  DEFAULTS)[:3]
    n = A0.shape[0]
    lam, _, _ = pencil_eig(A0, A1, A2, count=4 * n)
    assert lam.size <= 2 * n - 2


def test_targeted_pencil_modes_match_the_full_spectrum():
    nu = 0.4
    full = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=128)
    some = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=128,
                        max_modes=8)
    assert len(some) == 8
    assert rel(np.abs(some.eigenvalues), np.abs(full.eigenvalues[:8])) < 1e-10
    assert np.all(some.residuals < 1e-7)


def test_dirichlet_spectrum_large_order_matches_closed_form():
    ms = dirichlet_spectrum(10, n_max=6)
    assert np.all(ms.discrepancy < 1e-8)


# --------------------------------------------------------------------------
# full spectra by structure, against complex companion QZ
# --------------------------------------------------------------------------

def complex_qz(A0, A1, A2):
    """The complex companion QZ oracle, eigenvalues in canonical order, on
    the operators scaled as the library scales them (unit_diagonal)."""
    B0, d = A0.unit_diagonal()
    lam, _, m = _companion_qz(B0.toarray(), A1.scaled(d).toarray(),
                              A2.scaled(d).toarray())
    return lam[modulus_order(lam)], m


def assert_lower_half_agrees(lam, ref, m):
    """The m finite eigenvalues of least modulus (the resolved half of the
    2m) agree with the oracle's at 1e-10 relative, one by one."""
    lam, ref = lam[np.isfinite(lam)][:m], ref[np.isfinite(ref)][:m]
    for value in lam:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)
    assert rel(np.abs(lam), np.abs(ref)) < 1e-10


def spy_companion_qz(monkeypatch):
    """Record each call pencil_eig makes to the companion QZ."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _companion_qz(*args)

    monkeypatch.setattr(fem, "_companion_qz", spy)
    return calls


@pytest.mark.parametrize("nu", [0.4, 5.5])
def test_even_dirichlet_pencil_matches_companion_qz(nu, monkeypatch):
    A0, A1, A2 = pencil_case(f"laplace {nu}")
    assert not np.any(A1.toarray())
    qz_calls = spy_companion_qz(monkeypatch)
    lam, vecs, m = pencil_eig(A0, A1, A2)
    assert not qz_calls                               # solved by eigh in mu
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref == A0.shape[0] and lam.size == 2 * m
    assert_lower_half_agrees(lam, ref, m)
    # +-sqrt(mu) share one eigenvector: every pair is exact
    for k in range(0, 2 * m, 2):
        assert lam[k] == -lam[k + 1]
        assert np.array_equal(vecs[:, k], vecs[:, k + 1])


def test_non_hermitian_even_pencil_takes_companion_qz(monkeypatch):
    # the e0 term b = i e0 x makes the kg operators non-Hermitian, so the
    # even pencil has no eigh in mu and goes through the companion QZ
    nu, op, q = kg_pencil(0.6, e0=0.5)
    A0, A1, A2 = _pencil_matrices(nu, op, None, q, 160, DEFAULTS)[:3]
    assert not np.any(A1.toarray())
    assert not _is_hermitian(A0.unit_diagonal()[0])
    qz_calls = spy_companion_qz(monkeypatch)
    lam, _, m = pencil_eig(A0, A1, A2)
    assert len(qz_calls) == 1
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref
    assert_lower_half_agrees(lam, ref, m)


@pytest.mark.parametrize("c, m_expected", [(0.5, 8), (1.0 - 1e-13, 4)])
def test_even_pencil_m_is_the_deflation_rank(c, m_expected, monkeypatch):
    # four 2 x 2 blocks [[1, c], [c, 1]], eigenvalues 1 +- c: at
    # c = 1 - 1e-13 A0 is still positive definite (its Cholesky succeeds),
    # but 1 - c lies below RANK_CUTOFF of 1 + c, so the companion path
    # deflates those four directions; m must not depend on the solver
    n = 8
    band = np.zeros((3, n))
    band[1] = 1.0
    band[0, 1::2] = c                      # entries (2k, 2k + 1)
    band[2, 0::2] = c                      # entries (2k + 1, 2k)
    A0 = BorderedBand(band)
    A1 = BorderedBand(np.zeros((3, n)))
    A2 = BorderedBand(np.vstack([np.zeros(n), np.ones(n), np.zeros(n)]))
    la.cholesky(A0.toarray())
    qz_calls = spy_companion_qz(monkeypatch)
    lam, _, m = pencil_eig(A0, A1, A2)
    assert len(qz_calls) == int(m_expected < n)
    assert m == complex_qz(A0, A1, A2)[1] == m_expected
    assert lam.size == 2 * m


def test_real_qz_matches_complex_qz():
    """Since the definite reduction, this lambda-Robin pencil no longer
    reaches real QZ: it checks the reduction against complex QZ.  Real QZ
    on a library-built pencil is checked by
    test_real_non_hermitian_pencil_takes_real_qz."""
    A0, A1, A2 = pencil_case("robin 0.55")
    assert np.any(A1.toarray()) and A0.dtype == A1.dtype == A2.dtype == float
    lam, _, m = pencil_eig(A0, A1, A2)
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref
    # the upper modes of a lambda-Robin pencil are ill-conditioned; the
    # leading 16 pairs are resolved
    for value in lam[:32]:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)


@pytest.mark.parametrize("nu", [0.55, 0.7])
def test_lambda_robin_pencil_takes_the_definite_reduction(nu, monkeypatch):
    # lambda enters only the seed corner of A1; A0 and A2 are the symmetric
    # base, so one eigh of (A2, A0) and one standard eig solve the pencil
    A0, A1, A2 = pencil_case(f"robin {nu}")
    assert np.count_nonzero(A1.toarray()) == 1
    qz_calls = spy_companion_qz(monkeypatch)
    lam, vecs, m = pencil_eig(A0, A1, A2)
    assert not qz_calls
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref == A0.shape[0] and lam.size == 2 * m
    for value in lam[:32]:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)
    assert rel(np.abs(lam[:32]), np.abs(ref[:32])) < 1e-10
    norms = two_norms(A0, A1, A2)
    for k in range(32):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        scale = sum(a * abs(lam[k]) ** i for i, a in enumerate(norms))
        assert np.linalg.norm(r) < 1e-12 * scale


def tridiagonal(lower, diag, upper):
    """BorderedBand of the tridiagonal matrix with these three diagonals."""
    n = len(diag)
    band = np.zeros((3, n), dtype=np.result_type(lower, diag, upper))
    band[0, 1:], band[1], band[2, :-1] = upper, diag, lower
    return BorderedBand(band)


def test_gyroscopic_pencil_takes_the_definite_reduction(monkeypatch):
    # Hermitian definite A0 and A2, skew-Hermitian A1 = i c M: the
    # reduction needs only A0 and A2 Hermitian, A1 may be anything
    n = 24
    x = np.linspace(1.0, 3.0, n)
    A0 = tridiagonal(-x[1:], 2.0 * x + 0.5, -x[1:])
    M = tridiagonal(np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1))
    A2 = (1.0 / 6.0) * M
    A1 = 0.75j * M
    qz_calls = spy_companion_qz(monkeypatch)
    lam, vecs, m = pencil_eig(A0, A1, A2)
    assert not qz_calls
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref == n and lam.size == 2 * n
    for value in lam:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)
    assert rel(np.abs(lam), np.abs(ref)) < 1e-10
    for k in range(2 * n):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        assert np.linalg.norm(r) < 1e-12 * (1.0 + abs(lam[k])) ** 2


BOOSTED = np.array([[1.0, 0.3, 0.0], [0.3, -1.0, 0.0], [0.0, 0.0, -1.0]])


def boosted_kg(bc_coeff=None):
    """(nu, op, bc): the kg pencil of mass -2 on a boosted gamma0, whose
    inverse mixes t and y, so at q = (1, 0) A1 = alpha A2 with alpha != 0;
    with ``bc_coeff`` the lambda-Robin row adds the seed corner f."""
    red = reduce(ModelMetric(3, BOOSTED, None, 0.0), -2.0)
    bc = (None if bc_coeff is None
          else BoundaryOperator.lambda_robin(red.nu, bc_coeff))
    return red.nu, red.bessel_op, bc


def test_boosted_kg_pencil_takes_the_definite_reduction(monkeypatch):
    # f = 0: every mode is decoupled, 1 + alpha theta lam + theta lam^2 = 0
    nu, op, bc = boosted_kg()
    A0, A1, A2 = _pencil_matrices(nu, op, bc, (1, 0), 160, DEFAULTS)[:3]
    d = A0.unit_diagonal()[1]
    alpha, f = _proportion(A1.scaled(d), A2.scaled(d))
    assert alpha != 0.0 and f == 0.0 and np.isrealobj(alpha)
    qz_calls = spy_companion_qz(monkeypatch)
    lam, vecs, m = pencil_eig(A0, A1, A2)
    assert not qz_calls
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref == A0.shape[0] and lam.size == 2 * m
    assert_lower_half_agrees(lam, ref, m)
    norms = two_norms(A0, A1, A2)
    for k in range(32):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        scale = sum(a * abs(lam[k]) ** i for i, a in enumerate(norms))
        assert np.linalg.norm(r) < 1e-12 * scale


def test_unstructured_a1_takes_qz(monkeypatch):
    # Hermitian definite A0 and A2, but A1 a diagonal no multiple of A2 and
    # no corner: F is not diagonal plus rank one, so the companion QZ
    n = 24
    x = np.linspace(1.0, 3.0, n)
    A0 = tridiagonal(-x[1:], 2.0 * x + 0.5, -x[1:])
    A1 = tridiagonal(np.zeros(n - 1), np.linspace(0.1, 0.4, n),
                     np.zeros(n - 1))
    A2 = (1.0 / 6.0) * tridiagonal(np.ones(n - 1), np.full(n, 4.0),
                                   np.ones(n - 1))
    assert _proportion(A1, A2) is None
    qz_calls = spy_companion_qz(monkeypatch)
    lam, vecs, m = pencil_eig(A0, A1, A2)
    assert len(qz_calls) == 1
    ref = oracles.dense_companion_eigvals(A0, A1, A2)
    assert m == n and lam.size == 2 * n
    for value in lam:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)
    for k in range(2 * n):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        assert np.linalg.norm(r) < 1e-12 * (1.0 + abs(lam[k])) ** 2


def seeded_matrices():
    """S and M of a seeded space: Hermitian, with a seed row and corner."""
    mats = Space(Order(0.3), 1.0, n_nodes=40, include_minus=True).matrices()
    return mats["S"], mats["M"]


def test_proportion_reads_alpha_and_the_corner():
    _, M = seeded_matrices()
    corner = replace(0.0 * M, corner=0.7 + 0j)
    assert _proportion(0.0 * M, M) == (0.0, 0.0)
    assert _proportion(0.0 * M, 0.0 * M) == (0.0, 0.0)
    alpha, f = _proportion(corner, M)              # the lambda-Robin A1
    assert alpha == 0.0 and f == 0.7
    assert np.isrealobj(alpha) and np.isrealobj(f)
    alpha, f = _proportion(2.5 * M + corner, M)    # seeded, both nonzero
    assert abs(alpha - 2.5) < 1e-15 and abs(f - 0.7) < 1e-13
    assert np.isrealobj(alpha) and np.isrealobj(f)
    alpha, f = _proportion(0.75j * M, (1.0 / 6.0) * M)      # gyroscopic
    assert abs(alpha - 4.5j) < 1e-14 and abs(f) < 1e-14 * abs(M.corner)
    band = M.lagrange_block()
    alpha, f = _proportion(2.0 * band, band)       # unseeded: no corner
    assert abs(alpha - 2.0) < 1e-15 and f == 0.0


def test_proportion_refuses_other_a1():
    S, M = seeded_matrices()
    assert _proportion(S, M) is None
    assert _proportion(M, 0.0 * M) is None         # a nonzero A1, A2 = 0
    row = replace(M, row=M.row * (1.0 + 1e-9))     # only the seed row off
    assert _proportion(row, M) is None


def test_is_hermitian_reads_the_seed_border():
    _, M = seeded_matrices()
    assert _is_hermitian(M)
    assert not _is_hermitian(replace(M, row=M.row + 1e-6 * np.abs(M.row)
                                     .max()))
    assert not _is_hermitian(replace(M, corner=M.corner * (1.0 + 1e-6j)))
    assert _is_hermitian(replace(M, corner=M.corner * (1.0 + 1e-15j)))


def test_linear_pencil_puts_half_its_spectrum_at_infinity(monkeypatch):
    # A2 = 0 leaves A1 no multiple of A2: the companion QZ, whose D block
    # A2 = 0 puts n eigenvalues at lambda = inf, the other n at the
    # eigenvalues of the linear pencil A0 + lambda A1
    n = 12
    x = np.linspace(1.0, 3.0, n)
    A0 = tridiagonal(-x[1:], 2.0 * x + 0.5, -x[1:])
    A1 = tridiagonal(np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1))
    A2 = tridiagonal(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1))
    qz_calls = spy_companion_qz(monkeypatch)
    lam, _, m = pencil_eig(A0, A1, A2)
    assert len(qz_calls) == 1
    assert m == n and lam.size == 2 * n
    assert np.all(np.isinf(lam[n:])) and np.all(np.isfinite(lam[:n]))
    ref = la.eigvals(A0.toarray(), -A1.toarray())
    ref = ref[np.argsort(np.abs(ref))]
    assert rel(lam[:n], ref) < 1e-12


def test_real_non_hermitian_pencil_takes_real_qz(monkeypatch):
    # a non-symmetric A0 fails the definite gate: the real operators go
    # through the real QZ of the companion
    n = 24
    A0 = tridiagonal(np.full(n - 1, -0.5), np.full(n, 2.0),
                     np.full(n - 1, -1.0))
    A1 = tridiagonal(np.zeros(n - 1), np.linspace(0.1, 0.4, n),
                     np.zeros(n - 1))
    A2 = tridiagonal(np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1))
    assert A0.dtype == A1.dtype == A2.dtype == float
    qz_calls = spy_companion_qz(monkeypatch)
    lam, _, m = pencil_eig(A0, A1, A2)
    assert len(qz_calls) == 1
    assert all(np.isrealobj(D) for D in qz_calls[0][:3])
    ref, m_ref = complex_qz(A0, A1, A2)
    assert m == m_ref == n
    for value in lam:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)

    # so does a library pencil whose symmetric A0 is indefinite: the
    # lambda-free value -30 puts the least eigenvalue of S - 30 M below 0
    nu = 0.3
    op = BesselOperator(Order(nu), pencil_fourier=lambda q: (-30.0, 0.0, 1.0))
    for bc in (None, BoundaryOperator.lambda_robin(nu)):
        A0, A1, A2 = _pencil_matrices(nu, op, bc, 0, 64, DEFAULTS)[:3]
        assert A0.dtype == A1.dtype == A2.dtype == float
        assert np.any(A1.toarray()) == (bc is not None)
        del qz_calls[:]
        lam, _, m = pencil_eig(A0, A1, A2)
        assert len(qz_calls) == 1
        assert all(np.isrealobj(D) for D in qz_calls[0][:3])
        ref, m_ref = complex_qz(A0, A1, A2)
        assert m == m_ref
        # the top modes are ill-conditioned; the leading 16 pairs resolve
        for value in lam[:32]:
            assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)


@pytest.mark.parametrize("name", ["laplace 0.4", "robin 0.55", "kg0.5"])
def test_pair_order_is_the_same_from_every_solver(name):
    A0, A1, A2 = pencil_case(name)
    some, _, _ = pencil_eig(A0, A1, A2, count=8)
    full, _, _ = pencil_eig(A0, A1, A2)
    # elementwise, so the order inside each +- or conjugate pair agrees
    assert rel(some[:8], full[:8]) < 1e-9
    first = full[:2]
    if name.startswith("kg"):
        assert first[0].real < 0 < first[1].real      # -pi, pi
    else:
        assert first[0].imag < 0 < first[1].imag      # -i j or a - ib first


# --------------------------------------------------------------------------
# structural guards: full lambda-Robin spectra never run QZ, residuals take
# block products, count-limited paths never densify
# --------------------------------------------------------------------------

def test_full_lambda_robin_spectrum_never_runs_qz(monkeypatch):
    def refuse(*args):
        raise AssertionError("a lambda-Robin spectrum fell back to QZ")

    monkeypatch.setattr(fem, "_companion_qz", refuse)
    nu = 0.6
    ms = pencil_modes(nu, laplace_pencil(nu),
                      BoundaryOperator.lambda_robin(nu), q=0, n_nodes=128)
    assert len(ms) == 2 * ms.dof


def test_post_processing_products_do_not_grow_with_the_mesh(monkeypatch):
    # pencil_modes and dirichlet_spectrum form the residuals of all modes
    # by block products, and mass_deflated_eig makes none: the count of
    # BorderedBand products is the same at n = 32 and n = 128, so a
    # per-mode loop fails here
    count = [0]
    matmul = BorderedBand.__matmul__

    def spy(self, x):
        count[0] += 1
        return matmul(self, x)

    monkeypatch.setattr(BorderedBand, "__matmul__", spy)
    nu = 0.6
    counts = []
    for n in (32, 128):
        count[0] = 0
        ms = pencil_modes(nu, laplace_pencil(nu),
                          BoundaryOperator.lambda_robin(nu), q=0, n_nodes=n)
        assert len(ms) == 2 * ms.dof
        ms = dirichlet_spectrum(0.4, q_max=1, n_max=n // 8, n_nodes=n)
        assert len(ms) == 3 * (n // 8)
        counts.append(count[0])
    assert counts[0] == counts[1]


def test_dense_products_run_in_scipy_blas(monkeypatch):
    # every dense product of the eigensolver path goes through fem._matmul,
    # so the products and scipy's LAPACK and ARPACK calls share one BLAS
    # thread pool; a numpy product brought back at one of these sites fails
    callers = {}
    matmul = fem._matmul

    def spy(a, b):
        name = sys._getframe(1).f_code.co_name
        callers[name] = callers.get(name, 0) + 1
        return matmul(a, b)

    monkeypatch.setattr(fem, "_matmul", spy)
    monkeypatch.setattr(modes, "_matmul", spy)

    nu = 0.6
    ms = pencil_modes(nu, laplace_pencil(nu),
                      BoundaryOperator.lambda_robin(nu), q=0, n_nodes=128,
                      residual_cap=None)
    # V X, the closed-form eigenvectors of the corner-only A1 (F = f u u^H
    # is an outer product), and the seed rows of the three residual block
    # products; the residual scales take no dense product
    assert callers.pop("_definite_eig") == 1
    assert callers.pop("__matmul__") == 3
    assert not callers

    modes.completeness_check(ms)
    assert callers.pop("completeness_check") == 1
    assert not callers

    # companion QZ: the three projections and the eigenvector product
    nu, op, q = kg_pencil(0.3, e0=0.5)
    A0, A1, A2, _ = _pencil_matrices(nu, op, None, q, 64, DEFAULTS)
    pencil_eig(A0, A1, A2)
    assert callers.pop("_companion_qz") == 3 * 2 + 1
    assert not callers


def test_dense_routes_make_no_numpy_product():
    # a numpy product wakes numpy's own BLAS pool (see fem._matmul), and a
    # spy on _matmul cannot see one added beside it: read the source
    with open(fem.__file__) as source:
        tree = ast.parse(source.read())
    routes = {"_definite_eig", "_rank_one_eig", "_companion_qz",
              "_proportion"}
    banned = {"dot", "vdot", "inner", "matmul", "tensordot"}
    funcs = [f for f in tree.body
             if isinstance(f, ast.FunctionDef) and f.name in routes]
    assert {f.name for f in funcs} == routes
    found = []
    for func in funcs:
        for node in ast.walk(func):
            op = getattr(node, "op", None)
            if isinstance(op, ast.MatMult) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in banned):
                found.append((func.name, node.lineno))
    assert not found


def test_targeted_paths_never_call_toarray(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("a targeted eigensolve densified an operator")

    monkeypatch.setattr(BorderedBand, "toarray", refuse)
    dirichlet_spectrum(0.4, q_max=1, n_max=4, n_nodes=160)
    embedding_singular_values(0.3, dof=32)
    nu = 0.6
    pencil_modes(nu, laplace_pencil(nu), BoundaryOperator.lambda_robin(nu),
                 q=0, n_nodes=128, max_modes=8)
    pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=128,
                 max_modes=8)
    assert run_cmd("kg", "ads_static.cfg", tmp_path) == 0
    assert run_cmd("modes", "dirichlet_nu05.cfg", tmp_path) == 0
    body = json.loads((tmp_path / "kg_ads_static.json").read_text())
    assert len(body["normal_modes"]) == 8


# --------------------------------------------------------------------------
# spectra compute what their callers read: closed-form lambda-Robin
# eigenvectors, one residual per +- pair, a values-only Lanczos
# --------------------------------------------------------------------------

def dense_definite_eig(A0, A1, A2):
    """Oracle: the definite reduction of a real pencil, with the library's
    scaling and eigh (the top of a lambda-Robin spectrum moves at 1e-12
    with the rounding of the scaled entries), then one dense eig of the
    whole 2n x 2n companion in 1 / lambda, eigenvectors included."""
    B0, d = A0.unit_diagonal()
    D0, D1, D2 = (B.toarray().real for B in (B0, A1.scaled(d), A2.scaled(d)))
    theta, V = la.eigh(D2, D0)
    n = theta.size
    F = V.T @ D1 @ V
    s, W = la.eig(np.block([[-F, -np.diag(theta)],
                            [np.eye(n), np.zeros((n, n))]]))
    return 1.0 / s, (V @ W[n:]) * d[:, None]


def backward_errors(A0, A1, A2, lam, vecs):
    """pencil_modes' residuals: norm_bound weights, unit columns."""
    a0, a1, a2 = (norm_bound(A) for A in (A0, A1, A2))
    C = vecs / np.linalg.norm(vecs, axis=0)
    R = A0 @ C + lam * (A1 @ C) + lam ** 2 * (A2 @ C)
    mod = np.abs(lam)
    return np.linalg.norm(R, axis=0) / (a0 + mod * a1 + mod ** 2 * a2)


def assert_keeps_the_dense_eig_modes(nu, op, bc, q, n):
    """The rank-one route (eigvals, closed-form vectors) keeps the modes
    the dense eig with eigenvectors keeps, at the same eigenvalues."""
    A0, A1, A2 = _pencil_matrices(nu, op, bc, q, n, DEFAULTS)[:3]
    ref, ref_vecs = dense_definite_eig(A0, A1, A2)
    ref_kept = backward_errors(A0, A1, A2, ref, ref_vecs) \
        < DEFAULTS.solver_residual_tol
    ms = pencil_modes(nu, op, bc, q=q, n_nodes=n)
    assert len(ms) == np.count_nonzero(ref_kept)
    assert np.max(ms.residuals) <= 1e-12
    low = ms.eigenvalues[np.abs(ms.eigenvalues) < 1e5]
    ref_low = ref[np.abs(ref) < 1e5]
    assert low.size == ref_low.size
    # one to one: each oracle value matches at most one kept value, so a
    # root found twice cannot hide a root lost
    unused = np.ones(ref_low.size, dtype=bool)
    for value in low:
        gap = np.where(unused, np.abs(ref_low - value), np.inf)
        j = np.argmin(gap)
        assert gap[j] <= 1e-12 * abs(value)
        unused[j] = False


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("c", [-2.0, 0.7, 1.0])
@pytest.mark.parametrize("nu", [0.3, 0.55, 0.7, 0.95])
def test_lambda_robin_closed_form_matches_dense_eig(nu, c, n):
    assert_keeps_the_dense_eig_modes(nu, laplace_pencil(nu),
                                     BoundaryOperator.lambda_robin(nu, c), 0,
                                     n)


def test_boosted_lambda_robin_pencil_matches_dense_eig(monkeypatch):
    # alpha and f both nonzero: the secular roots of d_k(s) = s^2
    # + theta_k (1 + alpha s); the companion QZ would lose modes here
    qz_calls = spy_companion_qz(monkeypatch)
    nu, op, bc = boosted_kg(0.7)
    assert_keeps_the_dense_eig_modes(nu, op, bc, (1, 0), 128)
    assert not qz_calls


def corner_pencil(coupling):
    """Dense A0, A1, A2 on 6 dofs: A1 only the (0, 0) corner, and dof 5
    tied to the rest through A0[4, 5] = ``coupling`` alone."""
    off = [-0.5] * 4 + [coupling]
    A0 = np.diag([2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) + np.diag(off, 1) \
        + np.diag(off, -1)
    A1 = np.zeros((6, 6))
    A1[0, 0] = 0.8
    return A0, A1, np.diag([1.0, 0.5, 0.25, 0.2, 0.1, 0.3])


def dense_pencil_check(A0, A1, A2, lam, vecs):
    """Largest backward error of the pairs and largest relative distance
    of an eigenvalue from the dense QZ of the companion."""
    n = A0.shape[0]
    Z, eye = np.zeros((n, n)), np.eye(n)
    ref = la.eigvals(np.block([[-A1, -A0], [eye, Z]]),
                     np.block([[A2, Z], [Z, eye]]))
    dist = max(np.min(np.abs(ref - value)) / abs(value) for value in lam)
    norms = [la.norm(A, 2) for A in (A0, A1, A2)]
    worst = 0.0
    for value, v in zip(lam, vecs.T):
        c = v / np.linalg.norm(v)
        r = A0 @ c + value * (A1 @ c) + value ** 2 * (A2 @ c)
        scale = sum(a * abs(value) ** i for i, a in enumerate(norms))
        worst = max(worst, np.linalg.norm(r) / scale)
    return worst, dist


def test_decoupled_mode_of_a_corner_pencil_keeps_its_unit_vector():
    # dof 5 couples to nothing, so its mode k has V[0, k] = 0: the pair
    # lambda = +-i sqrt(7 / 0.3) comes back with x = e_k, without a
    # division by s^2 + theta_k = 0 (warnings are errors here)
    A0, A1, A2 = corner_pencil(0.0)
    lam, vecs, m = _definite_eig(A0, A2, 0.0, A1[0, 0])
    assert m == 6 and lam.size == 12
    alone = np.flatnonzero(np.all(vecs[:5] == 0.0, axis=0))
    assert alone.size == 2
    assert np.all(vecs[5, alone] != 0.0)
    assert np.all(lam[alone].real == 0.0)
    assert np.allclose(np.sort(lam[alone].imag),
                       [-np.sqrt(7.0 / 0.3), np.sqrt(7.0 / 0.3)],
                       rtol=1e-14, atol=0.0)
    worst, dist = dense_pencil_check(A0, A1, A2, lam, vecs)
    assert worst < 1e-10 and dist < 1e-12


def test_nearly_decoupled_mode_takes_the_better_vector():
    # a coupling of 1e-9 leaves dof 5's root within rounding of its pole:
    # the closed form (s^2 + Theta)^{-1} u points the wrong way there, and
    # the root keeps e_k, whose residual is the smaller
    A0, A1, A2 = corner_pencil(1e-9)
    lam, vecs, m = _definite_eig(A0, A2, 0.0, A1[0, 0])
    worst, dist = dense_pencil_check(A0, A1, A2, lam, vecs)
    assert worst < 1e-9 and dist < 1e-12


@pytest.mark.parametrize("max_modes", [None, 8])
def test_pm_pairs_share_one_residual(max_modes, monkeypatch):
    # with A1 = 0 both routes return lambda and -lambda with one shared
    # vector: its norm and residual are formed once, so each residual
    # block product receives one column per distinct vector
    widths = []
    matmul = BorderedBand.__matmul__

    def spy(self, x):
        widths.append(np.shape(x)[1:])
        return matmul(self, x)

    monkeypatch.setattr(BorderedBand, "__matmul__", spy)
    nu = 0.4
    ms = pencil_modes(nu, laplace_pencil(nu), None, q=0, n_nodes=128,
                      residual_cap=None, max_modes=max_modes)
    lam, resid = ms.eigenvalues, ms.residuals
    partner = np.flatnonzero(lam[1:] == -lam[:-1])
    assert np.array_equal(resid[partner], resid[partner + 1])
    if max_modes is None:
        assert partner.size == ms.dof and lam.size == 2 * ms.dof
        distinct = ms.dof
    else:
        # pencil_eig returns max_modes + 2 modes, the pairs of 5 vectors
        assert lam.size == max_modes and partner.size == max_modes // 2
        distinct = (max_modes + 2) // 2
    assert widths == [(distinct,), (distinct,)]     # A0 C and A2 C


def test_embedding_reads_the_eigenvalues_only(monkeypatch):
    # ARPACK forms no Ritz vectors for the embedding, and the values equal
    # those of the vectors route
    import scipy.sparse.linalg

    asked = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        asked.append(kwargs.get("return_eigenvectors", True))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    nu, dof = 0.3, 64
    rep = embedding_singular_values(nu, dof=dof)
    assert asked == [False]
    space = Space(Order(nu), 1.0, n_nodes=4 * dof, include_minus=False)
    mats = space.matrices()
    K, M = mats["S"] + mats["M"], mats["M"]
    lam, none = mass_deflated_eig(K, M, dof, vectors=False)
    ref, _ = mass_deflated_eig(K, M, dof)
    assert none is None and asked[1:] == [False, True]
    assert rel(lam, ref) <= 1e-14
    assert rel(rep.s, 1.0 / np.sqrt(np.sort(ref))) <= 1e-14
