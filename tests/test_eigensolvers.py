"""Targeted eigensolves: shift-invert Lanczos/Arnoldi through the banded LU,
checked against dense references, plus the structural guard that the
count-limited paths never densify an operator."""

import json

import numpy as np
import pytest
from scipy import linalg as la

import oracles
from besselbvp.config import DEFAULTS
from besselbvp.core import Order
from besselbvp.errors import DomainError, SingularSystem
from besselbvp.fem import (BorderedBand, Space, _BorderedLU,
                           mass_deflated_eig, pencil_eig, spectral_norm)
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


def kg_pencil(nu):
    red = reduce(ModelMetric(3, np.diag([1.0, -1.0, -1.0]), None, 0.0),
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
    space = Space(Order(nu), 1.0, n_cells=n_nodes // DEFAULTS.fem_degree,
                  dirichlet_cap=True, include_minus=False)
    mats = space.matrices()
    return mats["S"] + (1.0 + q * q) * mats["M"], mats["M"]


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
    for k in range(count):
        c = vecs[:, k] / np.linalg.norm(vecs[:, k])
        r = A0 @ c + lam[k] * (A1 @ c) + lam[k] ** 2 * (A2 @ c)
        scale = sum(spectral_norm(A) * abs(lam[k]) ** i
                    for i, A in enumerate((A0, A1, A2)))
        assert np.linalg.norm(r) < 1e-12 * scale


@pytest.mark.parametrize("name", PENCILS)
def test_spectral_norm_estimate_matches_dense(name):
    for A in pencil_case(name):
        want = la.norm(A.toarray(), 2)
        assert abs(spectral_norm(A) - want) <= 1e-10 * want


def test_spectral_norm_of_scaled_operators():
    K, M = dirichlet_operators(0.4, 1)
    Ks, d = K.unit_diagonal()
    want = la.norm(Ks.toarray(), 2)
    assert abs(spectral_norm(Ks) - want) <= 1e-10 * want
    # the scaled mass has a tight cluster on top: the estimate stays below
    Ms = M.scaled(d)
    want = la.norm(Ms.toarray(), 2)
    got = spectral_norm(Ms)
    assert want * (1.0 - 1e-4) <= got <= want * (1.0 + 1e-14)
    assert spectral_norm(0.0 * Ms) == 0.0


def test_singular_p0_takes_the_retry_shift():
    # dof 0 is free in A0 (zero row and column): P(0) has an exact zero
    # pivot, and lambda = 0 is a simple eigenvalue because A1 = I
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
    lam, vecs, _ = pencil_eig(A0, A1, A2, count=6)
    ref = oracles.dense_companion_eigvals(A0, A1, A2)
    assert abs(lam[0]) < 1e-12
    assert rel(np.abs(lam[1:6]), np.abs(ref[1:6])) < 1e-10
    for value in lam[1:]:
        assert np.min(np.abs(ref - value)) < 1e-10 * abs(value)
    c = vecs[:, 0]
    r = A0 @ c + lam[0] * (A1 @ c) + lam[0] ** 2 * (A2 @ c)
    assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(c)


def test_lanczos_refuses_complex_operators():
    K, M = dirichlet_operators(0.5, 0, n_nodes=40)
    with pytest.raises(DomainError):
        mass_deflated_eig(K + 0.1j * M, M, 3)


def test_requests_beyond_arpack_limits_return_what_fits():
    K, M = dirichlet_operators(0.5, 0, n_nodes=40)
    n = K.shape[0]
    lam, _ = mass_deflated_eig(K, M, n + 5)
    assert lam.size == n - 1
    ref, _, _ = oracles.dense_hermitian_eig(K, M)
    assert rel(lam[:8], ref[:8]) < 1e-10
    A0, A1, A2 = _pencil_matrices(0.5, laplace_pencil(0.5), None, 0, 20,
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
# structural guard: count-limited paths never densify
# --------------------------------------------------------------------------

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
