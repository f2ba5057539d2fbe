"""The banded Galerkin core: band-plus-border storage and the bordered solve."""

from dataclasses import replace

import numpy as np
import pytest

from besselbvp.core import Order
from besselbvp.errors import SingularSystem
from besselbvp.fem import BorderedBand, Space, galerkin_solve


def scaled_dense(A):
    """(As, d): the dense form of A scaled to unit diagonal magnitude."""
    D = A.toarray()
    d = np.sqrt(np.abs(np.diag(D)))
    d[d == 0] = 1.0
    return D / np.outer(d, d), d


def robin_system(nu, n_cells, seeded):
    """Assembled operator with a and b terms (and a Robin corner) plus a load."""
    space = Space(Order(nu), 1.0, n_cells=n_cells, include_minus=seeded)
    mats = space.matrices(a_fun=lambda x: 1.0 + 0.5j * x,
                          b_fun=lambda x: x * (1.0 - x))
    A = mats["S"] + mats["A"] + mats["B"]
    if seeded:
        A = replace(A, corner=A.corner - 0.7)
    return space, A, space.load_vector(lambda x: np.cos(3.0 * x))


def test_bordered_band_matches_its_dense_form():
    space, A, _ = robin_system(0.3, 12, True)
    D = A.toarray()
    assert A.shape == D.shape == (space.n, space.n)
    c = np.random.default_rng(1).standard_normal(space.n) + 0j
    assert np.linalg.norm(A @ c - D @ c) <= 1e-14 * np.linalg.norm(D @ c)
    assert np.array_equal(A.diagonal(), np.diag(D))
    # the Lagrange block has half-bandwidth p; only the seed row/col is dense
    i, j = np.indices((space.n - 1, space.n - 1))
    assert np.all(D[1:, 1:][np.abs(i - j) > space.degree] == 0)
    assert np.count_nonzero(D[0]) > space.degree + 1
    assert A.nbytes == A.band.nbytes + A.row.nbytes + A.col.nbytes + 16


def loop_matvec(A, x):
    """Reference band product: one slice update per stored diagonal."""
    xw = x[int(A.seeded):]
    p, m = A.p, A.band.shape[1]
    y = np.zeros(m, dtype=complex)
    for r in range(2 * p + 1):
        off = r - p
        lo, hi = max(0, -off), min(m, m - off)
        y[lo + off:hi + off] += A.band[r, lo:hi] * xw[lo:hi]
    if not A.seeded:
        return y
    return np.concatenate(([A.corner * x[0] + A.row @ xw], y + A.col * x[0]))


@pytest.mark.parametrize("seeded", [True, False])
def test_band_product_adjoint_and_scalar_multiple(seeded):
    _, A, _ = robin_system(0.3, 12, seeded)
    D = A.toarray()
    c = np.random.default_rng(2).standard_normal(A.shape[0]) * (1 + 2j)
    # the strided product adds the diagonals in the loop's order
    assert np.array_equal(A @ c, loop_matvec(A, c))
    assert np.array_equal(A.adjoint().toarray(), D.conj().T)
    assert np.array_equal((np.float64(2.5) * A).toarray(), 2.5 * D)
    As, d = A.unit_diagonal()
    assert np.allclose(np.abs(As.diagonal()), 1.0, rtol=1e-14)
    assert np.allclose(As.toarray(), D * np.outer(d, d), rtol=1e-14)


@pytest.mark.parametrize("nu, seeded", [(0.3, True), (0.3, False),
                                        (0.8, True), (1.5, False)])
def test_condition_estimate_within_10x_of_dense(nu, seeded):
    _, A, rhs = robin_system(nu, 10, seeded)
    x, cond = galerkin_solve(A, rhs)
    As, d = scaled_dense(A)
    exact = np.linalg.cond(As, 1)
    assert exact / 10.0 <= cond <= 10.0 * exact
    # the solution agrees with a dense solve in the scaled coordinates
    ref = np.linalg.solve(As, rhs / d)
    assert np.linalg.norm(x * d - ref) <= 1e-14 * exact * np.linalg.norm(ref)


def test_exactly_singular_band_raises():
    band = np.zeros((3, 4), dtype=complex)
    band[1] = [1.0, 1.0, 0.0, 1.0]
    with pytest.raises(SingularSystem):
        galerkin_solve(BorderedBand(band), np.ones(4))


def test_zero_schur_pivot_raises():
    # identity Lagrange block, seed coupled to dof 1 so that the Schur
    # complement corner - row . col vanishes exactly
    band = np.zeros((3, 4), dtype=complex)
    band[1] = 1.0
    e0 = np.eye(4, dtype=complex)[0]
    with pytest.raises(SingularSystem):
        galerkin_solve(BorderedBand(band, e0, e0, 1.0), np.ones(5))


def test_operator_storage_is_linear_in_dofs():
    stored = {}
    for n in (256, 2048):
        space = Space(Order(0.1), 1.0, n_cells=n // 5)
        mats = space.matrices(a_fun=lambda x: np.ones_like(x))
        stored[n] = (mats["S"] + mats["A"]).nbytes
    assert stored[2048] < 10 * stored[256]
