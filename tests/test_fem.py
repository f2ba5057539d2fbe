"""The banded Galerkin core: cell tables, band-plus-border storage, the
bordered solve and the canonical order of pencil eigenvalues."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from besselbvp.core import BranchFunction, Order, branch_inner
from besselbvp.errors import SingularSystem
from besselbvp.fem import (BorderedBand, Space, galerkin_solve,
                           lobatto_nodes, modulus_order)
from besselbvp.solve import BesselOperator, BVProblem, solve_1d
from besselbvp.symbols import BoundaryOperator


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


@pytest.mark.parametrize("nu, seeded", [(0.3, True), (0.3, False),
                                        (0.8, True), (2.5, False)])
def test_constant_coefficient_form_is_mass_multiple(nu, seeded):
    """A(c) = c M, which lets the solvers add a shift or mode as c M."""
    space = Space(Order(nu), 1.0, n_cells=20, include_minus=seeded)
    c = 2.5 - 1.25j
    mats = space.matrices(a_fun=lambda x: np.full(np.shape(x), c))
    A, M = mats["A"].toarray(), mats["M"].toarray()
    d = np.sqrt(np.abs(np.diag(M)))
    assert np.max(np.abs(A - c * M) / np.outer(d, d)) <= 1e-14 * abs(c)


def lagrange(p, i):
    """The i-th Lagrange polynomial on the degree-p Lobatto nodes of [0, 1]."""
    nodes = lobatto_nodes(p)
    others = np.delete(nodes, i)
    return Polynomial.fromroots(others) / np.prod(nodes[i] - others)


@pytest.mark.parametrize("nu, seeded", [
    (nu, seeded) for nu in (0.05, 0.3, 0.5, 0.75, 0.99, 1.5, 3.0)
    for seeded in ((True, False) if nu < 1 else (False,))])
def test_first_cell_entries_match_branch_calculus(nu, seeded):
    """Cell-0 entries of S, M, A (constant a) and B (polynomial b).

    In t = x/h a Lagrange function on cell 0 is h^{nu+1/2} F_i(t) with
    F_i = t^{nu+1/2} L_i(t), and d_nu scales like 1/h, so
    M = h^{2nu+2} <F_i, F_j>, S = h^{2nu} <d_nu F_i, d_nu F_j> and
    B = -i h^{2nu+1} <b(h t) d_nu F_i, F_j>.  Only the functions that live
    on cell 0 alone are compared (the edge function and the seed span more
    cells).
    """
    space = Space(Order(nu), 1.0, n_cells=12, include_minus=seeded)
    a, b = 1.7, Polynomial([0.0, 1.0, -1.0])           # b(x) = x (1 - x)
    mats = space.matrices(a_fun=lambda x: np.full(np.shape(x), a), b_fun=b)
    h, p, s = space.edges[1], space.degree, int(seeded)
    F = [BranchFunction([(nu + 0.5, lagrange(p, i))]) for i in range(p)]
    dF = [f.d_nu(nu) for f in F]
    bt = Polynomial(b.coef * h ** np.arange(b.coef.size))     # b(h t)
    want = {
        "M": h ** (2 * nu + 2) * np.array(
            [[branch_inner(fi, fj, 1.0) for fi in F] for fj in F]),
        "S": h ** (2 * nu) * np.array(
            [[branch_inner(di, dj, 1.0) for di in dF] for dj in dF]),
        "B": -1j * h ** (2 * nu + 1) * np.array(
            [[branch_inner(di.times_poly(bt), fj, 1.0) for di in dF]
             for fj in F]),
    }
    want["A"] = a * want["M"]
    got = {k: m.toarray()[s:s + p, s:s + p] for k, m in mats.items()}
    dM, dS = (np.sqrt(np.abs(np.diag(got[k]))) for k in ("M", "S"))
    # B's scale is its Cauchy-Schwarz bound max|b| sqrt(M_jj S_ii), with
    # max|b| = h on cell 0
    scale = {"M": np.outer(dM, dM), "A": a * np.outer(dM, dM),
             "S": np.outer(dS, dS), "B": h * np.outer(dM, dS)}
    for k in ("S", "M", "A", "B"):
        assert np.max(np.abs(got[k] - want[k]) / scale[k]) <= 1e-11, k


def test_resolvent_h2_term_converges_with_the_mesh():
    # (|D_nu|^2 + 16) u = f with a Dirichlet row: the resolvent of the
    # Laplace pencil at |lambda| = 4 on the elliptic-cone bisector
    nu = 0.3
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)

    def f(x):
        k = np.arange(1, 7)
        return np.sin(np.pi * np.multiply.outer(x, k)) @ c

    prob = BVProblem(op=BesselOperator(Order(nu), a_coeff=16.0),
                     bc0=BoundaryOperator.dirichlet(nu), rhs=f)
    terms = []
    for n in (256, 512, 1024):
        sol = solve_1d(prob, n_nodes=n)
        h0, h1, h2 = sol.space.norms(sol.coeffs)
        terms.append(h2 - h1)              # ||(|D_nu|^2) u||^2
    terms = np.array(terms)
    assert np.ptp(terms) <= 1e-5 * terms[-1]


def test_modulus_ties_break_by_real_part():
    up = np.nextafter(np.pi, 4.0)             # one ulp above pi
    for lam in (np.array([up, -np.pi, 1.0]), np.array([-up, np.pi, 1.0])):
        ordered = lam[modulus_order(lam)]
        assert ordered[0] == 1.0
        assert ordered[1] < 0 < ordered[2]
    # distinct moduli keep their order; infinities never join a tie
    lam = np.array([np.inf, 2.0, -1.0 - 1e-9, 1.0])
    assert list(lam[modulus_order(lam)]) == [1.0, -1.0 - 1e-9, 2.0, np.inf]



def test_modulus_ties_order_imaginary_and_conjugate_pairs():
    j, eps = 3.0, 1e-15
    # an imaginary-axis pair whose real parts are rounding noise: -i j first
    for lam in (np.array([eps + 1j * j, -eps - 1j * j]),
                np.array([-eps - 1j * j, eps + 1j * j])):
        ordered = lam[modulus_order(lam)]
        assert ordered[0].imag < 0 < ordered[1].imag
    # a conjugate pair whose real parts differ by an ulp (real QZ divides
    # each eigenvalue of a pair by its own beta): a - ib first
    a = 0.5
    up = np.nextafter(a, 1.0)
    for lam in (np.array([up - 2j, a + 2j]), np.array([a + 2j, up - 2j])):
        ordered = lam[modulus_order(lam)]
        assert ordered[0].imag < 0 < ordered[1].imag
    # the quadruple +-a +-ib of an even real pencil with complex mu
    quad = np.array([a + 2j, -a - 2j, up - 2j, -up + 2j])
    ordered = quad[modulus_order(quad)]
    assert [(np.sign(z.real), np.sign(z.imag)) for z in ordered] == [
        (-1, -1), (-1, 1), (1, -1), (1, 1)]


@pytest.mark.parametrize("nu, seeded", [(0.3, True), (0.3, False),
                                        (1.5, False)])
def test_eval_coeffs_batched_equals_columns(nu, seeded):
    space = Space(Order(nu), 1.0, n_cells=12, include_minus=seeded)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((space.n, 5)) + 1j * rng.standard_normal(
        (space.n, 5))
    C[0, 2] = 0.0             # a column without seed content
    x = np.concatenate([np.geomspace(1e-9, 1.0, 200), space.edges[1:]])
    batched = space.eval_coeffs(C, x)
    assert batched.shape == (x.size, 5)
    for k in range(5):
        assert np.array_equal(batched[:, k], space.eval_coeffs(C[:, k], x))
    real = C.real
    assert np.array_equal(space.eval_coeffs(real, x)[:, 1],
                          space.eval_coeffs(real[:, 1], x))
