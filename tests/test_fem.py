"""The banded Galerkin core: cell tables, band-plus-border storage, the
bordered solve and the canonical order of pencil eigenvalues."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import reference_oracles as oracles
from besselbvp.config import DEFAULTS
from besselbvp.core import BranchFunction, Order, branch_inner
from besselbvp.errors import DomainError, SingularSystem
from besselbvp import fem
from besselbvp.fem import (BorderedBand, Space, galerkin_solve, lobatto_nodes,
                           modulus_order)
from besselbvp.modes import dirichlet_spectrum, pencil_modes
from besselbvp.solve import (BesselOperator, BVProblem, CapCondition,
                             resolvent_sweep, solve_1d,
                             solve_dirichlet_laplacian, solve_separable)
from besselbvp.symbols import BoundaryOperator, Sector


def scaled_dense(A):
    """(As, d): the dense form of A scaled to unit diagonal magnitude."""
    D = A.toarray()
    d = np.sqrt(np.abs(np.diag(D)))
    d[d == 0] = 1.0
    return D / np.outer(d, d), d


def robin_system(nu, n_cells, seeded):
    """Assembled operator with a and b terms (and a Robin corner) plus a load."""
    space = Space(Order(nu), 1.0, n_nodes=n_cells * DEFAULTS.fem_degree,
                  include_minus=seeded)
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


SEEDING = {False: "unseeded", True: "seeded"}


def random_operator(p, dtype, seeded, m=40, seed=0):
    """BorderedBand of half-bandwidth p on m Lagrange dofs (plus a seed)
    with random entries of ``dtype``; band slots outside the matrix are 0."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    band = draw(2 * p + 1, m)
    rows = np.arange(m)[None, :] + np.arange(2 * p + 1)[:, None] - p
    band[(rows < 0) | (rows >= m)] = 0.0
    if not seeded:
        return BorderedBand(band)
    return BorderedBand(band, draw(m), draw(m), draw(1)[0])


def operators_p1_to_p4():
    """Every p = 1..4, real and complex, unseeded and seeded, the
    assembled (p = 5) operators of robin_system, and zero bands (the A1 of
    the Laplace pencils; seeded, of the corner-only lambda-Robin A1)."""
    ops = [pytest.param(random_operator(p, dtype, seeded, seed=p),
                        id=f"p{p}-{dtype.__name__}-{SEEDING[seeded]}")
           for p in (1, 2, 3, 4) for dtype in (float, complex)
           for seeded in (False, True)]
    ops += [pytest.param(robin_system(0.3, 12, seeded)[1],
                         id=f"assembled-{SEEDING[seeded]}")
            for seeded in (False, True)]
    zero = [replace(A, band=np.zeros_like(A.band))
            for A in (random_operator(2, float, False, seed=7),
                      random_operator(2, complex, True, seed=7))]
    return ops + [pytest.param(A, id=f"zero-band-{SEEDING[A.seeded]}")
                  for A in zero]


@pytest.mark.parametrize("A", operators_p1_to_p4())
def test_vector_product_is_the_strided_product(A):
    # the block product kept the vector arithmetic: bitwise the oracle's
    rng = np.random.default_rng(3)
    n = A.shape[0]
    for x in (rng.standard_normal(n),
              rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        assert np.array_equal(A @ x, oracles.band_matvec(A, x))


@pytest.mark.parametrize("A", operators_p1_to_p4())
def test_block_product_equals_stacked_column_products(A):
    rng = np.random.default_rng(4)
    n, s = A.shape[0], int(A.seeded)
    for k in (1, 7):
        for X in (rng.standard_normal((n, k)),
                  rng.standard_normal((n, k))
                  + 1j * rng.standard_normal((n, k))):
            Y = A @ X
            cols = np.stack([oracles.band_matvec(A, X[:, j])
                             for j in range(k)], axis=1)
            assert Y.shape == (n, k)
            assert np.array_equal(Y[s:], cols[s:])
            if s:
                # row @ X and row @ x sum the seed row in different orders
                size = abs(A.corner) * np.abs(X[0]) + np.abs(A.row) @ np.abs(
                    X[1:])
                assert np.all(np.abs(Y[0] - cols[0]) <= 1e-15 * size)


def _layouts(rng, shape, complex_):
    """Random arrays of ``shape``: C-ordered, F-ordered, the transposed view
    of a C-ordered array, and slices of larger C- and F-ordered arrays (rows
    or columns spaced wider than their length)."""
    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    views = [draw(shape), np.asfortranarray(draw(shape))]
    if len(shape) == 2:
        m, n = shape
        views += [draw((n, m)).T, draw((m, n + 3))[:, 1:-2],
                  np.asfortranarray(draw((m + 3, n)))[2:-1]]
    return views


@pytest.mark.parametrize("shapes", [((1, 5), (5, 4)), ((40,), (40, 23)),
                                    ((23, 40), (40,)), ((7, 1), (1,)),
                                    ((31, 40), (40, 23)), ((0, 5), (5, 3)),
                                    ((120, 130), (130, 90))])
def test_scipy_blas_product_equals_numpy(shapes):
    rng = np.random.default_rng(5)
    for ca in (False, True):
        for cb in (False, True):
            for a in _layouts(rng, shapes[0], ca):
                for b in _layouts(rng, shapes[1], cb):
                    got, want = fem._matmul(a, b), a @ b
                    assert got.shape == want.shape
                    assert got.dtype == want.dtype
                    size = np.abs(a) @ np.abs(b)
                    assert np.all(np.abs(got - want) <= 1e-15 * size)


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
        space = Space(Order(0.1), 1.0, n_nodes=n)
        mats = space.matrices(a_fun=lambda x: np.ones_like(x))
        stored[n] = (mats["S"] + mats["A"]).nbytes
    assert stored[2048] < 10 * stored[256]


@pytest.mark.parametrize("nu, seeded", [(0.3, True), (0.3, False),
                                        (0.8, True), (2.5, False)])
def test_constant_coefficient_form_is_mass_multiple(nu, seeded):
    """A(c) = c M, which lets the solvers add a shift or mode as c M."""
    space = Space(Order(nu), 1.0, n_nodes=20 * DEFAULTS.fem_degree,
                  include_minus=seeded)
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
    space = Space(Order(nu), 1.0, n_nodes=12 * DEFAULTS.fem_degree,
                  include_minus=seeded)
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



def test_modulus_order_of_no_eigenvalues_is_empty():
    # once a bare ValueError ("all keys need to be the same shape")
    for lam in (np.zeros(0), np.zeros(0, dtype=complex)):
        idx = modulus_order(lam)
        assert idx.shape == (0,) and idx.dtype == np.intp
        assert lam[idx].shape == (0,)


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
    space = Space(Order(nu), 1.0, n_nodes=12 * DEFAULTS.fem_degree,
                  include_minus=seeded)
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


# --------------------------------------------------------------------------
# the origin cell: tabulated once per assembly call, bitwise equal to one
# rule at a time
# --------------------------------------------------------------------------

def same_bits(got, want):
    """Bitwise equality of arrays, scalars, BorderedBands and their
    dicts and tuples."""
    if isinstance(got, dict):
        return got.keys() == want.keys() and all(
            same_bits(got[k], want[k]) for k in got)
    if isinstance(got, (tuple, list)):
        return len(got) == len(want) and all(map(same_bits, got, want))
    if isinstance(got, BorderedBand):
        return all(same_bits(getattr(got, name), getattr(want, name))
                   for name in ("band", "row", "col", "corner"))
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


TABULATED = {
    "seeded": (0.3, {}),
    "unseeded": (0.3, {"include_minus": False}),
    "seeded-outward": (0.85, {"outward": True}),
    "supercritical": (1.6, {}),
}


@pytest.mark.parametrize("calls", ["MLN", "NLM"])
@pytest.mark.parametrize("case", list(TABULATED))
def test_origin_cell_bitwise_equals_per_beta_oracle(case, calls):
    # the rules a call tabulates depend on what earlier calls cached, so
    # both call orders are checked
    nu, kwargs = TABULATED[case]
    space = Space(Order(nu), 1.0, n_nodes=24 * DEFAULTS.fem_degree, **kwargs)
    ref = oracles.PerBetaAssembly(space)
    rng = np.random.default_rng(8)
    c = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)

    def a_fun(x):
        return 1.0 + (0.3 - 0.2j) * x ** 2

    def b_fun(x):
        return x * (1.0 - x)

    def f(x):
        return np.cos(3.0 * x) + 0.5j * x

    def g(x):
        return x ** (nu - 0.5) * f(x)

    steps = {
        "M": lambda s: (s.matrices(), s.matrices(a_fun=a_fun),
                        s.matrices(a_fun, b_fun)),
        "L": lambda s: (s.load_vector(f),
                        s.load_vector(g, singular_exponent=nu - 0.5)),
        "N": lambda s: (s.norms(c), s.norms(c, q2=1.0)),
    }
    assert space.include_minus == ("unseeded" not in case and nu < 1)
    for step in calls:
        assert same_bits(steps[step](space), steps[step](ref)), step


@pytest.mark.parametrize("case", list(TABULATED))
def test_image_tables_are_real_and_results_complex(case):
    nu, kwargs = TABULATED[case]
    space = Space(Order(nu), 1.0, n_nodes=24 * DEFAULTS.fem_degree, **kwargs)
    assert space.rho.poly.coef.dtype == np.float64
    x = np.linspace(0.0, space.edges[2], 7)
    tabs = [space._images(x, 0.0, space.edges[1]), space._bulk[2],
            space._first_rules([space._beta("d", "v")])[2]]
    assert all(tab.dtype == np.float64 for t in tabs for tab in t.values())
    mats = space.matrices(b_fun=lambda x: x)
    for A in mats.values():
        parts = (A.band, A.row, A.col, A.corner) if A.seeded else (A.band,)
        assert all(np.asarray(part).dtype == complex for part in parts)
    assert space.load_vector(np.cos).dtype == complex


def test_seeded_solve_tabulates_each_space_three_times(monkeypatch):
    # bulk, matrices and load: one _images pass each; a b term adds forms
    # but no pass, and every Gauss-Jacobi rule is computed once per Space
    images, rules = {}, []
    tabulate, jacobi = Space._images, fem.jacobi_rule

    def spy_images(self, x, a, h):
        images[id(self)] = images.get(id(self), 0) + 1
        return tabulate(self, x, a, h)

    def spy_jacobi(beta, n, a=0.0, b=1.0):
        rules.append((float(beta), b))
        return jacobi(beta, n, a, b)

    monkeypatch.setattr(Space, "_images", spy_images)
    monkeypatch.setattr(fem, "jacobi_rule", spy_jacobi)
    for b_coeff in (None, Polynomial([0.0, 1.0, -1.0])):
        images.clear()
        rules.clear()
        prob = BVProblem(
            op=BesselOperator(Order(0.35), a_coeff=1.0, b_coeff=b_coeff),
            bc0=BoundaryOperator.robin(0.35, 1.0), rhs=np.cos,
            boundary_data=0.5)
        space = solve_1d(prob, n_nodes=128).space
        assert space.include_minus
        assert images == {id(space): 3}
        h = space.edges[1]
        assert sorted(rules) == sorted((float(b), h) for b in space._rules)


def test_spaces_of_one_degree_share_read_only_lagrange_tables():
    p = DEFAULTS.fem_degree
    first = Space(Order(0.3), 1.0, n_nodes=12 * p)
    second = Space(Order(1.6), 2.0, n_nodes=30 * p, include_minus=False)
    other = Space(Order(0.3), 1.0, n_nodes=12 * (p + 1),
                  settings=DEFAULTS.with_overrides(fem_degree=p + 1))
    assert len(first._lagrange) == 3
    assert all(a is b for a, b in zip(first._lagrange, second._lagrange))
    assert other._lagrange[0].shape != first._lagrange[0].shape
    for tab in first._lagrange:
        with pytest.raises(ValueError):
            tab[0, 0] = 1.0


def _node_count_entry_points(nu=0.4):
    """Each public entry point that builds a Space, as n_nodes -> result."""
    op = BesselOperator(Order(nu), a_coeff=1.0)
    pencil = BesselOperator(Order(nu), a_coeff=0.0,
                            pencil_fourier=lambda q: (0.0, 0.0, 1.0))
    bc = BoundaryOperator.dirichlet(nu)
    f = lambda x: np.sin(np.pi * x)
    prob = BVProblem(op=op, bc0=bc, bc1=CapCondition.DIRICHLET, rhs=f,
                     boundary_data=0.0)
    return {
        "solve_1d": lambda n: solve_1d(prob, n_nodes=n),
        "solve_separable": lambda n: solve_separable(nu, op, bc, {0: f},
                                                     n_nodes=n),
        "solve_dirichlet_laplacian": lambda n: solve_dirichlet_laplacian(
            nu, 1.0, {0: f}, n_nodes=n),
        "resolvent_sweep": lambda n: resolvent_sweep(
            pencil, bc, Sector.elliptic_cone(), [4.0], n_nodes=n),
        "dirichlet_spectrum": lambda n: dirichlet_spectrum(nu, n_max=3,
                                                           n_nodes=n),
        "pencil_modes": lambda n: pencil_modes(nu, pencil, None, n_nodes=n),
    }


@pytest.mark.parametrize("n_nodes", [-5, 0, 3, 29, 30])
@pytest.mark.parametrize("entry", list(_node_count_entry_points()))
def test_node_count_below_six_cells_raises(entry, n_nodes):
    # degree 5: 30 nodes are the 6 cells of the minimum, 29 nodes are 5
    assert DEFAULTS.fem_degree * fem.MIN_CELLS == 30
    call = _node_count_entry_points()[entry]
    if n_nodes < 30:
        with pytest.raises(DomainError, match="cells"):
            call(n_nodes)
    else:
        assert call(n_nodes) is not None
