import io

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import besselbvp.solve
from besselbvp import symbols
from besselbvp.core import (
    GridFunction,
    Order,
    RadialGrid,
    gridfunction_from_csv,
    traces,
    twisted_norm,
)
from besselbvp.errors import (
    DomainError,
    RegularityViolated,
    SingularSystem,
    SpectralParameterOnCut,
)
from besselbvp.fem import Space
from besselbvp.modes import dirichlet_spectrum
from besselbvp.quadrature import composite_rule
from besselbvp.solve import (
    BesselOperator,
    BVProblem,
    CapCondition,
    operator_residual,
    poisson_lift,
    poisson_lift_profile,
    regularity_check,
    resolvent_sweep,
    solve_1d,
    solve_dirichlet_laplacian,
    solve_separable,
)
from besselbvp.special import bessel_zeros
from besselbvp.symbols import (
    BoundaryOperator,
    BoundarySymbol,
    LinearSymbol,
    Sector,
    decaying_root,
    lopatinskii_sweep,
    mode_solution,
    mode_traces,
)

import scipy.special as ss

import reference_oracles as oracles
from reference_oracles import dense_galerkin_solve, robin_interval


def h1_error(sol, exact_vals, nu):
    diff = GridFunction(sol.u.grid, sol.u.values - exact_vals)
    return twisted_norm(diff, 1, nu)


def manufactured_plus(nu, a=1.0, k=4.0):
    """u* = x^{1/2+nu} (1-x)^2 cos(k x) and f = (|D_nu|^2 + a) u*."""
    def F(x):
        return (1 - x) ** 2 * np.cos(k * x)

    def F1(x):
        return -2 * (1 - x) * np.cos(k * x) - k * (1 - x) ** 2 * np.sin(k * x)

    def F2(x):
        return (2 * np.cos(k * x) + 4 * k * (1 - x) * np.sin(k * x)
                - k * k * (1 - x) ** 2 * np.cos(k * x))

    def ustar(x):
        return x ** (0.5 + nu) * F(x)

    def f(x):
        return (-x ** (0.5 + nu) * F2(x)
                - (1 + 2 * nu) * x ** (nu - 0.5) * F1(x)
                + a * x ** (0.5 + nu) * F(x))

    return ustar, f


# --------------------------------------------------------------------------
# solve_1d
# --------------------------------------------------------------------------

def test_halfline_dirichlet_matches_bessel_oracle():
    nu = 0.3
    op = BesselOperator(Order(nu), a_coeff=1.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DECAY, rhs=0.0, boundary_data=1.0)
    sol = solve_1d(prob, n_nodes=768)
    oracle = mode_solution(nu, -1.0j, grid=sol.u.grid)
    assert h1_error(sol, oracle.profile.values, nu) < 1e-7
    assert np.max(np.abs(sol.u.values - oracle.profile.values)) < 1e-8
    assert abs(sol.traces.gamma_plus - oracle.traces.gamma_plus) < 1e-7


def test_halfline_truncation_monitor():
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=1.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DECAY, rhs=0.0, boundary_data=1.0)
    sol = solve_1d(prob, n_nodes=256)
    assert sol.truncation_estimate is not None
    assert sol.truncation_estimate < 1e-4


def test_manufactured_exact_representation():
    # u* = x^{1/2+nu}(1-x)^2 lies in the trial space: error at rounding level
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=1.0)
    ustar = lambda x: x ** (0.5 + nu) * (1 - x) ** 2
    f = lambda x: (-2 * x ** (0.5 + nu)
                   - (1 + 2 * nu) * x ** (nu - 0.5) * (-2 * (1 - x))
                   + x ** (0.5 + nu) * (1 - x) ** 2)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DIRICHLET, rhs=f, boundary_data=0.0,
                     rhs_singular_exponent=nu - 0.5)
    sol = solve_1d(prob, n_nodes=128)
    assert np.max(np.abs(sol.u.values - ustar(sol.u.grid.nodes))) < 1e-10
    assert sol.residual_norm < 1e-7
    # traces: gamma_- = 0, gamma_+ = 2 nu * F(0) = 2 nu
    assert abs(sol.traces.gamma_minus) < 1e-10
    assert abs(sol.traces.gamma_plus - 2 * nu) < 1e-8


def test_manufactured_convergence_order():
    nu = 0.4
    ustar, f = manufactured_plus(nu)
    op = BesselOperator(Order(nu), a_coeff=1.0)
    errs = []
    for n in (64, 128, 256):
        prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                         bc1=CapCondition.DIRICHLET, rhs=f,
                         boundary_data=0.0, rhs_singular_exponent=nu - 0.5)
        sol = solve_1d(prob, n_nodes=n)
        errs.append(h1_error(sol, ustar(sol.u.grid.nodes), nu))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[0] > errs[1] > errs[2]
    assert min(orders) >= 2.0
    assert errs[-1] < 1e-7


def test_homogeneous_problem_is_zero():
    nu = 0.6
    op = BesselOperator(Order(nu), a_coeff=2.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.robin(nu, 1.0),
                     bc1=CapCondition.DIRICHLET, rhs=0.0, boundary_data=0.0)
    sol = solve_1d(prob, n_nodes=128)
    assert np.max(np.abs(sol.u.values)) < 1e-10


def test_robin_halfline_matches_scaled_mode():
    nu, beta, g = 0.4, 0.7, 1.0
    op = BesselOperator(Order(nu), a_coeff=1.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.robin(nu, beta),
                     bc1=CapCondition.DECAY, rhs=0.0, boundary_data=g)
    sol = solve_1d(prob, n_nodes=1024)
    closed = mode_traces(nu, -1.0j)
    c = g / (closed.gamma_plus + beta)
    oracle = mode_solution(nu, -1.0j, grid=sol.u.grid)
    assert np.max(np.abs(sol.u.values - c * oracle.profile.values)) < 2e-6


def robin_data_problem(nu, a, beta, g, rhs=0.0, sing_exp=0.0):
    op = BesselOperator(Order(nu), a_coeff=a)
    return BVProblem(op=op, bc0=BoundaryOperator.robin(nu, beta),
                     bc1=CapCondition.DIRICHLET, rhs=rhs, boundary_data=g,
                     rhs_singular_exponent=sing_exp)


def test_robin_data_residual_is_scale_invariant():
    # f = 0: the residual is relative to the operator terms, not absolute,
    # so scaling the data scales the solution and leaves the residual alone
    small = solve_1d(robin_data_problem(0.1, 1.0, 1.0, 1.0), n_nodes=256)
    large = solve_1d(robin_data_problem(0.1, 1.0, 1.0, 1000.0), n_nodes=256)
    assert small.residual_norm < 1e-2
    assert abs(large.residual_norm - small.residual_norm) \
        <= 1e-6 * small.residual_norm
    assert np.max(np.abs(large.u.values - 1000.0 * small.u.values)) \
        <= 1e-9 * np.max(np.abs(large.u.values))


@pytest.mark.parametrize("a, n", [(1e4, 64), (1e6, 32)])
def test_unresolved_robin_data_still_raises(a, n):
    for g in (1.0, 1000.0):
        with pytest.raises(SingularSystem):
            solve_1d(robin_data_problem(0.1, a, 1.0, g), n_nodes=n)


def test_robin_data_at_2048_meets_ladder_tolerances():
    # u = u* + w: manufactured part (gamma_- = 0, gamma_+ = 2 nu) plus the
    # homogeneous Robin solution carrying the remaining data
    nu, a, beta, g = 0.1, 1.3, 1.2, 1.1
    ustar, f = manufactured_plus(nu, a=a, k=3.0)
    sol = solve_1d(robin_data_problem(nu, a, beta, g, rhs=f,
                                      sing_exp=nu - 0.5), n_nodes=2048)
    gm, gp, w = robin_interval(nu, a, beta, g - 2 * nu)
    x = sol.u.grid.nodes
    idx = np.unique(np.linspace(0, x.size - 1, 12).astype(int))
    exact = w(x[idx]) + ustar(x[idx])
    assert np.max(np.abs(sol.u.values[idx] - exact)) < 2e-6
    assert abs(sol.traces.gamma_plus - (gp + 2 * nu)) < 1e-7
    assert abs(sol.traces.gamma_minus - gm) < 1e-9


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("nu", [0.7, 0.8, 0.9, 0.95])
def test_dirichlet_gamma_plus_near_order_one(nu, n):
    ustar, f = manufactured_plus(nu, a=1.0, k=3.0)
    op = BesselOperator(Order(nu), a_coeff=1.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DIRICHLET, rhs=f, boundary_data=0.0,
                     rhs_singular_exponent=nu - 0.5)
    sol = solve_1d(prob, n_nodes=n)
    assert abs(sol.traces.gamma_plus - 2 * nu) < 1e-8


def oracle_cases():
    ustar, f = manufactured_plus(0.4)
    yield "dirichlet", BVProblem(
        op=BesselOperator(Order(0.4), a_coeff=1.0),
        bc0=BoundaryOperator.dirichlet(0.4), rhs=f, boundary_data=0.0,
        rhs_singular_exponent=-0.1)
    yield "robin", robin_data_problem(0.3, 2.0, 0.7, 1.5)
    yield "decay", BVProblem(
        op=BesselOperator(Order(0.3), a_coeff=1.0),
        bc0=BoundaryOperator.dirichlet(0.3), bc1=CapCondition.DECAY,
        rhs=0.0, boundary_data=1.0)
    ustar, f = manufactured_plus(1.5)
    yield "supercritical", BVProblem(
        op=BesselOperator(Order(1.5), a_coeff=1.0), rhs=f,
        rhs_singular_exponent=1.0)
    yield "b_coeff", BVProblem(
        op=BesselOperator(Order(0.35), a_coeff=1.0,
                          b_coeff=Polynomial([0.0, 1.0, -1.0])),
        bc0=BoundaryOperator.robin(0.35, 1.0), rhs=lambda x: np.cos(x),
        boundary_data=0.5)


@pytest.mark.parametrize("name, prob", list(oracle_cases()))
def test_solve_matches_dense_oracle(name, prob, monkeypatch):
    # values on the output grid and traces agree; raw coefficients of the
    # graded tail may legitimately differ between the two solvers.  n = 128
    # is the smallest size at which every case passes the residual gate.
    sol = solve_1d(prob, n_nodes=128)
    monkeypatch.setattr(besselbvp.solve, "galerkin_solve",
                        dense_galerkin_solve)
    ref = solve_1d(prob, n_nodes=128)
    scale = np.max(np.abs(ref.u.values))
    assert np.max(np.abs(sol.u.values - ref.u.values)) <= 1e-10 * scale
    if ref.traces is not None:
        for got, want in ((sol.traces.gamma_minus, ref.traces.gamma_minus),
                          (sol.traces.gamma_plus, ref.traces.gamma_plus)):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_supercritical_needs_no_boundary_condition():
    nu = 1.5
    op = BesselOperator(Order(nu), a_coeff=1.0)
    with pytest.raises(DomainError):
        BVProblem(op=op, bc0=BoundaryOperator.dirichlet(0.5))
    ustar = lambda x: x ** (0.5 + nu) * (1 - x) ** 2
    f = lambda x: (-2 * x ** (0.5 + nu)
                   - (1 + 2 * nu) * x ** (nu - 0.5) * (-2 * (1 - x))
                   + x ** (0.5 + nu) * (1 - x) ** 2)
    prob = BVProblem(op=op, bc1=CapCondition.DIRICHLET, rhs=f,
                     rhs_singular_exponent=nu - 0.5)
    sol = solve_1d(prob, n_nodes=128)
    assert np.max(np.abs(sol.u.values - ustar(sol.u.grid.nodes))) < 1e-9


def test_regularity_refused_on_cut():
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=-1.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DECAY)
    with pytest.raises(RegularityViolated):
        solve_1d(prob)


def test_regularity_refused_for_singular_boundary_pair():
    # T = gamma_+ - gamma_+(mode) gamma_- annihilates the decaying solution
    nu = 0.35
    closed = mode_traces(nu, -1.0j)
    bad = BoundaryOperator.robin(nu, -closed.gamma_plus)
    op = BesselOperator(Order(nu), a_coeff=1.0)
    prob = BVProblem(op=op, bc0=bad, bc1=CapCondition.DECAY,
                     boundary_data=1.0)
    with pytest.raises(RegularityViolated) as err:
        solve_1d(prob)
    assert err.value.sample is not None


def test_regularity_refuses_a_rounding_singular_robin_row():
    # a scalar row is judged against |t_-||gamma_-| + |t_+||gamma_+|, a
    # size its own cancellation cannot shrink: beta = -gamma_+ (1 + 1e-15)
    # annihilates the decaying mode to rounding and is refused
    nu = 0.3
    gp = mode_traces(nu, decaying_root(1.0)).gamma_plus
    for beta in (-gp, -gp * (1.0 + 1e-15)):
        with pytest.raises(RegularityViolated):
            regularity_check(nu, 1.0, BoundaryOperator.robin(nu, beta))
    regularity_check(nu, 1.0, BoundaryOperator.robin(nu, -gp * (1.0 + 1e-6)))


def test_regularity_check_reads_the_lopatinskii_threshold(monkeypatch):
    # the solvers and lopatinskii_verdict judge the determinant by the one
    # constant symbols.LOPATINSKII_REL_TOL: raising it refuses a row that
    # 1e-10 accepts
    nu = 0.3
    gp = mode_traces(nu, decaying_root(1.0)).gamma_plus
    row = BoundaryOperator.robin(nu, -gp * (1.0 + 1e-6))
    assert symbols.LOPATINSKII_REL_TOL == 1e-10
    regularity_check(nu, 1.0, row)
    monkeypatch.setattr(symbols, "LOPATINSKII_REL_TOL", 1e-3)
    with pytest.raises(RegularityViolated):
        regularity_check(nu, 1.0, row)


def test_subcritical_requires_bc():
    op = BesselOperator(Order(0.5), a_coeff=1.0)
    with pytest.raises(DomainError):
        BVProblem(op=op)


def test_b_coefficient_must_vanish_at_origin():
    with pytest.raises(DomainError):
        BesselOperator(Order(0.5), b_coeff=lambda x: np.ones_like(x))
    for b in (0.5, -1e-3j, np.float64(2.0)):
        with pytest.raises(DomainError, match="vanish"):
            BesselOperator(Order(0.3), a_coeff=1.0, b_coeff=b)


@pytest.mark.parametrize("zero", [0, 0.0, 0j, np.float64(0.0)])
def test_zero_constant_b_is_no_b_term(zero, monkeypatch):
    nu = 0.35
    op = BesselOperator(Order(nu), a_coeff=1.0, b_coeff=zero)
    assert op.b_coeff is None and op.b_poly() is None
    forms = []
    matrices = Space.matrices

    def spy(self, a_fun=None, b_fun=None):
        forms.append(b_fun)
        return matrices(self, a_fun, b_fun)

    monkeypatch.setattr(Space, "matrices", spy)
    sols = [solve_1d(BVProblem(op=o, bc0=BoundaryOperator.robin(nu, 0.7),
                               rhs=np.cos, boundary_data=0.5), n_nodes=128)
            for o in (op, BesselOperator(Order(nu), a_coeff=1.0))]
    assert forms == [None, None]
    assert np.array_equal(sols[0].coeffs, sols[1].coeffs)
    assert sols[0].residual_norm == sols[1].residual_norm
    assert sols[0].traces == sols[1].traces


def spy_matrices(monkeypatch):
    """(calls, results) of Space.matrices: its (a_fun, b_fun), its dicts."""
    calls, results = [], []
    matrices = Space.matrices

    def spy(self, a_fun=None, b_fun=None):
        calls.append((a_fun, b_fun))
        results.append(matrices(self, a_fun, b_fun))
        return results[-1]

    monkeypatch.setattr(Space, "matrices", spy)
    return calls, results


def same_operator(A, B):
    return A.toarray().tobytes() == B.toarray().tobytes()


@pytest.mark.parametrize("seeded", [True, False])
@pytest.mark.parametrize("a", [0.0, 1.3, 0.5 - 0.2j])
def test_constant_a_enters_as_mass_multiple(a, seeded, monkeypatch):
    space = Space(Order(0.3), 1.0, n_nodes=96, include_minus=seeded)
    calls, results = spy_matrices(monkeypatch)
    base, M = BesselOperator(Order(0.3), a_coeff=a).forms(space)
    assert calls == [(None, None)]
    mats = results[0]
    assert sorted(mats) == ["M", "S"] and M is mats["M"]
    assert base is mats["S"] if a == 0 else \
        same_operator(base, mats["S"] + a * mats["M"])


@pytest.mark.parametrize("a", [Polynomial([1.0, 0.5]),
                               lambda x: 1.0 + 0.5j * x])
def test_callable_a_keeps_its_quadrature_form(a, monkeypatch):
    space = Space(Order(0.3), 1.0, n_nodes=96)
    b = Polynomial([0.0, 1.0, -1.0])
    calls, results = spy_matrices(monkeypatch)
    base, _ = BesselOperator(Order(0.3), a_coeff=a, b_coeff=b).forms(space)
    assert len(calls) == 1 and calls[0][0] is a and calls[0][1] is b
    mats = results[0]
    assert sorted(mats) == ["A", "B", "M", "S"]
    assert same_operator(base, mats["S"] + mats["A"] + mats["B"])


def residual_cases():
    """(name, op, c, space, coeffs, rhs) of solved problems on seeded and
    unseeded spaces, with and without f and a b term."""
    b = Polynomial([0.0, 1.0, -1.0])
    for nu, bc in ((0.35, BoundaryOperator.robin(0.35, 0.7)), (1.5, None)):
        tag = "seeded" if bc else "unseeded"
        for rhs, b_coeff in ((np.cos, None), (np.cos, b), (0.0, None),
                             (0.0, b)):
            if rhs == 0.0 and bc is None:
                continue            # the solution would be 0
            op = BesselOperator(Order(nu), a_coeff=1.3, b_coeff=b_coeff)
            sol = solve_1d(BVProblem(op=op, bc0=bc, rhs=rhs,
                                     boundary_data=0.5 if bc else 0.0,
                                     fourier_index=1), n_nodes=128)
            assert sol.space.include_minus == (bc is not None)
            name = f"{tag}-f{'=0' if rhs == 0.0 else ''}-b{b_coeff is b}"
            yield name, op, 1.0, sol.space, sol.coeffs, rhs
    # f = 0 on an unseeded space: a Dirichlet eigenvector, (|D|^2 + 1 -
    # lam) u = 0
    for nu in (0.35, 1.5):
        modes = dirichlet_spectrum(nu, n_max=2, n_nodes=128)
        assert not modes.space.include_minus
        yield (f"unseeded-eigvec-{nu}", BesselOperator(Order(nu), a_coeff=1.0),
               -modes.eigenvalues[0], modes.space, modes.coeffs[:, 0], 0.0)


@pytest.mark.parametrize("case", list(residual_cases()), ids=lambda c: c[0])
def test_one_pass_residual_equals_multipass_oracle(case):
    _, op, c, space, coeffs, rhs = case
    got = besselbvp.solve._residual(
        space, op, c, coeffs, space.sample(besselbvp.solve._as_callable(rhs)))
    want = oracles.multipass_residual(space, op, c, coeffs, rhs)
    assert 0.0 < got < 1e-2
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# --------------------------------------------------------------------------
# Dirichlet Laplacian
# --------------------------------------------------------------------------

def test_dirichlet_laplacian_eigenfunction_scaling():
    nu = 0.3
    j1 = bessel_zeros(nu, 1).zeros[0]
    f = lambda x: np.sqrt(x) * ss.jv(nu, j1 * x)
    sols = solve_dirichlet_laplacian(nu, 1.0, {0: f}, n_nodes=256)
    sol = sols[0]
    want = f(sol.u.grid.nodes) / (1.0 + j1 ** 2)
    assert np.max(np.abs(sol.u.values - want)) < 1e-10
    assert sol.residual_norm < 1e-8


def test_dirichlet_laplacian_zero_rhs():
    sols = solve_dirichlet_laplacian(0.7, 2.0, {0: lambda x: 0.0 * x})
    assert np.max(np.abs(sols[0].u.values)) == 0.0


def test_dirichlet_laplacian_coercivity():
    nu = 0.5
    rng = np.random.default_rng(3)
    c = rng.standard_normal(5)
    f = lambda x: sum(ck * np.sin((k + 1) * np.pi * x)
                      for k, ck in enumerate(c))
    sols = solve_dirichlet_laplacian(nu, 2.0, {0: f}, n_nodes=768)
    sol = sols[0]
    assert sol.residual_norm < 1e-8
    # <(L+2)u, u> = <f, u> has positive real part by coercivity
    val = sol.u.grid.integrate(f(sol.u.grid.nodes) * np.conj(sol.u.values))
    assert val.real > 0


def test_dirichlet_laplacian_gates_the_residual():
    # sin(300 x) is far below the resolution of 32 nodes: the strong
    # residual is about 0.9, and the solve must refuse it as solve_1d does
    with pytest.raises(SingularSystem, match="strong residual"):
        solve_dirichlet_laplacian(0.4, 1.0, {0: lambda x: np.sin(300 * x)},
                                  n_nodes=32)


def test_dirichlet_laplacian_rejects_cut():
    with pytest.raises(SpectralParameterOnCut):
        solve_dirichlet_laplacian(0.5, -3.0, {0: lambda x: x})


# --------------------------------------------------------------------------
# separable solves
# --------------------------------------------------------------------------

def test_separable_mode_zero_matches_1d():
    # every mode of the shared Space matches its own solve_1d
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=1.0)
    bc = BoundaryOperator.dirichlet(nu)
    f0 = lambda x: np.sin(np.pi * x)
    sep = solve_separable(nu, op, bc, {q: f0 for q in (0, 1, 3)}, n_nodes=128)
    for q in (0, 1, 3):
        prob = BVProblem(op=op, bc0=bc, bc1=CapCondition.DIRICHLET, rhs=f0,
                         fourier_index=q)
        direct = solve_1d(prob, n_nodes=128)
        assert np.max(np.abs(sep.modes[q].u.values - direct.u.values)) < 1e-12


def test_separable_eigenfunction_mode():
    # Delta_nu + 1 with rhs = eigenfunction at (q=1, first zero)
    nu = 0.5
    j1 = bessel_zeros(nu, 1).zeros[0]
    op = BesselOperator(Order(nu), a_coeff=1.0)
    bc = BoundaryOperator.dirichlet(nu)
    f = lambda x: np.sqrt(x) * ss.jv(nu, j1 * x)
    sep = solve_separable(nu, op, bc, {1: f}, n_nodes=256)
    sol = sep.modes[1]
    lam = 1.0 + 1.0 + j1 ** 2
    assert np.max(np.abs(sol.u.values - f(sol.u.grid.nodes) / lam)) < 1e-9


def test_separable_manufactured_two_modes():
    nu = 0.35
    op = BesselOperator(Order(nu), a_coeff=1.0)
    bc = BoundaryOperator.dirichlet(nu)
    parts = {}
    rhs = {}
    for q, amp in ((0, 1.0), (2, 0.5)):
        ustar, f = manufactured_plus(nu, a=1.0 + q * q)
        parts[q] = (amp, ustar)
        rhs[q] = (lambda fq, s: (lambda x: s * fq(x)))(f, amp)
    sep = solve_separable(nu, op, bc, rhs, n_nodes=256)
    for q, (amp, ustar) in parts.items():
        sol = sep.modes[q]
        err = h1_error(sol, amp * ustar(sol.u.grid.nodes), nu)
        assert err < 1e-7
    ys = np.array([0.3])
    xs = np.array([0.5])
    synth = sep.synthesize(xs, ys)
    want = sum(amp * ustar(xs) * np.exp(1j * q * ys)
               for q, (amp, ustar) in parts.items())
    assert abs(synth[0] - want[0]) < 1e-7


def test_separable_reports_offending_mode():
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=0.0,
                        pencil_fourier=lambda q: (q * q - 4.0, 0.0, 1.0))
    bc = BoundaryOperator.dirichlet(nu)
    with pytest.raises(RegularityViolated) as err:
        solve_separable(nu, op, bc, {q: (lambda x: x) for q in (0, 1, 2, 3)})
    assert err.value.sample["q"] in (0, 1, 2)


@pytest.mark.parametrize("nu, bc0", [
    (0.3, None), (1.5, BoundaryOperator.dirichlet(0.3))])
def test_separable_validates_bc0_before_the_modes(nu, bc0):
    # bc0 meets BVProblem's rule before the regularity check reads it
    op = BesselOperator(Order(nu), a_coeff=1.0)
    with pytest.raises(DomainError, match="boundary condition"):
        solve_separable(nu, op, bc0, {0: lambda x: x}, n_nodes=64)


def test_separable_condition_uniformity():
    nu = 0.3
    op = BesselOperator(Order(nu), a_coeff=1.0)
    bc = BoundaryOperator.dirichlet(nu)
    rhs = {q: (lambda x: np.sin(np.pi * x)) for q in (0, 1, 2, 4, 8, 16, 32, 64)}
    sep = solve_separable(nu, op, bc, rhs, n_nodes=96)
    assert sep.condition_spread < 10.0


# --------------------------------------------------------------------------
# rows with auxiliary unknowns, and rows read at eta = q
# --------------------------------------------------------------------------

def aux_row(nu):
    """T u + C u_ = g with the rows 0.7 gamma_- + gamma_+ + u_ = g_0 and
    gamma_- - u_ = g_1: their sum is the Robin row 1.7 gamma_- + gamma_+ =
    g_0 + g_1, and u_ = gamma_- - g_1."""
    return BoundaryOperator.make(
        nu, (LinearSymbol(const=0.7), LinearSymbol(const=1.0)),
        (LinearSymbol(const=1.0), LinearSymbol()), C=[[1.0], [-1.0]])


def assert_same_traces(got, want, tol=1e-12):
    for a, b in ((got.gamma_minus, want.gamma_minus),
                 (got.gamma_plus, want.gamma_plus)):
        assert abs(a - b) <= tol * max(1.0, abs(b))


def assert_aux_fits_both_rows(sol, g1, g=0.7):
    # u_ fits both rows in least squares: u_ = gamma_- - g_1 - d / 2, d the
    # defect of the discrete traces in the reduced (natural) Robin row
    gm, gp = sol.traces.gamma_minus, sol.traces.gamma_plus
    d = 1.7 * gm + gp - g
    assert abs(d) < 1e-6
    assert abs(sol.aux[0] - (gm - g1 - d / 2)) < 1e-12


def test_auxiliary_row_solve_equals_reduced_robin():
    nu = 0.3
    op = BesselOperator(Order(nu), a_coeff=1.0)
    sol = solve_1d(BVProblem(op=op, bc0=aux_row(nu), rhs=0.0,
                             boundary_data=(0.5, 0.2)))
    ref = solve_1d(BVProblem(op=op, bc0=BoundaryOperator.robin(nu, 1.7),
                             rhs=0.0, boundary_data=0.7))
    assert_same_traces(sol.traces, ref.traces)
    assert sol.aux.shape == (1,)
    assert_aux_fits_both_rows(sol, 0.2)
    for dim_eta in (1, 2):
        sym = BoundarySymbol.laplace(dim_eta)
        assert lopatinskii_sweep(nu, sym, aux_row(nu)).all_pass


def test_auxiliary_row_separable_reads_boundary_data_per_mode():
    nu = 0.3
    op = BesselOperator(Order(nu), a_coeff=1.0)
    rhs = {q: (lambda x: np.sin(np.pi * x)) for q in (0, 2)}
    data = {0: (0.5, 0.2), 2: (1.0, -0.3)}
    sep = solve_separable(nu, op, aux_row(nu), rhs, boundary_data=data)
    ref = solve_separable(nu, op, BoundaryOperator.robin(nu, 1.7), rhs,
                          boundary_data={q: sum(g) for q, g in data.items()})
    for q, (g0, g1) in data.items():
        sol = sep.modes[q]
        assert_same_traces(sol.traces, ref.modes[q].traces)
        assert_aux_fits_both_rows(sol, g1, g0 + g1)


# gamma_+ + sum_j c_j eta_j gamma_- read at eta = q is the Robin row with
# beta = c . q; read at eta = 0 it would be the Neumann row
OBLIQUE_AT_Q = [((1j,), (3.0,), 3j), ((1j, -1j), (3.0, 1.0), 2j)]


@pytest.mark.parametrize("coeffs, q, beta", OBLIQUE_AT_Q)
def test_oblique_row_is_read_at_eta_q(coeffs, q, beta):
    nu = 0.3
    oblique = BoundaryOperator.oblique(nu, coeffs)
    robin = BoundaryOperator.robin(nu, beta)
    op = BesselOperator(Order(nu))

    def decay(bc):
        return solve_1d(BVProblem(op=op, bc0=bc, bc1=CapCondition.DECAY,
                                  rhs=0.0, boundary_data=1.0,
                                  fourier_index=q), n_nodes=256)

    got, want = decay(oblique), decay(robin)
    assert_same_traces(got.traces, want.traces)
    neumann = decay(BoundaryOperator.neumann(nu))
    assert abs(got.traces.gamma_minus - neumann.traces.gamma_minus) > 0.1

    rhs = {q: (lambda x: np.sin(np.pi * x))}
    got = solve_separable(nu, op, oblique, rhs, n_nodes=128)
    want = solve_separable(nu, op, robin, rhs, n_nodes=128)
    assert_same_traces(got.modes[q].traces, want.modes[q].traces)

    sweep = [resolvent_sweep(op, bc, Sector.elliptic_cone(), [4.0, 8.0],
                             q=q, n_nodes=128) for bc in (oblique, robin)]
    for g, w in zip(*(rep.rows for rep in sweep)):
        assert abs(g["ratio"] - w["ratio"]) <= 1e-12 * w["ratio"]


def test_eta_row_without_matching_q_raises_domain_error():
    nu = 0.3
    op = BesselOperator(Order(nu), a_coeff=1.0)
    rhs = lambda x: np.sin(np.pi * x)  # noqa: E731
    for coeffs, q in (((1j,), None), ((1j, -1j), None),
                      ((1j, -1j), (3.0,)), ((1j,), (3.0, 1.0))):
        bc = BoundaryOperator.oblique(nu, coeffs)
        with pytest.raises(DomainError):
            solve_1d(BVProblem(op=op, bc0=bc, rhs=rhs, fourier_index=q),
                     n_nodes=128)
        with pytest.raises(DomainError):
            resolvent_sweep(op, bc, Sector.elliptic_cone(), [4.0], q=q,
                            n_nodes=128)
        if q is not None:
            with pytest.raises(DomainError):
                solve_separable(nu, op, bc, {q: rhs}, n_nodes=128)


# --------------------------------------------------------------------------
# multi-mode solves: each rhs sampled once, the modes finished as one block
# --------------------------------------------------------------------------

def counted(f):
    """(f, sizes): f, recording the size of each point array it reads."""
    sizes = []

    def wrapped(x):
        sizes.append(np.size(x))
        return f(x)

    return wrapped, sizes


def test_rhs_is_sampled_once_for_the_load_and_the_gate():
    # the load vector and the residual gate read one sampling of f: the
    # cell-0 nodes, then the bulk nodes (the gate's window is part of them)
    nu = 0.35
    f, sizes = counted(np.cos)
    op = BesselOperator(Order(nu), a_coeff=1.3)
    bc = BoundaryOperator.robin(nu, 0.7)
    sol = solve_1d(BVProblem(op=op, bc0=bc, rhs=f, boundary_data=0.5),
                   n_nodes=512)
    nodes = [sol.space._origin[0].size, sol.space._bulk[0].size]
    assert sizes == nodes
    # the samples give the gate the residual a fresh call of f gives
    resid = besselbvp.solve._residual(sol.space, op, 0.0, sol.coeffs,
                                      sol.space.sample(np.cos))
    assert np.float64(sol.residual_norm).tobytes() == \
        np.float64(resid).tobytes()
    for solver in (
            lambda modes: solve_dirichlet_laplacian(nu, 1.0, modes,
                                                    n_nodes=128),
            lambda modes: solve_separable(nu, op, bc, modes, n_nodes=128)):
        sizes.clear()
        solver({q: f for q in range(3)})
        assert len(sizes) == 6 and sizes == sizes[:2] * 3


def test_synthesize_equals_the_per_mode_sum():
    nu = 0.35
    op = BesselOperator(Order(nu), a_coeff=1.0)
    rhs = {q: (lambda k: lambda x: np.sin(np.pi * x) * (1.0 + k * x))(q)
           for q in (3, 0, 1)}
    sep = solve_separable(nu, op, BoundaryOperator.dirichlet(nu), rhs,
                          n_nodes=128)
    x = np.linspace(0.01, 1.0, 37)[:, None]
    y = np.linspace(0.0, 2.0 * np.pi, 5)[None]
    want = np.zeros((37, 5), dtype=complex)
    for q, sol in sep.modes.items():
        want = want + sol.space.eval_coeffs(sol.coeffs, x) * np.exp(
            1j * float(q) * y)
    got = sep.synthesize(x, y)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the block is read on one Space: a mode from another mesh is refused
    other = solve_separable(nu, op, BoundaryOperator.dirichlet(nu),
                            {2: rhs[3]}, n_nodes=64)
    mixed = besselbvp.solve.SeparableSolution(
        {**sep.modes, **other.modes}, sep.condition_spread)
    with pytest.raises(DomainError, match="one Space"):
        mixed.synthesize(x, y)


def test_multi_mode_gate_raises_the_first_failing_mode():
    # each mode is gated right after its own solve, in mode order, so a
    # multi-mode call raises what its first failing mode raises alone
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=1.0)
    bc = BoundaryOperator.dirichlet(nu)
    smooth = lambda x: np.sin(np.pi * x)
    rough = {1: lambda x: np.sin(300 * x), 2: lambda x: np.sin(200 * x)}
    for solver in (
            lambda modes: solve_dirichlet_laplacian(nu, 1.0, modes,
                                                    n_nodes=32),
            lambda modes: solve_separable(nu, op, bc, modes, n_nodes=32)):
        messages = {}
        for q, f in rough.items():
            with pytest.raises(SingularSystem, match="strong residual") as e:
                solver({q: f})
            messages[q] = str(e.value)
        assert messages[1] != messages[2]
        with pytest.raises(SingularSystem) as err:
            solver({0: smooth, **rough})
        assert str(err.value) == messages[1]


def test_resolvent_sweep_takes_its_norms_as_one_block(monkeypatch):
    calls = []
    norms = Space.norms

    def recorded(self, coeffs, q2=0.0):
        calls.append((self, coeffs, q2))
        return norms(self, coeffs, q2=q2)

    monkeypatch.setattr(Space, "norms", recorded)
    nu, radii = 0.3, [4.0, 8.0, 16.0, 32.0]
    rep = resolvent_sweep(pencil_op(nu), BoundaryOperator.dirichlet(nu),
                          Sector.elliptic_cone(), radii, q=1, n_nodes=96)
    (space, block, q2), = calls
    assert block.shape == (space.n, len(radii)) and q2 == 1.0
    # each row reads as it did when every radius took its own norms
    f = besselbvp.solve._random_smooth_rhs(space.x_max, 0)
    x, w = composite_rule(space.edges, space.degree + 8)
    fnorm = np.sqrt(np.sum(w * np.abs(f(x)) ** 2))
    for row, column in zip(rep.rows, block.T):
        h0, h1, h2 = norms(space, column, q2=q2)
        al = abs(row["lambda"])
        want = np.sqrt(al ** 4 * h0 + al ** 2 * h1 + h2) / fnorm
        assert not row["singular"]
        assert np.float64(row["ratio"]).tobytes() == np.float64(want).tobytes()


# --------------------------------------------------------------------------
# Poisson lifts
# --------------------------------------------------------------------------

def test_poisson_lift_residuals_and_interpolation():
    nu = 0.3
    grid = RadialGrid.uniform(1.0, 1024)
    at0 = poisson_lift(nu, "at_zero", {q: 1.0 for q in range(17)}, grid=grid)
    for q, gf in at0.items():
        assert operator_residual(gf, nu, 1.0 + q * q) < 1e-8
        prof = poisson_lift_profile(nu, "at_zero", q)
        assert abs(prof(np.array([1.0]))[0]) < 1e-9
    tr = traces(at0[3], nu)
    assert abs(tr.gamma_minus - 1.0) < 1e-9


def test_operator_residual_empty_window_raises_domain_error():
    # a CSV grid with no node in the window (0.05, 0.95) x_max
    rows = "x,value_re,value_im\n" + "".join(
        f"{x},1.0,0.0\n" for x in (0.01, 0.02, 0.98, 0.99))
    gf = gridfunction_from_csv(io.StringIO(rows))
    with pytest.raises(DomainError):
        operator_residual(gf, 0.3, 1.0)


def test_poisson_lift_at_one():
    nu = 0.5
    grid = RadialGrid.uniform(1.0, 1024)
    lifts = poisson_lift(nu, "at_one", {0: 1.0}, grid=grid)
    gf = lifts[0]
    assert operator_residual(gf, nu, 1.0) < 1e-8
    prof = poisson_lift_profile(nu, "at_one", 0)
    assert abs(prof(np.array([1.0]))[0] - 1.0) < 1e-12
    tr = traces(gf, nu)
    assert abs(tr.gamma_minus) < 1e-9


def test_poisson_lift_large_mode_overflow_safe():
    prof = poisson_lift_profile(0.4, "at_one", 4000)
    vals = prof(np.linspace(0.01, 1.0, 50))
    assert np.all(np.isfinite(vals))
    assert abs(vals[-1] - 1.0) < 1e-10


def test_poisson_lift_at_zero_requires_subcritical():
    with pytest.raises(DomainError):
        poisson_lift_profile(1.2, "at_zero", 0)


def test_traces_of_lift_recover_data():
    nu = 0.45
    lifts = poisson_lift(nu, "at_zero", {0: 2.5}, n_nodes=512)
    tr = traces(lifts[0], nu)
    assert abs(tr.gamma_minus - 2.5) < 1e-9


# --------------------------------------------------------------------------
# resolvent sweep
# --------------------------------------------------------------------------

def pencil_op(nu):
    return BesselOperator(Order(nu), a_coeff=0.0,
                          pencil_fourier=lambda q: (0.0, 0.0, 1.0))


def test_resolvent_sweep_elliptic_sector_bounded():
    rep = resolvent_sweep(pencil_op(0.3), None, Sector.elliptic_cone(),
                          [4.0, 8.0, 16.0, 32.0], n_nodes=128)
    ratios = rep.ratios()
    assert len(ratios) == 4
    assert rep.bounded
    for a, b in zip(ratios, ratios[1:]):
        assert b <= 1.1 * a


def test_resolvent_sweep_flags_eigenvalue():
    nu = 0.4
    j1 = bessel_zeros(nu, 1).zeros[0]
    rep = resolvent_sweep(pencil_op(nu), None, Sector.imaginary_axis(),
                          [j1], n_nodes=128)
    assert rep.rows[0]["singular"]


def test_resolvent_sweep_zero_radius_plain_solve():
    rep = resolvent_sweep(pencil_op(0.5), None, Sector.elliptic_cone(),
                          [0.0, 4.0], n_nodes=96)
    assert not rep.rows[0]["singular"]


def test_resolvent_sweep_reads_fourier_symbol(monkeypatch):
    # mode q = 1 of A(q) = q^2 + 3 is the q-free operator with a = 4, and
    # its norm weighs H^1 and H^2 by 1 + |q|^2 = 2: the q-free sweep solves
    # the same systems, and reads the same ratios once its norm is
    # evaluated at q2 = 1
    nu, radii = 0.3, [4.0, 8.0, 16.0]
    bc = BoundaryOperator.dirichlet(nu)
    sym = BesselOperator(Order(nu),
                         pencil_fourier=lambda q: (q * q + 3.0, 0.0, 1.0))
    plain = BesselOperator(Order(nu), a_coeff=4.0)
    got = resolvent_sweep(sym, bc, Sector.elliptic_cone(), radii, q=1,
                          n_nodes=128)
    at_q0 = resolvent_sweep(plain, bc, Sector.elliptic_cone(), radii,
                            n_nodes=128)
    norms = Space.norms
    monkeypatch.setattr(Space, "norms",
                        lambda self, coeffs, q2=0.0: norms(self, coeffs, 1.0))
    want = resolvent_sweep(plain, bc, Sector.elliptic_cone(), radii,
                           n_nodes=128)
    for g, w, w0 in zip(got.rows, want.rows, at_q0.rows):
        assert abs(g["ratio"] - w["ratio"]) <= 1e-12 * w["ratio"]
        assert abs(g["condition"] - w0["condition"]) <= 1e-12 * w0["condition"]
        assert g["ratio"] > (1.0 + 1e-6) * w0["ratio"]


def test_resolvent_sweep_evaluates_lambda_rows_at_lambda():
    # the row gamma_+ + c lambda gamma_- at radius r is the Robin row with
    # beta = c lambda(r), not the Neumann row it reads as at lambda = 0
    nu, c, radii = 0.3, 0.5, [4.0, 8.0, 16.0]
    sector = Sector.elliptic_cone()
    rep = resolvent_sweep(pencil_op(nu), BoundaryOperator.lambda_robin(nu, c),
                          sector, radii, n_nodes=128)
    neumann = resolvent_sweep(pencil_op(nu), BoundaryOperator.neumann(nu),
                              sector, radii, n_nodes=128)
    for row, nrow in zip(rep.rows, neumann.rows):
        robin = BoundaryOperator.robin(nu, c * row["lambda"])
        (want,) = resolvent_sweep(pencil_op(nu), robin, sector,
                                  [row["radius"]], n_nodes=128).rows
        assert want["lambda"] == row["lambda"]
        for key in ("ratio", "condition"):
            assert abs(row[key] - want[key]) <= 1e-12 * want[key]
        assert abs(row["ratio"] - nrow["ratio"]) > 1e-6 * nrow["ratio"]


@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_resolvent_sweep_refuses_a_row_at_nu_one_or_above(nu,
                                                         assembly_counts):
    # refused up front, as solve_1d and solve_separable refuse it, before
    # any assembly
    with pytest.raises(DomainError,
                       match="no boundary conditions are admissible"):
        resolvent_sweep(pencil_op(nu), BoundaryOperator.dirichlet(nu),
                        Sector.elliptic_cone(), [4.0], n_nodes=96)
    assert assembly_counts == {"Space": 0, "matrices": 0}


@pytest.fixture
def assembly_counts(monkeypatch):
    """Counts of Space constructions and Space.matrices calls."""
    counts = {"Space": 0, "matrices": 0}
    init, matrices = Space.__init__, Space.matrices

    def counted_init(self, *args, **kwargs):
        counts["Space"] += 1
        init(self, *args, **kwargs)

    def counted_matrices(self, *args, **kwargs):
        counts["matrices"] += 1
        return matrices(self, *args, **kwargs)

    monkeypatch.setattr(Space, "__init__", counted_init)
    monkeypatch.setattr(Space, "matrices", counted_matrices)
    return counts


@pytest.mark.parametrize("solver", ["resolvent_sweep", "solve_separable",
                                    "solve_dirichlet_laplacian"])
def test_operator_assembled_once_per_call(solver, assembly_counts):
    nu = 0.4
    bc = BoundaryOperator.dirichlet(nu)
    f = lambda x: np.sin(np.pi * x)
    if solver == "resolvent_sweep":
        resolvent_sweep(pencil_op(nu), bc, Sector.elliptic_cone(),
                        [4.0, 8.0, 16.0, 32.0], n_nodes=96)
    elif solver == "solve_separable":
        solve_separable(nu, BesselOperator(Order(nu), a_coeff=1.0), bc,
                        {q: f for q in range(4)}, n_nodes=96)
    else:
        solve_dirichlet_laplacian(nu, 1.0, {q: f for q in range(3)},
                                  n_nodes=96)
    assert assembly_counts == {"Space": 1, "matrices": 1}
