import numpy as np
import pytest

from besselbvp.core import TAIL_CORRECTIONS, GridFunction, Order, RadialGrid
from besselbvp.errors import DomainError, IllConditionedFit
from besselbvp.expansion import (
    expansion_consistency,
    fit_expansion,
    indicial,
)
from besselbvp.solve import (
    BesselOperator,
    BVProblem,
    CapCondition,
    solve_1d,
    solve_dirichlet_laplacian,
)
from besselbvp.symbols import BoundaryOperator, mode_solution, mode_traces


def test_indicial_roots_and_resonance():
    d = indicial(0.5)
    assert d.roots == (0.0, -1.0) and not d.resonant
    d = indicial(1.5)
    assert d.roots == (1.0, -2.0) and d.resonant
    d = indicial(1.0)
    assert d.roots == (0.5, -1.5) and not d.resonant
    d = indicial(2.5)
    assert d.resonant


def test_resonance_flag_threshold():
    assert indicial(1.5 + 4e-9).resonant
    assert not indicial(1.5 + 6e-9).resonant


# 0.3207 and 0.4657 are orders whose exponents 1/2 +- nu do not survive
# rounding to 12 decimals
@pytest.mark.parametrize("nu", [0.3, 0.32065554546143155, 0.465747239934316,
                                0.482], ids=["0.3", "0.3207", "0.4657", "0.482"])
def test_fit_exact_basis_members(nu):
    g = RadialGrid.build(1.0, 256)
    u = GridFunction.from_pair(g, nu, [3.0], [5.0])
    assert [e for e, _ in u.pair.terms] == [0.5 - nu, 0.5 + nu]
    fit = fit_expansion(GridFunction(g, u.values), nu)
    assert abs(fit.g_minus - 3.0) < 1e-10
    assert abs(fit.g_plus - 5.0) < 1e-10
    assert fit.fit_residual < 1e-12


def test_fit_mode_solution_traces():
    nu = 0.25
    ms = mode_solution(nu, -1.0j)
    fit = fit_expansion(ms.profile, nu)
    closed = mode_traces(nu, -1.0j)
    assert abs(fit.g_minus - 1.0) < 1e-7
    assert abs(2 * nu * fit.g_plus - closed.gamma_plus) < 1e-7
    assert fit.g_log == 0.0


def test_fit_resonant_log_coefficient():
    nu = 1.5
    g = RadialGrid.build(1.0, 256)
    x = g.nodes
    vals = x ** (0.5 + nu) * (2.0 + 0.3 * x ** 2) \
        + 0.7 * x ** (0.5 + nu) * np.log(x)
    u = GridFunction(g, vals)
    fit = fit_expansion(u, nu)
    assert abs(fit.g_log - 0.7) < 1e-6
    assert abs(fit.g_plus - 2.0) < 1e-6


def test_nonresonant_near_resonance_degrades_gracefully():
    # without the log regressor the model residual degrades but stays tame
    g = RadialGrid.build(1.0, 256)
    x = g.nodes
    for nu in (1.5 - 1e-3, 1.5 + 1e-3):
        assert not indicial(nu).resonant
        vals = x ** (0.5 + nu) * (2.0 + 0.3 * x ** 2) \
            + 0.7 * x ** (0.5 + 1.5) * np.log(x)
        fit = fit_expansion(GridFunction(g, vals), nu)
        assert fit.g_log == 0.0
        assert 1e-8 < fit.fit_residual < 1e-2


def test_window_robustness():
    nu = 0.4
    ms = mode_solution(nu, -0.5 - 1.0j)
    fit1 = fit_expansion(ms.profile, nu)
    lo, hi = fit1.window
    fit2 = fit_expansion(ms.profile, nu, window=(lo, (lo + hi) / 2.0))
    tol = max(10.0 * (fit1.fit_residual + fit2.fit_residual), 1e-10) \
        * max(1.0, abs(fit1.g_plus))
    assert abs(fit1.g_minus - fit2.g_minus) <= tol
    assert abs(fit1.g_plus - fit2.g_plus) <= tol


def test_fit_window_needs_nodes():
    nu = 0.4
    g = RadialGrid.build(1.0, 64)
    u = GridFunction.from_pair(g, nu, [1.0], [1.0])
    with pytest.raises(DomainError):
        fit_expansion(u, nu, window=(0.9, 0.95))


def test_negative_corrections_are_refused():
    # -1 once raised a bare IndexError from an empty regressor set; None
    # once read the count from the settings
    nu = 0.3
    g = RadialGrid.build(1.0, 256)
    u = GridFunction(g, GridFunction.from_pair(g, nu, [3.0], [5.0]).values)
    for bad in (-1, None, 2.5, True):
        with pytest.raises(DomainError, match="corrections"):
            fit_expansion(u, nu, corrections=bad)
    # no corrections fits the two bare branch powers
    fit = fit_expansion(u, nu, corrections=0)
    assert abs(fit.g_minus - 3.0) < 1e-10
    assert abs(fit.g_plus - 5.0) < 1e-10
    assert fit_expansion(u, nu) == fit_expansion(u, nu,
                                                 corrections=TAIL_CORRECTIONS)
    # four per branch leave the Gram condition above the cap
    with pytest.raises(IllConditionedFit):
        fit_expansion(u, nu, corrections=4)


def test_ill_conditioned_fit_near_zero_order():
    # at nu ~ 0 the two branches x^{1/2 +- nu} collide; over a narrow window
    # the Gram matrix degenerates and the fit refuses
    nu = 0.005
    g = RadialGrid.uniform(1.0, 512)
    u = GridFunction.from_pair(g, nu, [1.0], [1.0])
    with pytest.raises(IllConditionedFit):
        fit_expansion(GridFunction(g, u.values), nu, window=(0.05, 0.2))


def test_expansion_consistency_on_solves():
    nu = 0.4
    op = BesselOperator(Order(nu), a_coeff=1.0)
    # homogeneous problem with Dirichlet data
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DIRICHLET, rhs=0.0, boundary_data=1.0)
    sol = solve_1d(prob, n_nodes=256)
    assert expansion_consistency(sol, nu) < 1e-6

    # manufactured x^{1/2+nu} (1-x)^2: g_- = 0, 2 nu g_+ = 2 nu
    f = lambda x: (-2 * x ** (0.5 + nu)
                   - (1 + 2 * nu) * x ** (nu - 0.5) * (-2 * (1 - x))
                   + x ** (0.5 + nu) * (1 - x) ** 2)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DIRICHLET, rhs=f, boundary_data=0.0,
                     rhs_singular_exponent=nu - 0.5)
    sol = solve_1d(prob, n_nodes=256)
    # (1-x)^2 carries an odd x-power: the general-parity corrections model it
    fit = fit_expansion(sol.u, nu, parity="general")
    assert abs(fit.g_minus) < 1e-6
    assert abs(2 * nu * fit.g_plus - 2 * nu) < 1e-6


def test_expansion_consistency_zero():
    nu = 0.3
    op = BesselOperator(Order(nu), a_coeff=1.0)
    prob = BVProblem(op=op, bc0=BoundaryOperator.dirichlet(nu),
                     bc1=CapCondition.DIRICHLET, rhs=0.0, boundary_data=0.0)
    sol = solve_1d(prob, n_nodes=128)
    assert expansion_consistency(sol, nu) < 1e-12


def test_expansion_consistency_needs_discrete_traces():
    # a fit of u compared with traces(u) would compare the one fit with itself
    nu = 0.4
    sols = solve_dirichlet_laplacian(
        nu, 1.0, {0: lambda x: x ** (0.5 + nu) * (1 - x)}, n_nodes=128)
    assert sols[0].traces is None
    with pytest.raises(DomainError, match="discrete traces"):
        expansion_consistency(sols[0], nu)
