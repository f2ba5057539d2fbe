import io
import math

import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import Polynomial

from besselbvp.core import (
    BranchFunction,
    DensityHint,
    GridFunction,
    Order,
    RadialGrid,
    Regime,
    d_nu,
    d_nu_star,
    dilate,
    green_defect,
    gridfunction_from_csv,
    gridfunction_to_csv,
    hardy_check,
    bessel_schroedinger_apply,
    branch_inner,
    traces,
    twisted_norm,
)
from besselbvp.errors import DomainError, GridTooCoarse, TraceFitError
from besselbvp.fem import lobatto_nodes
from besselbvp.solve import BesselOperator

from oracles import quad_0_1


def grid(n=256, xmax=1.0):
    return RadialGrid.build(xmax, n)


def damped_pair(rng, g, nu, both=True):
    """Random F_nu pair with double zeros at x = 1 (compactly supported)."""
    minus = (Polynomial(rng.standard_normal(2))
             * Polynomial([1.0, -1.0]) ** 2).coef if both else []
    plus = (Polynomial(rng.standard_normal(3))
            * Polynomial([1.0, 0.0, -1.0]) ** 2).coef
    return GridFunction.from_pair(g, nu, minus, plus)


# --------------------------------------------------------------------------
# Order / grids
# --------------------------------------------------------------------------

def test_order_regimes():
    assert Order(0.3).regime is Regime.SUBCRITICAL
    assert Order(1.0).regime is Regime.CRITICAL
    assert Order(1.7).regime is Regime.SUPERCRITICAL
    with pytest.raises(DomainError):
        Order(0.0)


def test_grid_invariants():
    for hint in DensityHint:
        g = RadialGrid.build(2.5, 200, hint=hint)
        assert g.nodes[0] > 0
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert abs(g.weights.sum() - 2.5) < 1e-10


# --------------------------------------------------------------------------
# twisted derivatives against symbolic oracles
# --------------------------------------------------------------------------

def test_d_nu_annihilates_minus_branch():
    nu = 0.35
    g = grid()
    u = GridFunction.from_pair(g, nu, [1.0], [])
    du = d_nu(u, nu)
    assert np.max(np.abs(du.values)) < 1e-12


def test_d_nu_plus_branch_closed_form():
    nu = 0.35
    g = grid()
    u = GridFunction.from_pair(g, nu, [], [1.0])
    du = d_nu(u, nu)
    ref = 2.0 * nu * g.nodes ** (nu - 0.5)
    assert np.max(np.abs(du.values - ref) / np.abs(ref)) < 1e-12


def test_d_nu_symbolic_oracle_plain():
    # u = x^{1/2+nu} e^{-x}: plain representation, stencil differentiation
    nu = 0.4
    x = sp.symbols("x", positive=True)
    expr = x ** sp.Rational(1, 2) * x ** sp.Float(nu) * sp.exp(-x)
    dnu_expr = sp.diff(expr, x) + (nu - 0.5) / x * expr
    f = sp.lambdify(x, expr, "numpy")
    df = sp.lambdify(x, sp.simplify(dnu_expr), "numpy")
    g = RadialGrid.uniform(1.0, 1024)
    u = GridFunction.from_callable(g, f)
    du = d_nu(u, nu)
    inner = g.nodes > 0.02
    scale = np.max(np.abs(df(g.nodes[inner])))
    assert np.max(np.abs(du.values[inner] - df(g.nodes[inner]))) < 1e-9 * scale


def test_d_nu_star_symbolic_oracle_on_monomials():
    nu = 0.3
    x = sp.symbols("x", positive=True)
    for expo in (sp.Rational(1, 2) - sp.Float(nu),
                 sp.Rational(1, 2) + sp.Float(nu)):
        expr = x ** expo
        ref_expr = -sp.diff(expr, x) + (nu - 0.5) / x * expr
        ref = sp.lambdify(x, sp.simplify(ref_expr), "numpy")
        g = grid(128)
        coeffs = ([1.0], []) if expo == sp.Rational(1, 2) - sp.Float(nu) \
            else ([], [1.0])
        u = GridFunction.from_pair(g, nu, *coeffs)
        got = d_nu_star(u, nu).values
        want = ref(g.nodes)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-8)) \
            < 1e-10


def test_discrete_adjoint_identity():
    # <d_nu u, v> = <u, d_nu* v> for interior-supported samples
    nu = 0.45
    g = RadialGrid.uniform(1.0, 768)
    bump = lambda x: np.exp(-1.0 / np.maximum((x - 0.2) * (0.8 - x), 1e-12)) \
        * ((x > 0.2) & (x < 0.8))
    u = GridFunction.from_callable(g, lambda x: bump(x))
    v = GridFunction.from_callable(g, lambda x: bump(x) * np.cos(3 * x))
    lhs = g.integrate(d_nu(u, nu).values * np.conj(v.values))
    rhs = g.integrate(u.values * np.conj(d_nu_star(v, nu).values))
    assert abs(lhs - rhs) < 1e-8


def test_factorization_matches_schroedinger_form():
    nu = 0.6
    g = grid(192)
    u = GridFunction.from_pair(g, nu, [1.0, 0.5], [0.3, -0.2, 0.1])
    comp = d_nu_star(d_nu(u, nu), nu)
    direct = bessel_schroedinger_apply(u, nu)
    mask = g.nodes > 1e-6
    scale = np.max(np.abs(direct.values[mask]))
    assert np.max(np.abs(comp.values[mask] - direct.values[mask])) \
        < 1e-8 * scale


def test_grid_too_coarse_diagnostic():
    nu = 0.5
    g = RadialGrid.build(1.0, 24)
    u = GridFunction.from_callable(g, lambda x: np.sin(40 * x))
    with pytest.raises(GridTooCoarse):
        d_nu(u, nu)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_twisted_norm_zero():
    g = grid(64)
    u = GridFunction(g, np.zeros(g.size))
    assert twisted_norm(u, 0, 0.5) == 0.0


def test_twisted_norm_h1_quadrature_oracle():
    # u = x^{1/2+nu} (1-x^2)^2, q = 2: norm^2 = ||u||^2 + ||d_nu u||^2 + q^2||u||^2
    nu = 0.3
    q = 2
    g = grid(256)
    plus = Polynomial([1.0]) * Polynomial([1.0, 0.0, -1.0]) ** 2
    u = GridFunction.from_pair(g, nu, [], plus.coef, fourier_index=[q])
    got = twisted_norm(u, 1, nu) ** 2

    fv = lambda x: x ** (0.5 + nu) * (1 - x ** 2) ** 2
    dv = lambda x: (0.5 + nu) * x ** (nu - 0.5) * (1 - x ** 2) ** 2 \
        + x ** (0.5 + nu) * 2 * (1 - x ** 2) * (-2 * x) \
        + (nu - 0.5) * x ** (nu - 0.5) * (1 - x ** 2) ** 2
    want = quad_0_1(lambda x: (1 + q * q) * fv(x) ** 2 + dv(x) ** 2)
    assert abs(got - want) < 1e-8 * max(want, 1.0)


def test_fourier_norm_identity_two_modes():
    # || u ||^2_{H^s} = sum_q <q>^{2s-1} || S_{1/<q>} u_q ||^2_{H^s(R_+)}
    nu = 0.35
    g = RadialGrid.build(3.0, 192)
    modes = {1: ([1.0, -0.3], [0.5, 0.2]), 4: ([0.2], [1.0, -0.1])}
    for s in (0, 1, 2):
        lhs = 0.0
        rhs = 0.0
        for q, (m, p) in modes.items():
            uq = GridFunction.from_pair(g, nu, m, p, fourier_index=[q])
            lhs += twisted_norm(uq, s, nu) ** 2
            br = math.sqrt(1.0 + q * q)
            stretched = RadialGrid.build(3.0 * br, 192)
            u0 = GridFunction.from_pair(g, nu, m, p)
            sd = dilate(u0, 1.0 / br, grid=stretched)
            rhs += br ** (2 * s - 1) * twisted_norm(sd, s, nu) ** 2
        assert abs(lhs - rhs) < 1e-8 * max(lhs, 1.0)


# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------

def test_traces_exact_pairs():
    nu = 0.3
    g = grid(128)
    u = GridFunction.from_pair(g, nu, [1.0], [])
    t = traces(u, nu)
    assert t.gamma_minus == 1.0 and t.gamma_plus == 0.0
    u = GridFunction.from_pair(g, nu, [], [1.0])
    t = traces(u, nu)
    assert t.gamma_minus == 0.0 and abs(t.gamma_plus - 2 * nu) < 1e-15


def test_traces_plain_fit_recovers_pair():
    nu = 0.42
    g = grid(256)
    exact = GridFunction.from_pair(g, nu, [2.0, -1.0], [3.0, 0.0, 1.0])
    plain = GridFunction(g, exact.values)
    t = traces(plain, nu)
    assert abs(t.gamma_minus - 2.0) < 1e-9
    assert abs(t.gamma_plus - 6.0 * nu) < 1e-8


def test_traces_requires_subcritical():
    g = grid(64)
    u = GridFunction(g, np.ones(g.size))
    with pytest.raises(DomainError):
        traces(u, 1.2)


def test_traces_fit_error_on_garbage():
    g = grid(128)
    rng = np.random.default_rng(0)
    u = GridFunction(g, rng.standard_normal(g.size))
    with pytest.raises(TraceFitError):
        traces(u, 0.5)


# --------------------------------------------------------------------------
# Green's identity and Hardy
# --------------------------------------------------------------------------

def test_green_defect_zero_inputs():
    g = grid(64)
    op = BesselOperator(Order(0.5), a_coeff=1.0)
    z = GridFunction.from_pair(g, 0.5, [], [])
    assert green_defect(op, z, z) == 0.0


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
def test_green_defect_subcritical(nu):
    g = grid(128)
    op = BesselOperator(Order(nu), a_coeff=1.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = damped_pair(rng, g, nu)
        v = damped_pair(rng, g, nu)
        assert green_defect(op, u, v) < 1e-7


@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_green_defect_supercritical_no_trace_term(nu):
    g = grid(128)
    op = BesselOperator(Order(nu), a_coeff=1.0)
    rng = np.random.default_rng(13)
    for _ in range(50):
        u = damped_pair(rng, g, nu, both=False)
        v = damped_pair(rng, g, nu, both=False)
        assert green_defect(op, u, v) < 1e-7


def test_green_defect_with_b_coefficient():
    nu = 0.4
    g = grid(128)
    op = BesselOperator(Order(nu), a_coeff=0.5 + 0.2j,
                        b_coeff=Polynomial([0.0, 1.0, -1.0]))
    rng = np.random.default_rng(17)
    for _ in range(10):
        u = damped_pair(rng, g, nu)
        v = damped_pair(rng, g, nu)
        assert green_defect(op, u, v) < 1e-7


def test_hardy_zero():
    g = grid(64)
    u = GridFunction(g, np.zeros(g.size))
    lhs, rhs, ok = hardy_check(u, 0.3)
    assert lhs == 0.0 and rhs == 0.0 and ok


def test_hardy_small_nu_example():
    nu = 0.3
    g = RadialGrid.uniform(1.0, 512)
    u = GridFunction.from_callable(g, lambda x: x ** 2 * (1 - x) ** 2)
    lhs, rhs, ok = hardy_check(u, nu)
    ref_dx = quad_0_1(lambda x: (2 * x * (1 - x) ** 2
                                 - 2 * x ** 2 * (1 - x)) ** 2)
    assert ok
    assert abs(lhs - 4 * nu ** 2 * ref_dx) < 1e-6


def test_hardy_large_nu_branch():
    g = RadialGrid.uniform(1.0, 512)
    u = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x) * x)
    lhs, rhs, ok = hardy_check(u, 0.7)
    assert ok and lhs <= rhs


@pytest.mark.parametrize("nu", [0.2, 0.4, 0.6, 0.9, 1.3])
def test_hardy_random_samples(nu):
    g = grid(160)
    rng = np.random.default_rng(int(nu * 100))
    for _ in range(100):
        coeffs = rng.standard_normal(3)
        base = Polynomial(coeffs) * Polynomial([0, 0, 1]) \
            * Polynomial([1, -1]) ** 2
        u = GridFunction.from_pair(g, nu, [], base.coef)
        lhs, rhs, ok = hardy_check(u, nu)
        assert ok


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------

def test_csv_round_trip():
    g = grid(96)
    u = GridFunction.from_callable(g, lambda x: np.exp(1j * x))
    buf = io.StringIO()
    gridfunction_to_csv(u, buf)
    buf.seek(0)
    header = buf.readline().strip()
    assert header == "x,value_re,value_im"
    buf.seek(0)
    v = gridfunction_from_csv(buf, grid=g)
    assert np.allclose(v.values, u.values, rtol=0, atol=0)


def test_csv_header_mandatory():
    with pytest.raises(DomainError):
        gridfunction_from_csv(io.StringIO("0.5,1.0,0.0\n"))


def test_branch_inner_multiplies_the_factors_at_the_nodes():
    # <t^0.8 P0, t^0.8 P0> on (0, 1), P0 the degree-5 Lobatto Lagrange
    # function of node 0 (nu = 0.3), against exact moments of the same
    # floating-point polynomial; forming P0^2 in the monomial basis first
    # cancels to ~4e-10 relative
    mpmath = pytest.importorskip("mpmath")
    nodes = lobatto_nodes(5)
    p0 = Polynomial.fromroots(nodes[1:]) / np.prod(nodes[0] - nodes[1:])
    f = BranchFunction([(0.8, p0)])
    with mpmath.workdps(40):
        c = [mpmath.mpf(float(v)) for v in p0.coef]
        e = 2 * mpmath.mpf(0.8) + 1
        exact = float(sum(c[i] * c[j] / (e + i + j)
                          for i in range(6) for j in range(6)))
    assert abs(branch_inner(f, f, 1.0) - exact) <= 1e-11 * exact
