import io
import math

import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import Polynomial

from besselbvp import core
from besselbvp.core import (
    BranchFunction,
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
    branch_inner,
    grid_derivative,
    traces,
    twisted_norm,
    _fornberg,
)
from besselbvp.errors import DomainError, GridTooCoarse, TraceFitError
from besselbvp.fem import lobatto_nodes
from besselbvp.quadrature import composite_rule, graded_panels
from besselbvp.solve import BesselOperator, operator_residual

from reference_oracles import (
    bessel_schroedinger_apply,
    fornberg_weights,
    loop_composite_rule,
    poly_branch_inner,
    poly_green_defect,
    poly_hardy_sides,
    poly_pair,
    poly_traces,
    poly_twisted_norm,
    quad_0_1,
    stencil_derivative,
    stencil_error_estimate,
)


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
    g = RadialGrid.build(2.5, 200)
    assert g.nodes[0] > 0
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - 2.5) < 1e-10


@pytest.mark.parametrize("edges", [
    graded_panels(2.5, 40), 2.5 * (np.arange(41) / 40) ** 3.0,
    np.linspace(0.0, 1.0, 17), graded_panels(1.0, 1)],
    ids=["geometric", "algebraic", "uniform", "one-panel"])
@pytest.mark.parametrize("order", [4, 8, 16])
def test_composite_rule_bitwise_equals_panel_loop(edges, order):
    for got, want in zip(composite_rule(edges, order),
                         loop_composite_rule(edges, order)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
# stencil derivatives against the per-node oracle
# --------------------------------------------------------------------------

STENCIL_GRIDS = {
    "uniform": lambda: RadialGrid.uniform(1.0, 256),
    "graded": lambda: RadialGrid.build(1.0, 256),
}


@pytest.mark.parametrize("kind", sorted(STENCIL_GRIDS))
@pytest.mark.parametrize("width", [5, 7, 9])
@pytest.mark.parametrize("deriv", [1, 2])
def test_stencil_weights_bitwise_equal_scalar_fornberg(kind, width, deriv):
    x = STENCIL_GRIDS[kind]().nodes
    lo = np.clip(np.arange(x.size) - width // 2, 0, x.size - width)
    idx = lo[:, None] + np.arange(width)
    got = _fornberg(x, x[idx], deriv)
    want = np.stack([fornberg_weights(x[i], x[idx[i]], deriv)
                     for i in range(x.size)])
    assert got.shape == (x.size, width, deriv + 1)
    assert np.array_equal(got, want)


# the constant width, the width - 2 of its error estimate's sweep, and the
# estimate's width at width - 2 (core.STENCIL_WIDTH patched per test)
STENCIL_WIDTHS = [core.STENCIL_WIDTH - 4, core.STENCIL_WIDTH - 2,
                  core.STENCIL_WIDTH]


@pytest.mark.parametrize("kind", sorted(STENCIL_GRIDS))
@pytest.mark.parametrize("width", STENCIL_WIDTHS)
@pytest.mark.parametrize("deriv", [1, 2])
@pytest.mark.parametrize("check", [True, False])
def test_grid_derivative_bitwise_equal_per_node_oracle(kind, width, deriv,
                                                       check, monkeypatch):
    g = STENCIL_GRIDS[kind]()
    x = g.nodes
    monkeypatch.setattr(core, "STENCIL_WIDTH", width)
    samples = [np.sin(3 * x) + 1j * x ** 0.3 * np.cos(x), np.exp(x)]
    for values in samples:
        want = stencil_derivative(x, values, deriv, width)
        estimate = stencil_error_estimate(x, values, deriv, width)
        too_coarse = (check and estimate is not None
                      and estimate > core.DERIVATIVE_CHECK_TOL)
        if too_coarse:
            with pytest.raises(GridTooCoarse):
                grid_derivative(g, values, deriv=deriv, check=check)
            continue
        got = grid_derivative(g, values, deriv=deriv, check=check)
        assert got.dtype == complex
        assert np.array_equal(got, want)


def _nine_node_grid():
    nodes = (np.arange(9) + 0.5) / 9.0
    return RadialGrid(nodes, np.full(9, 1.0 / 9.0), 1.0)


@pytest.mark.parametrize("deriv", [1, 2])
def test_grid_derivative_width_equal_to_grid_raises_typed(deriv):
    # default width 9 on 9 nodes leaves the error estimate no interior node
    g = _nine_node_grid()
    values = np.exp(g.nodes) + 0j
    with pytest.raises(GridTooCoarse):
        grid_derivative(g, values, deriv=deriv)
    got = grid_derivative(g, values, deriv=deriv, check=False)
    assert np.array_equal(got, stencil_derivative(g.nodes, values, deriv, 9))


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


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_twisted_h2_norm_of_samples_matches_the_pair(nu):
    # the sampled branch (stencil derivatives) against the pair calculus
    g = RadialGrid.uniform(1.0, 1024)
    plus = Polynomial([1.0, 0.5, -0.3]) * Polynomial([1.0, -1.0]) ** 3
    u = GridFunction.from_pair(g, nu, [], plus.coef)
    want = twisted_norm(u, 2, nu)
    got = twisted_norm(GridFunction(g, u.values), 2, nu)
    assert abs(got - want) < 1e-10 * want


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


# --------------------------------------------------------------------------
# pair calculus against the Polynomial oracle, bit for bit
# --------------------------------------------------------------------------

REGIMES = {"subcritical": (0.2, 0.8, True), "supercritical": (1.1, 1.9, False)}


def _complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _draws(regime, count=6, seed=0):
    """(nu, minus factor in x^2, plus factor) with complex coefficients and
    double zeros at x = 1; the minus branch only below nu = 1."""
    lo, hi, minus = REGIMES[regime]
    rng = np.random.default_rng([seed, lo > 1.0])
    out = []
    for _ in range(count):
        nu = rng.uniform(lo, hi)
        m = (Polynomial(_complex(rng, 2))
             * Polynomial([1.0, -1.0]) ** 2).coef if minus else []
        p = (Polynomial(_complex(rng, 3))
             * Polynomial([1.0, 0.0, -1.0]) ** 2).coef
        out.append((nu, m, p))
    return out


def _same(f, want, x):
    """Same exponents and coefficients as the oracle, and the same samples."""
    assert [e for e, _ in f.terms] == [e for e, _ in want.terms]
    for (_, c), (_, p) in zip(f.terms, want.terms):
        assert np.array_equal(c, p.coef)
    assert np.array_equal(f(x), want(x))


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_pair_algebra_bitwise_equal_polynomial_oracle(regime):
    g = grid(128)
    x = g.nodes
    rng = np.random.default_rng(5)
    draws = _draws(regime)
    for (nu, m, p), (_, m2, p2) in zip(draws, draws[::-1]):
        f = GridFunction.from_pair(g, nu, m, p).pair
        h = GridFunction.from_pair(g, nu, m2, p2).pair
        of, oh = poly_pair(nu, m, p), poly_pair(nu, m2, p2)
        q = _complex(rng, 3)
        c = complex(*rng.standard_normal(2))
        tau = rng.uniform(0.5, 2.0)
        pairs = [
            (f, of),
            (f.d_nu(nu), of.d_nu(nu)),
            (f.d_nu_star(nu), of.d_nu_star(nu)),
            (f.d_nu(nu).d_nu_star(nu), of.d_nu(nu).d_nu_star(nu)),
            (f.d_x(), of.d_x()),
            (f.times_poly(q), of.times_poly(q)),
            (f.times_poly(Polynomial([0.0, 1.0, -1.0])),
             of.times_poly(Polynomial([0.0, 1.0, -1.0]))),
            (f.scale(c), of.scale(c)),
            (f.scale(-1.0j), of.scale(-1.0j)),
            (f.dilate(tau), of.dilate(tau)),
            (f + h, of + oh),
            (f - h, of + oh.scale(-1.0)),
        ]
        for got, want in pairs:
            _same(got, want, x)
            if got.terms[0][0] + h.terms[0][0] > -1.0:   # integrable at 0
                assert branch_inner(got, h, 1.0) \
                    == poly_branch_inner(want, oh, 1.0)
        assert branch_inner(f, f, 1.0) == poly_branch_inner(of, of, 1.0)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_pair_checks_bitwise_equal_polynomial_oracle(regime):
    g = grid(128)
    stretched = grid(128, xmax=2.0)
    draws = _draws(regime, seed=1)
    for (nu, m, p), (_, m2, p2) in zip(draws, draws[::-1]):
        u = GridFunction.from_pair(g, nu, m, p, fourier_index=[2])
        v = GridFunction.from_pair(g, nu, m2, p2)
        ou, ov = poly_pair(nu, m, p), poly_pair(nu, m2, p2)
        if nu < 1.0:
            t = traces(u, nu)
            assert (t.gamma_minus, t.gamma_plus) == poly_traces(ou, nu)
        for s in (0, 1, 2):
            assert twisted_norm(u, s, nu) == poly_twisted_norm(ou, s, nu, 1.0,
                                                               4.0)
        w = dilate(u, 0.5, grid=stretched)
        _same(w.pair, ou.dilate(0.5), stretched.nodes)
        assert twisted_norm(w, 2, nu) == poly_twisted_norm(ou.dilate(0.5), 2,
                                                           nu, 2.0, 4.0)
        for op in (BesselOperator(Order(nu), a_coeff=1.0),
                   BesselOperator(Order(nu), a_coeff=0.5 + 0.2j,
                                  b_coeff=Polynomial([0.0, 1.0, -1.0]))):
            assert green_defect(op, u, v) == poly_green_defect(op, ou, ov, nu,
                                                               1.0)
        # the minus branch has no finite ||u'||: Hardy takes the plus factor
        h = GridFunction.from_pair(g, nu, [], p)
        lhs, rhs, _ = hardy_check(h, nu)
        n_dx, n_dn = poly_hardy_sides(poly_pair(nu, [], p), nu, 1.0)
        assert lhs == (4.0 * nu ** 2 * n_dx if nu < 0.5 else n_dx)
        assert rhs == n_dn


def test_green_defect_builds_only_the_operator_polynomials(monkeypatch):
    # the pair calculus runs on coefficient arrays: the only Polynomial
    # objects one green_defect builds are those a_poly / b_poly return
    built, returned = [0], [0]
    init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counted(method):
        def run(self):
            before = built[0]
            out = method(self)
            returned[0] += built[0] - before
            return out
        return run

    nu = 0.4
    g = grid(128)
    rng = np.random.default_rng(23)
    u, v = damped_pair(rng, g, nu), damped_pair(rng, g, nu)
    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    monkeypatch.setattr(BesselOperator, "a_poly",
                        counted(BesselOperator.a_poly))
    monkeypatch.setattr(BesselOperator, "b_poly",
                        counted(BesselOperator.b_poly))
    b = Polynomial([0.0, 1.0, -1.0])
    for op in (BesselOperator(Order(nu), a_coeff=1.0),
               BesselOperator(Order(nu), a_coeff=0.5 + 0.2j, b_coeff=b)):
        built[0] = returned[0] = 0
        assert green_defect(op, u, v) < 1e-7
        assert returned[0] == 2
        assert built[0] == returned[0]


# --------------------------------------------------------------------------
# stencil weights once per grid
# --------------------------------------------------------------------------

def _spy_fornberg(monkeypatch):
    calls = []
    fornberg = core._fornberg

    def spy(z, x, m):
        calls.append((x.shape[-1], m))
        return fornberg(z, x, m)

    monkeypatch.setattr(core, "_fornberg", spy)
    return calls


def test_stencil_weights_computed_once_per_grid(monkeypatch):
    calls = _spy_fornberg(monkeypatch)
    g = RadialGrid.uniform(1.0, 1024)
    u = GridFunction.from_callable(g, lambda x: np.sin(3 * x) * x ** 0.8)
    first = operator_residual(u, 0.3, 1.0)
    for q in range(1, 17):
        assert operator_residual(u, 0.3, 1.0) == first
        operator_residual(u, 0.3, q * q + 1.0)
    assert calls == [(9, 2)]

    # check=True runs widths 9 and 7, once each per grid
    values = np.exp(g.nodes) + 0j
    d1 = grid_derivative(g, values, deriv=1)
    assert calls[1:] == [(9, 1), (7, 1)]
    assert np.array_equal(grid_derivative(g, values, deriv=1), d1)
    assert len(calls) == 3

    # a second grid on the same nodes computes its own
    twin = RadialGrid(g.nodes, g.weights, g.x_max)
    assert np.array_equal(grid_derivative(twin, values, deriv=1), d1)
    assert calls[3:] == [(9, 1), (7, 1)]


@pytest.mark.parametrize("kind", sorted(STENCIL_GRIDS))
def test_interleaved_derivatives_bitwise_equal_fresh_grids(kind, monkeypatch):
    g = STENCIL_GRIDS[kind]()
    x = g.nodes
    samples = [np.sin(3 * x) + 1j * x ** 0.3 * np.cos(x), np.exp(x)]
    w9, w7, w5 = STENCIL_WIDTHS[::-1]
    for deriv, width in [(1, w9), (2, w9), (1, w7), (2, w5), (1, w9), (2, w9)]:
        monkeypatch.setattr(core, "STENCIL_WIDTH", width)
        for values in samples:
            got = grid_derivative(g, values, deriv=deriv, check=False)
            fresh = STENCIL_GRIDS[kind]()
            want = grid_derivative(fresh, values, deriv=deriv, check=False)
            assert np.array_equal(got, want)
            assert np.array_equal(
                got, stencil_derivative(x, values, deriv, width))


def test_stencil_memo_is_private_and_read_only():
    g = RadialGrid.build(1.0, 64)
    grid_derivative(g, np.exp(g.nodes), deriv=2, check=False)
    assert "_stencils" not in repr(g)
    (wts,) = g._stencils.values()
    assert wts.shape == (g.size, 9) and not wts.flags.writeable


# --------------------------------------------------------------------------
# pair-backed grid functions evaluate the pair once
# --------------------------------------------------------------------------

def test_pair_paths_evaluate_the_pair_once(monkeypatch):
    calls = [0]
    call = BranchFunction.__call__

    def spy(self, x):
        calls[0] += 1
        return call(self, x)

    monkeypatch.setattr(BranchFunction, "__call__", spy)
    nu = 0.4
    g = grid(128)
    u = GridFunction.from_pair(g, nu, [1.0, 0.5], [0.3, -0.2, 0.1])
    assert calls == [1]
    for op in (lambda w: d_nu(w, nu), lambda w: d_nu_star(w, nu),
               lambda w: bessel_schroedinger_apply(w, nu),
               lambda w: dilate(w, 0.5)):
        calls[0] = 0
        out = op(u)
        assert calls == [1]
        assert np.array_equal(out.values, call(out.pair, g.nodes))


def test_supplied_values_must_reproduce_the_pair():
    nu = 0.4
    g = grid(128)
    u = GridFunction.from_pair(g, nu, [1.0, 0.5], [0.3, -0.2, 0.1])
    same = GridFunction(g, u.values, pair=u.pair)
    assert np.array_equal(same.values, u.values)
    with pytest.raises(DomainError):
        GridFunction(g, u.values * (1 + 1e-8), pair=u.pair)
    with pytest.raises(DomainError):
        GridFunction(g)
