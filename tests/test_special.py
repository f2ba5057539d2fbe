import math

import numpy as np
import pytest

from besselbvp.errors import DomainError, OverflowSignalled
from besselbvp.special import (
    BesselZeroTable,
    bessel_zeros,
    eval_I,
    eval_J,
    eval_K,
)

from reference_oracles import (
    asymptotic_K,
    newton_zero_from_series,
    series_I,
    series_J,
    series_K,
)


def test_K_half_closed_form():
    # K_{1/2}(z) = sqrt(pi/2z) e^-z
    val = eval_K(0.5, 1.0)
    assert abs(val - math.sqrt(math.pi / 2.0) * math.exp(-1.0)) < 1e-12


def test_K_complex_against_series():
    z = 0.5 + 2.0j
    val = eval_K(0.5, z)
    ref = series_K(0.5, z)
    assert abs(val - ref) / abs(ref) < 1e-10


def test_K_asymptotic_large_argument():
    val = eval_K(0.3, 10.0)
    ref = asymptotic_K(0.3, 10.0)
    assert abs(val - ref) / abs(ref) < 1e-6


def test_K_domain_and_overflow():
    with pytest.raises(DomainError):
        eval_K(0.3, -1.0)
    with pytest.raises(DomainError):
        eval_K(-0.1, 1.0)
    with pytest.raises(OverflowSignalled):
        eval_I(0.5, 50000.0)


def test_I_half_closed_form():
    val = eval_I(0.5, 1.0)
    assert abs(val - math.sqrt(2.0 / math.pi) * math.sinh(1.0)) < 1e-12


def test_I_small_argument_leading_term():
    z = 1e-6
    val = eval_I(0.7, z)
    lead = (z / 2.0) ** 0.7 / math.gamma(1.7)
    assert abs(val - lead) / lead < 1e-9


def test_I_series_cross_check():
    val = eval_I(1.0, 5.0)
    ref = series_I(1.0, 5.0)
    assert abs(val - ref) / abs(ref) < 1e-13


def test_J_half_zero_at_pi():
    assert abs(eval_J(0.5, math.pi)) < 1e-12


def test_J_first_zero_of_J0():
    assert abs(eval_J(0.0, 2.404825557695773)) < 1e-10


def test_J_series_cross_check():
    val = eval_J(0.3, 1.0)
    ref = series_J(0.3, 1.0)
    assert abs(val - ref) < 1e-12


def test_zeros_half_order_are_multiples_of_pi():
    table = bessel_zeros(0.5, 3)
    assert np.allclose(table.zeros, [math.pi, 2 * math.pi, 3 * math.pi],
                       rtol=0, atol=1e-12)


def test_zeros_newton_matches_series_oracle():
    # refine the first zero of J_0.3 with the independent series oracle
    guess = (1 + 0.15 - 0.25) * math.pi
    ref = newton_zero_from_series(0.3, guess)
    table = bessel_zeros(0.3, 1)
    assert abs(table.zeros[0] - ref) < 1e-10
    assert abs(eval_J(0.3, table.zeros[0])) < 1e-13


def test_zeros_mcmahon_gap():
    table = bessel_zeros(1.5, 30)
    gaps = np.abs(np.diff(table.zeros) - math.pi)
    assert np.all(np.diff(gaps[:5]) < 0)
    assert gaps[-1] < 1e-3


def test_zeros_interlacing():
    for nu in (0.25, 0.6, 1.2):
        a = bessel_zeros(nu, 6).zeros
        b = bessel_zeros(nu + 1.0, 6).zeros
        assert np.all(a[:-1] < b[:-1])
        assert np.all(b[:-1] < a[1:])


def test_zeros_match_mpmath_for_orders_up_to_100():
    # large orders used to skip zeros: the McMahon start overshot j_{nu,1}
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2015)
    orders = np.concatenate([[0.0, 5.5, 6.0, 10.0, 100.0],
                             rng.uniform(0.0, 100.0, 10)])
    for nu in orders:
        got = bessel_zeros(nu, 5).zeros
        want = [float(mpmath.besseljzero(mpmath.mpf(float(nu)), k))
                for k in range(1, 6)]
        assert np.allclose(got, want, rtol=1e-14, atol=0), nu


def test_zeros_match_scipy_at_integer_orders():
    from scipy.special import jn_zeros
    for nu in range(0, 101):
        assert np.allclose(bessel_zeros(nu, 12).zeros, jn_zeros(nu, 12),
                           rtol=1e-12, atol=0), nu


def test_zero_table_invariants():
    with pytest.raises(ValueError):
        BesselZeroTable(0.5, np.array([2.0, 1.0]))
    with pytest.raises(DomainError):
        bessel_zeros(0.5, 0)


def test_connection_formula_noninteger():
    rng = np.random.default_rng(5)
    for _ in range(40):
        nu = rng.uniform(0.05, 0.95)
        z = complex(rng.uniform(0.2, 5.0), rng.uniform(-1.0, 1.0))
        lhs = eval_K(nu, z)
        rhs = (math.pi / 2.0) * (eval_I(-nu + 1.0, z) * 0.0
                                 + series_I(-nu, z) - series_I(nu, z)) \
            / math.sin(math.pi * nu)
        assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_half_integer_closed_forms_match_general_path():
    for z in (0.3, 1.7, 6.0):
        assert abs(eval_K(0.5, z)
                   - math.sqrt(math.pi / (2 * z)) * math.exp(-z)) < 1e-12
        assert abs(eval_I(0.5, z)
                   - math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)) < 1e-12
        assert abs(eval_J(0.5, z)
                   - math.sqrt(2.0 / (math.pi * z)) * math.sin(z)) < 1e-12


def test_near_integer_order_stays_accurate():
    # the quotient-of-sines connection formula degenerates here; the
    # evaluation must not
    for nu in (1.0 - 5e-9, 1.0, 1.0 + 5e-9):
        v = eval_K(nu, 2.0)
        assert abs(v - eval_K(1.0, 2.0)) < 1e-7
