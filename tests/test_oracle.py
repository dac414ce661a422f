import math

import numpy as np
import pytest

from levyhedge import MarketQuery, MertonParams, mmm_quantities
from levyhedge.oracle import (
    QuadratureConvergenceError,
    QuadratureSpec,
    _quad,
    levy_moment,
    lk_char_fn,
    merton_mmm_measure,
    naive_dft,
    oracle_lrm,
    quad_full_line,
    quad_half_line,
    quad_i1,
    quad_i2_definition,
)


def test_naive_dft_delta():
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    assert np.allclose(naive_dft(x), np.ones(8), atol=1e-14)


def test_naive_dft_linearity():
    rng = np.random.default_rng(41)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    y = rng.normal(size=32) + 1j * rng.normal(size=32)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    lhs = naive_dft(a * x + b * y)
    rhs = a * naive_dft(x) + b * naive_dft(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_finite_quadrature_analytic():
    # int_0^inf e^{-v^2/2} cos(b v) dv = sqrt(pi/2) e^{-b^2/2}
    b = 1.3
    val = _quad(lambda v: math.exp(-0.5 * v * v) * math.cos(b * v), 0.0, 40.0,
                QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13))
    assert val == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-0.5 * b * b), abs=1e-10)


def test_substituted_domains_analytic():
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13)
    gauss = quad_full_line(lambda x: math.exp(-0.5 * x * x), spec)
    assert gauss == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)
    expo = quad_half_line(lambda x: math.exp(-2.0 * x), spec)
    assert expo == pytest.approx(0.5, rel=1e-10)


def test_levy_moment_merton_analytic(merton_bench):
    closed = merton_bench.gamma * (math.exp(merton_bench.m + 0.5 * merton_bench.delta**2) - 1.0)
    numeric = levy_moment(merton_bench, lambda x: math.exp(x) - 1.0)
    assert numeric == pytest.approx(closed, rel=1e-10)


def test_quad_i1_far_otm_vanishes(merton_bench):
    q = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1e5)
    assert abs(quad_i1(q, merton_bench)) < 1e-3


def test_quad_i2_zero_without_jumps():
    model = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    q = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    assert quad_i2_definition(q, model) == 0.0


def test_lk_char_fn_basics(merton_bench):
    mm = mmm_quantities(merton_bench)
    mix = merton_mmm_measure(merton_bench, mm.h)
    assert lk_char_fn(0.0, 0.5, mix, mm.mu_star, merton_bench.sigma) == pytest.approx(
        1.0, abs=1e-9
    )
    assert lk_char_fn(-1j, 0.5, mix, mm.mu_star, merton_bench.sigma) == pytest.approx(
        1.0, abs=1e-6
    )


def test_oracle_lrm_regression(merton_bench, vg_bench):
    q = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    assert oracle_lrm(q, merton_bench) == pytest.approx(0.93069067, abs=1e-6)
    assert oracle_lrm(q, vg_bench) == pytest.approx(0.56144959, abs=1e-6)


def test_quadrature_convergence_error():
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=3)
    with pytest.raises(QuadratureConvergenceError):
        _quad(lambda v: math.sin(503.0 * v) * math.cos(17.0 * v), 0.0, 50.0, spec)


def test_closed_char_fns_vs_lk_randomized(random_merton_models, random_vg_models):
    from levyhedge.oracle import merton_char_fn, vg_char_fn
    from levyhedge.variance_gamma import vg_mmm_measure

    z = 1.4 - 1.5j
    for model in random_merton_models[:3]:
        mm = mmm_quantities(model)
        mix = merton_mmm_measure(model, mm.h)
        closed = merton_char_fn(z, 0.4, model, mm)
        numeric = lk_char_fn(z, 0.4, mix, mm.mu_star, model.sigma)
        assert abs(closed - numeric) / abs(numeric) < 1e-6
    for model in random_vg_models[:3]:
        mm = mmm_quantities(model)
        pair = vg_mmm_measure(model, mm.h)
        closed = vg_char_fn(z, 0.4, model, pair, mm.mu_star)
        numeric = lk_char_fn(z, 0.4, pair, mm.mu_star, 0.0)
        assert abs(closed - numeric) / abs(numeric) < 1e-6
