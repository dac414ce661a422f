import math

import numpy as np
import pytest

from levyhedge import (
    MarketQuery,
    MertonParams,
    OverflowGuardError,
    levy_sample,
    merton_i2_terms,
    mmm_quantities,
)
from levyhedge.merton import KERNEL_DAMPED, KERNEL_PLAIN
from levyhedge.oracle import (
    _i2_frequency_weight,
    i1_tail_mass,
    i2_tail_mass,
    levy_moment,
    lk_char_fn,
    merton_c1,
    merton_char_fn,
    merton_mmm_measure,
)

from conftest import trunc_points

ALPHA = 1.75
EPS = 1e-2


def _cubic_exp_moment(model: MertonParams) -> float:
    # int (e^x - 1)^3 nu(dx) in closed form
    m, d2 = model.m, model.delta**2
    return model.gamma * (
        math.exp(3 * m + 4.5 * d2)
        - 3 * math.exp(2 * m + 2 * d2)
        + 3 * math.exp(m + 0.5 * d2)
        - 1.0
    )


def test_mmm_measure_identity_when_h_zero(merton_bench):
    mixture = merton_mmm_measure(merton_bench, 0.0)
    assert mixture.components[0].intensity == merton_bench.gamma
    assert mixture.components[1].intensity == 0.0


def test_mmm_measure_benchmark_intensities(merton_bench):
    mm = mmm_quantities(merton_bench)
    mixture = merton_mmm_measure(merton_bench, mm.h)
    assert mixture.components[0].intensity == pytest.approx(0.993905, abs=1e-6)
    assert mixture.components[1].intensity == pytest.approx(0.010049, abs=1e-6)
    assert mixture.components[0].mean == 0.0
    assert mixture.components[1].mean == 1.0
    assert all(c.intensity >= 0.0 for c in mixture.components)


def test_mmm_measure_quadratic_identity(merton_bench):
    # int (e^x-1)^2 against the tilted measure equals quad - h * cubic
    mm = mmm_quantities(merton_bench)
    mixture = merton_mmm_measure(merton_bench, mm.h)
    numeric = levy_moment(mixture, lambda x: (math.exp(x) - 1.0) ** 2)
    closed = mm.quad_exp_moment - mm.h * _cubic_exp_moment(merton_bench)
    assert abs(numeric - closed) / closed < 1e-8


def test_char_fn_normalization_and_martingale(merton_bench):
    mm = mmm_quantities(merton_bench)
    for tau in (0.05, 0.5, 1.0):
        assert merton_char_fn(0.0, tau, merton_bench, mm) == pytest.approx(1.0, abs=1e-14)
        assert abs(merton_char_fn(-1j, tau, merton_bench, mm) - 1.0) < 1e-10


def test_martingale_identity_randomized(random_merton_models):
    for model in random_merton_models:
        mm = mmm_quantities(model)
        for tau in (0.05, 0.5, 1.0):
            assert abs(merton_char_fn(-1j, tau, model, mm) - 1.0) < 1e-10


def test_char_fn_vs_levy_khintchine_oracle(merton_bench):
    mm = mmm_quantities(merton_bench)
    mixture = merton_mmm_measure(merton_bench, mm.h)
    z = 1.0 - 1.75j
    closed = merton_char_fn(z, 0.5, merton_bench, mm)
    numeric = lk_char_fn(z, 0.5, mixture, mm.mu_star, merton_bench.sigma)
    assert abs(closed - numeric) / abs(numeric) < 1e-3


def test_c1_bound_property(merton_bench, random_merton_models):
    rng = np.random.default_rng(7)
    for model in [merton_bench] + random_merton_models[:3]:
        mm = mmm_quantities(model)
        for tau in (0.05, 0.5):
            c1 = merton_c1(model, mm, tau, ALPHA)
            v = rng.uniform(-500.0, 500.0, size=1000)
            phi = merton_char_fn(v - 1j * ALPHA, tau, model, mm)
            bound = c1 * np.exp(-0.5 * model.sigma**2 * v**2 * tau)
            assert np.all(np.abs(phi) <= bound * (1.0 + 1e-12))


def test_c1_small_tau_limit(merton_bench):
    mm = mmm_quantities(merton_bench)
    assert merton_c1(merton_bench, mm, 0.0, ALPHA) == 1.0
    assert merton_c1(merton_bench, mm, 1e-9, ALPHA) == pytest.approx(1.0, abs=1e-6)


def test_c1_benchmark_value(merton_bench):
    mm = mmm_quantities(merton_bench)
    c1 = merton_c1(merton_bench, mm, 0.5, ALPHA)
    assert math.isfinite(c1) and c1 > 0.0
    assert c1 == pytest.approx(3.8495, abs=1e-3)


def test_trunc_i1_benchmark_bound(merton_bench):
    a = trunc_points(merton_bench, 0.5, 1.0)[0]
    assert a <= 409.6
    assert a == pytest.approx(23.53, abs=0.05)


def test_trunc_i1_eps_quarter_power(merton_bench):
    a1 = trunc_points(merton_bench, 0.5, 1.0)[0]
    a2 = trunc_points(merton_bench, 0.5, 1.0, eps=16.0 * EPS)[0]
    assert a2 == pytest.approx(0.5 * a1, rel=1e-12)


def test_trunc_i1_tail_below_eps(merton_bench):
    query = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=2.0)
    a = trunc_points(merton_bench, 0.5, 2.0)[0]
    assert i1_tail_mass(a, query, merton_bench, ALPHA) < EPS


def test_trunc_i2_benchmark_bound(merton_bench):
    a = trunc_points(merton_bench, 0.5, 1.0)[1]
    assert a <= 409.6
    assert a == pytest.approx(26.07, abs=0.05)


def test_trunc_i2_eps_fifth_power(merton_bench):
    a1 = trunc_points(merton_bench, 0.5, 1.0)[1]
    a2 = trunc_points(merton_bench, 0.5, 1.0, eps=32.0 * EPS)[1]
    assert a2 == pytest.approx(0.5 * a1, rel=1e-12)


def test_trunc_i2_tail_below_eps(merton_bench):
    query = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    a = trunc_points(merton_bench, 0.5, 1.0)[1]
    assert i2_tail_mass(a, query, merton_bench, ALPHA) < EPS


def test_i2_terms_benchmark_values(merton_bench):
    terms = list(merton_i2_terms(merton_bench))
    coefs = [t.coefficient for t in terms]
    strikes = [t.strike for t in terms]
    kinds = [t.kernel for t in terms]
    assert coefs[0] == pytest.approx(math.exp(1.5), rel=1e-15)
    assert coefs[1] == pytest.approx(-1.0, rel=1e-15)
    assert coefs[2] == pytest.approx(1.0 - math.exp(0.5), rel=1e-15)
    assert strikes == pytest.approx([math.exp(-1.0), 1.0, 1.0])
    assert kinds == [KERNEL_DAMPED, KERNEL_DAMPED, KERNEL_PLAIN]


def test_jump_factor_is_the_shifted_terms_at_log_k(merton_bench, random_merton_models, fft_bench):
    # on the contour the jump kind is the three I2 terms moved to log K,
    # sum_t c_t s_t^{1 - i zeta} f_t call (f_t the Gaussian factor of a
    # damped term, else 1), and the oracle's frequency weight times call
    zeta = fft_bench.zeta_grid()
    iz = 1j * zeta
    for model in [merton_bench] + list(random_merton_models):
        sample = levy_sample(model, fft_bench)
        _, factors = sample.sample(0, fft_bench.n)
        call = factors["indicator"] / iz
        terms = []
        for term in merton_i2_terms(model):
            shift = np.exp((1.0 - iz) * math.log(term.strike))
            if term.kernel == KERNEL_DAMPED:
                shift = shift * np.exp(-0.5 * model.delta**2 * zeta * zeta)
            terms.append(term.coefficient * shift * call)
        # per contour point, relative to its largest term
        scale = np.max(np.abs(terms), axis=0)
        assert np.all(np.abs(factors["jump"] - sum(terms)) <= 1e-13 * scale)
        weight = _i2_frequency_weight(model, zeta)
        assert np.all(np.abs(factors["jump"] - weight * call) <= 1e-13 * scale)


def test_i2_terms_gamma_zero():
    model = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    assert all(t.coefficient == 0.0 for t in merton_i2_terms(model))


def test_overflow_guard(merton_bench):
    mm = mmm_quantities(merton_bench)
    with pytest.raises(OverflowGuardError):
        merton_char_fn(-2j, 500.0, merton_bench, mm)
    with pytest.raises(OverflowGuardError):
        merton_c1(merton_bench, mm, 1e9, ALPHA)
