import math

import numpy as np
import pytest

from levyhedge import (
    BranchCutError,
    FftConfig,
    VgParams,
    mmm_quantities,
    vg_c2,
    vg_mmm_measure,
    vg_trunc,
)
from levyhedge import variance_gamma
from levyhedge.core import cgm_exp_moment
from levyhedge.lrm import LevySample
from levyhedge.oracle import levy_moment, lk_char_fn, vg_char_fn, vg_kernel

ALPHA = 1.75
EPS = 1e-2


def test_mmm_measure_identity_when_h_zero(vg_bench):
    pair = vg_mmm_measure(vg_bench, 0.0)
    assert pair.second.C == 0.0
    assert pair.first.C == vg_bench.C


def test_mmm_measure_nikkei_weights_and_quadratic_moment(nikkei):
    mm = mmm_quantities(nikkei)
    pair = vg_mmm_measure(nikkei, mm.h)
    assert pair.first.C >= 0.0 and pair.second.C >= 0.0
    assert pair.second.M == pytest.approx(nikkei.M - 1.0)
    assert pair.second.M - 1.0 > 3.0  # stays integrable after the tilt
    # int (e^x-1)^2 nu~ = quad - h * cubic, with the cubic from the kernel
    cubic = (
        vg_kernel(-2j, nikkei.C, nikkei.G, nikkei.M)
        - 2.0 * vg_kernel(-1j, nikkei.C, nikkei.G, nikkei.M)
        + vg_kernel(0.0, nikkei.C, nikkei.G, nikkei.M)
    ).real
    closed = mm.quad_exp_moment - mm.h * cubic
    numeric = levy_moment(pair, lambda x: (math.exp(x) - 1.0) ** 2)
    assert math.isfinite(numeric)
    assert abs(numeric - closed) / closed < 1e-8


def test_exp_moment_per_component_vs_oracle(vg_bench):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    for comp in pair.components:
        closed = cgm_exp_moment(comp.C, comp.G, comp.M)
        numeric = levy_moment(comp, lambda x: math.exp(x) - 1.0)
        assert abs(numeric - closed) <= 1e-9 * max(1.0, abs(closed))


def test_char_fn_normalization_and_martingale(vg_bench, nikkei):
    for model in (vg_bench, nikkei):
        mm = mmm_quantities(model)
        pair = vg_mmm_measure(model, mm.h)
        for tau in (0.05, 0.5, 1.0):
            assert vg_char_fn(0.0, tau, model, pair, mm.mu_star) == pytest.approx(
                1.0, abs=1e-14
            )
            assert abs(vg_char_fn(-1j, tau, model, pair, mm.mu_star) - 1.0) < 1e-10


def test_martingale_identity_randomized(random_vg_models):
    for model in random_vg_models:
        mm = mmm_quantities(model)
        pair = vg_mmm_measure(model, mm.h)
        for tau in (0.05, 0.5, 1.0):
            assert abs(vg_char_fn(-1j, tau, model, pair, mm.mu_star) - 1.0) < 1e-10


def test_char_fn_vs_levy_khintchine_oracle(vg_bench):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    z = 2.0 - 1.75j
    closed = vg_char_fn(z, 0.5, vg_bench, pair, mm.mu_star)
    numeric = lk_char_fn(z, 0.5, pair, mm.mu_star, 0.0)
    assert abs(closed - numeric) / abs(numeric) < 1e-6


def test_kernel_at_zero(vg_bench):
    val = vg_kernel(0.0, vg_bench.C, vg_bench.G, vg_bench.M)
    assert val.imag == pytest.approx(0.0, abs=1e-14)
    assert val.real == pytest.approx(
        cgm_exp_moment(vg_bench.C, vg_bench.G, vg_bench.M), rel=1e-14
    )


def test_kernel_bit_identical_on_contour(nikkei, vg_bench):
    # the shared log step keeps the kernel's own arithmetic
    zeta = FftConfig(n=2**14, eta=0.025, alpha=ALPHA).zeta_grid()
    iz = 1j * zeta
    for p in (nikkei, vg_bench):
        C, G, M = p.C, p.G, p.M
        formula = C * (
            np.log(M - iz) - np.log(M - 1.0 - iz) + np.log(G + iz) - np.log(G + 1.0 + iz)
        )
        assert np.array_equal(vg_kernel(zeta, C, G, M), formula)


def test_sample_takes_four_logs(nikkei, monkeypatch):
    # Psi and the kernel of a contour sample share M - i zeta, M-1-i zeta,
    # G + i zeta and G+1+i zeta
    calls = []
    log = variance_gamma._principal_log

    def counting_log(base, what):
        calls.append(what)
        return log(base, what)

    monkeypatch.setattr(variance_gamma, "_principal_log", counting_log)
    sample = LevySample(nikkei, FftConfig(n=2**14, eta=0.025, alpha=ALPHA), 14841.07)
    calls.clear()
    psi, factors = sample.sample(0, 2**14)
    assert len(calls) == 4
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(factors["kernel"]))


def test_kernel_vs_quadrature(nikkei):
    z = 3.0 - 1.75j
    closed = vg_kernel(z, nikkei.C, nikkei.G, nikkei.M)
    re = levy_moment(nikkei, lambda x: (np.exp(1j * z * x) * (math.exp(x) - 1.0)).real)
    im = levy_moment(nikkei, lambda x: (np.exp(1j * z * x) * (math.exp(x) - 1.0)).imag)
    assert abs(closed - complex(re, im)) / abs(closed) < 1e-8


def test_i2_weights_constant_sign(nikkei, vg_bench):
    for model in (nikkei, vg_bench):
        constant = cgm_exp_moment(model.C, model.G, model.M)
        # the constant is the first exponential moment, i.e. the drift of
        # the price SDE, nonpositive by the admissibility condition
        assert constant <= 0.0
        assert constant == pytest.approx(mmm_quantities(model).mu_s, rel=1e-14)


def test_i2_weights_symmetric_tails_positive():
    model = VgParams(kappa=0.2, m=0.0, delta=0.2)  # G == M
    assert model.G == pytest.approx(model.M, rel=1e-14)
    assert cgm_exp_moment(model.C, model.G, model.M) > 0.0


def test_c2_bound_property(vg_bench, nikkei, random_vg_models):
    rng = np.random.default_rng(11)
    for model in [vg_bench, nikkei] + random_vg_models[:3]:
        mm = mmm_quantities(model)
        pair = vg_mmm_measure(model, mm.h)
        for tau in (0.05, 0.5):
            c2 = vg_c2(model, pair, mm.mu_star, tau, ALPHA)
            v = rng.uniform(1.0, 500.0, size=1000)
            phi = vg_char_fn(v - 1j * ALPHA, tau, model, pair, mm.mu_star)
            bound = c2 * np.abs(v) ** (-2.0 * model.C * tau)
            assert np.all(np.abs(phi) <= bound * (1.0 + 1e-12))


def test_c2_small_tau_limit(vg_bench):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    assert vg_c2(vg_bench, pair, mm.mu_star, 0.0, ALPHA) == 1.0


def test_trunc_benchmark_bounds(vg_bench, nikkei):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    c2 = vg_c2(vg_bench, pair, mm.mu_star, 0.5, ALPHA)
    a = vg_trunc(EPS, 0.5, 1.0, 1.0, ALPHA, c2, vg_bench)
    assert a <= 409.6
    assert a == pytest.approx(8.10, abs=0.05)

    mm_n = mmm_quantities(nikkei)
    pair_n = vg_mmm_measure(nikkei, mm_n.h)
    c2_n = vg_c2(nikkei, pair_n, mm_n.mu_star, 0.5, ALPHA)
    a_n = vg_trunc(EPS, 0.5, 14000.0, 14841.07, ALPHA, c2_n, nikkei)
    assert a_n <= 409.6
    assert a_n == pytest.approx(188.7, abs=0.5)


def test_trunc_eps_power_law(vg_bench):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    c2 = vg_c2(vg_bench, pair, mm.mu_star, 0.5, ALPHA)
    p = 2.0 * vg_bench.C * 0.5 + 1.0
    lam = 7.0
    a1 = vg_trunc(EPS, 0.5, 1.0, 1.0, ALPHA, c2, vg_bench)
    a2 = vg_trunc(EPS / lam, 0.5, 1.0, 1.0, ALPHA, c2, vg_bench)
    assert a2 == pytest.approx(a1 * lam ** (1.0 / p), rel=1e-12)


def test_trunc_tail_below_eps(vg_bench, nikkei):
    from levyhedge import MarketQuery
    from levyhedge.oracle import i2_tail_mass

    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    c2 = vg_c2(vg_bench, pair, mm.mu_star, 0.5, ALPHA)
    a = vg_trunc(EPS, 0.5, 1.0, 1.0, ALPHA, c2, vg_bench)
    q = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    assert i2_tail_mass(a, q, vg_bench, ALPHA) < EPS

    mm_n = mmm_quantities(nikkei)
    pair_n = vg_mmm_measure(nikkei, mm_n.h)
    c2_n = vg_c2(nikkei, pair_n, mm_n.mu_star, 0.5, ALPHA)
    a_n = vg_trunc(EPS, 0.5, 14000.0, 14841.07, ALPHA, c2_n, nikkei)
    q_n = MarketQuery(t=0.5, T=1.0, spot=14841.07, strike=14000.0)
    assert i2_tail_mass(a_n, q_n, nikkei, ALPHA) < EPS


def test_nikkei_short_horizon_exceeds_span(nikkei):
    # small C means slow polynomial decay: close to expiry the sufficient
    # truncation point blows past the default span, and queries there are
    # rejected instead of silently under-truncated
    from levyhedge import FftConfig, MarketQuery, TailConditionError, lrm

    mm = mmm_quantities(nikkei)
    pair = vg_mmm_measure(nikkei, mm.h)
    c2 = vg_c2(nikkei, pair, mm.mu_star, 0.05, ALPHA)
    a = vg_trunc(EPS, 0.05, 14000.0, 14841.07, ALPHA, c2, nikkei)
    assert a > 2**14 * 0.025
    cfg = FftConfig(n=2**14, eta=0.025, alpha=ALPHA, eps=EPS)
    with pytest.raises(TailConditionError):
        lrm(MarketQuery(t=0.95, T=1.0, spot=14841.07, strike=14000.0), nikkei, cfg)


def test_branch_continuity_along_contour(nikkei, vg_bench):
    # every complex-power base stays in the right half-plane, so adjacent
    # samples can never differ by a branch jump
    cfg = FftConfig(n=2**12, eta=0.025, alpha=ALPHA)
    zeta = cfg.zeta_grid()
    iz = 1j * zeta
    for model in (nikkei, vg_bench):
        for g, m in ((model.G, model.M), (model.G + 1.0, model.M - 1.0)):
            for base in (1.0 + iz / g, 1.0 - iz / m):
                assert np.all(base.real > 0.0)
                assert np.all(np.abs(np.diff(np.angle(base))) < math.pi)


def test_branch_cut_error():
    # contour crosses the right-half-plane requirement when M - 1 < alpha
    with pytest.raises(BranchCutError):
        vg_kernel(0.0 - 1.75j, 1.0, 5.0, 2.5)


def test_char_fn_rejects_negative_tau(vg_bench):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    from levyhedge import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        vg_char_fn(0.0, -0.5, vg_bench, pair, mm.mu_star)
