import math
import warnings

import numpy as np
import pytest

from levyhedge import (
    BranchCutError,
    FftConfig,
    MarketQuery,
    OverflowGuardError,
    VgParams,
    levy_sample,
    lrm,
    mmm_quantities,
    vg_mmm_measure,
)
from conftest import NIKKEI_SPOT, trunc_points
from levyhedge import variance_gamma
from levyhedge.core import cgm_exp_moment
from levyhedge.fft_engine import direct_simpson_sum
from levyhedge.oracle import (
    levy_moment,
    lk_char_fn,
    vg_c2,
    vg_char_fn,
    vg_exponent,
    vg_kernel,
)
from levyhedge.variance_gamma import VgContourLogs

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


def test_sample_takes_two_logs(nikkei, monkeypatch):
    # Psi and the jump factor of a contour sample share the logs of
    # P1 = (G + i zeta)(M - i zeta) and P2 = (G+1+i zeta)(M-1-i zeta), and
    # the kernel is one _log1p of P1 / P2; no complex array goes to np.log
    calls = {"log": [], "log1p": [], "np.log": []}

    def counting(name, fn):
        def counted(x, *args, **kwargs):
            if name != "np.log" or np.iscomplexobj(x):
                calls[name].append(np.size(x))
            return fn(x, *args, **kwargs)

        return counted

    monkeypatch.setattr(np, "log", counting("np.log", np.log))
    monkeypatch.setattr(variance_gamma, "_log", counting("log", variance_gamma._log))
    monkeypatch.setattr(variance_gamma, "_log1p", counting("log1p", variance_gamma._log1p))
    sample = levy_sample(nikkei, FftConfig(n=2**14, eta=0.025, alpha=ALPHA))
    for made in calls.values():
        made.clear()
    psi, factors = sample.sample(0, 2**14)
    assert calls == {"log": [2**14, 2**14], "log1p": [2**14], "np.log": []}
    assert np.all(np.isfinite(psi)) and np.all(np.isfinite(factors["jump"]))


def test_log_matches_numpy():
    # the log from real parts has np.log's values to rounding, on the
    # principal branch
    rng = np.random.default_rng(7)
    z = rng.normal(size=1000) * 10.0 ** rng.uniform(-3, 6, 1000) + 1j * rng.normal(size=1000)
    z = np.concatenate((z, -z, [-1.0 + 0j, -1.0 - 0j, 1j, -1j]))
    reference = np.log(z)
    assert np.all(np.abs(variance_gamma._log(z) - reference) <= 4e-16 * np.abs(reference) + 1e-16)


def _vg_models(nikkei, vg_bench, random_vg_models):
    return [(nikkei, NIKKEI_SPOT), (vg_bench, 1.0)] + [(m, 1.0) for m in random_vg_models]


def test_contour_logs_match_four_log_oracle(nikkei, vg_bench, random_vg_models):
    # the two product logs give the Psi and the jump factor of the
    # oracle's four separate logs, within 1e-13 of the terms the oracle
    # sums: Psi crosses near 0 on the contour, and the oracle's kernel, a
    # difference of four logs, rounds at the size of C |log| (up to 1.1e-13
    # of the jump factor on one model, where one log of P1 / P2 rounds at
    # 1e-17 of it)
    cfg = FftConfig(n=2**14, eta=0.025, alpha=ALPHA)
    zeta = cfg.zeta_grid()
    iz = 1j * zeta
    for model, _ in _vg_models(nikkei, vg_bench, random_vg_models):
        sample = levy_sample(model, cfg)
        psi, factors = sample.sample(0, cfg.n)
        pair, mu_star = vg_mmm_measure(model, sample.mmm.h), sample.mmm.mu_star
        call = 1.0 / (iz - 1.0) / iz
        C, G, M = model.C, model.G, model.M
        constant = cgm_exp_moment(C, G, M)
        jump = (vg_kernel(zeta, C, G, M) - constant) * call
        logs = C * sum(np.abs(np.log(b)) for b in (M - iz, M - 1.0 - iz, G + iz, G + 1.0 + iz))
        assert np.all(np.abs(factors["jump"] - jump) <= 1e-13 * np.abs(call) * (logs + abs(constant)))
        exponent = vg_exponent(zeta, model, pair, mu_star)
        assert np.abs(psi - exponent).max() <= 1e-13 * np.abs(exponent).max()


def test_i2_is_kernel_minus_call_transform(nikkei, vg_bench, random_vg_models):
    # I2 is one transform of the jump kind; by linearity it is the kernel
    # transform less c times the call transform, summed here apart, at the
    # stride lrm reports, from the oracle's four-log Psi and kernel.  Unit
    # spot: at its own spot Nikkei is refused at tau = 0.05
    cfg = FftConfig(n=2**14, eta=0.025, alpha=ALPHA, eps=EPS)
    spot = 1.0
    for model, _ in _vg_models(nikkei, vg_bench, random_vg_models):
        mm = mmm_quantities(model)
        pair = vg_mmm_measure(model, mm.h)
        constant = cgm_exp_moment(model.C, model.G, model.M)
        for tau in (0.05, 0.5):
            for strike in (0.8, 1.0, 1.25):
                res = lrm(MarketQuery(t=0.0, T=tau, spot=spot, strike=strike), model, cfg)
                s = res.stride
                zeta = (cfg.eta * s) * np.arange(cfg.n // s) - 1j * cfg.alpha
                iz = 1j * zeta
                phi = vg_char_fn(zeta, tau, model, pair, mm.mu_star)
                calls = phi * (np.exp(iz * math.log(spot)) / (iz - 1.0) / iz)
                kernels = calls * vg_kernel(zeta, model.C, model.G, model.M)

                def transform(x):
                    return strike * direct_simpson_sum(
                        x, cfg.alpha, cfg.eta * s, [math.log(strike)], cfg.n // s
                    )[0]

                expected = transform(kernels) - constant * transform(calls)
                assert abs(res.i2 - expected) <= 1e-13 * spot


def test_contour_logs_branch_cut_check():
    # the check reads the extremes of Im zeta: Re(M - 1 - i zeta) =
    # M - 1 + Im zeta and Re(G + i zeta) = G - Im zeta, at any one point
    G, M = 5.0, 5.0
    with pytest.raises(BranchCutError, match=r"factor M - 1 - i\*zeta: base left"):
        VgContourLogs(np.array([1.0 - 1.75j, 2.0 - 4.5j, 3.0 - 1.75j]), G, M)
    with pytest.raises(BranchCutError, match=r"factor G \+ i\*zeta: base left"):
        VgContourLogs(np.array([1.0 - 1.75j, 2.0 + 5.0j]), G, M)
    for bad in (np.array([0.5 - 1.75j, np.nan - 1.75j]), complex(np.inf, -1.75)):
        with pytest.raises(BranchCutError, match=r"factor M - i\*zeta: non-finite base"):
            VgContourLogs(bad, G, M)


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
            c2 = vg_c2(pair, mm.mu_star, tau, ALPHA)
            v = rng.uniform(1.0, 500.0, size=1000)
            phi = vg_char_fn(v - 1j * ALPHA, tau, model, pair, mm.mu_star)
            bound = c2 * np.abs(v) ** (-2.0 * model.C * tau)
            assert np.all(np.abs(phi) <= bound * (1.0 + 1e-12))


def test_c2_small_tau_limit(vg_bench):
    mm = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm.h)
    assert vg_c2(pair, mm.mu_star, 0.0, ALPHA) == 1.0


def test_trunc_benchmark_bounds(vg_bench, nikkei):
    a = trunc_points(vg_bench, 0.5, 1.0)[0]
    assert a <= 409.6
    assert a == pytest.approx(8.10, abs=0.05)

    a_n = trunc_points(nikkei, 0.5, 14000.0, 14841.07)[0]
    assert a_n <= 409.6
    assert a_n == pytest.approx(188.7, abs=0.5)


def test_trunc_eps_power_law(vg_bench):
    p = 2.0 * vg_bench.C * 0.5 + 1.0
    lam = 7.0
    a1 = trunc_points(vg_bench, 0.5, 1.0)[0]
    a2 = trunc_points(vg_bench, 0.5, 1.0, eps=EPS / lam)[0]
    assert a2 == pytest.approx(a1 * lam ** (1.0 / p), rel=1e-12)


def test_trunc_tail_below_eps(vg_bench, nikkei):
    from levyhedge import MarketQuery
    from levyhedge.oracle import i2_tail_mass

    a = trunc_points(vg_bench, 0.5, 1.0)[0]
    q = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    assert i2_tail_mass(a, q, vg_bench, ALPHA) < EPS

    a_n = trunc_points(nikkei, 0.5, 14000.0, 14841.07)[0]
    q_n = MarketQuery(t=0.5, T=1.0, spot=14841.07, strike=14000.0)
    assert i2_tail_mass(a_n, q_n, nikkei, ALPHA) < EPS


def test_nikkei_short_horizon_exceeds_span(nikkei):
    # small C means slow polynomial decay: close to expiry the sufficient
    # truncation point blows past the default span, and queries there are
    # rejected instead of silently under-truncated
    from levyhedge import FftConfig, MarketQuery, TailConditionError, lrm

    a = trunc_points(nikkei, 0.05, 14000.0, 14841.07)[0]
    assert a > 2**14 * 0.025
    cfg = FftConfig(n=2**14, eta=0.025, alpha=ALPHA, eps=EPS)
    with pytest.raises(TailConditionError):
        lrm(MarketQuery(t=0.95, T=1.0, spot=14841.07, strike=14000.0), nikkei, cfg)


def test_long_maturity_truncation_point_is_finite(nikkei, fft_bench):
    # the truncation law is taken in logs: at T = 44.4 the product
    # C C2 K^{1-alpha} S^alpha / eps overflows a double, yet the point is
    # about 25; from T = 44.45 on the C2 guard refuses the slice
    def quote(T):
        query = MarketQuery(t=0.0, T=T, spot=NIKKEI_SPOT, strike=15000.0)
        return lrm(query, nikkei, fft_bench)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quote(44.4)
    assert math.isfinite(res.trunc_a) and res.trunc_a < 30.0
    assert res.lrm == pytest.approx(quote(44.3).lrm, abs=1e-3)
    with pytest.raises(OverflowGuardError, match="C2 exponent"):
        quote(44.45)


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
