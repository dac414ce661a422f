import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyhedge
from levyhedge import (
    FftConfig,
    InvalidParameterError,
    MarketQuery,
    MertonParams,
    ModelMismatchError,
    MoneynessQuery,
    OverflowGuardError,
    TailConditionError,
    i1,
    i2,
    jump_impact,
    lrm,
    lrm_by_moneyness,
    lrm_strike_sweep,
)
from levyhedge.core import levy_char_fn
from levyhedge.fft_engine import (
    alias_log_factor,
    coarsest_shift,
    direct_simpson_sum,
    trapezoid_weights,
)
from levyhedge.lrm import MODE_DIRECT_SUM, MODE_FFT_GRID, LevySample, TransformContext
from levyhedge.merton import (
    ROUNDING,
    merton_alias_profile,
    merton_exponent,
    merton_i2_terms,
    merton_log_c1,
    merton_prefix_tail,
)
from levyhedge.oracle import oracle_lrm, quad_i1, quad_i2_definition
from levyhedge.variance_gamma import vg_alias_profile

from conftest import NIKKEI_SPOT


def _q(t: float, strike: float, spot: float = 1.0, T: float = 1.0) -> MarketQuery:
    return MarketQuery(t=t, T=T, spot=spot, strike=strike)


def test_i1_deep_itm_tends_to_spot(merton_bench, fft_bench):
    val = i1(_q(0.5, 1e-3), merton_bench, fft_bench)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_i1_decreases_to_zero_otm(merton_bench, fft_bench):
    vals = [
        i1(_q(0.5, k), merton_bench, fft_bench)
        for k in (1.0, 4.0, 16.0, 256.0, 1e6)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0.0 for v in vals)  # expectation of a nonnegative payoff
    assert vals[-1] < 1e-6


def test_i1_matches_quadrature(merton_bench, fft_bench):
    q = _q(0.5, 1.0)
    fft_val = i1(q, merton_bench, fft_bench)
    ref = quad_i1(q, merton_bench)
    assert abs(fft_val - ref) / abs(ref) < 1e-4


def test_i1_rejects_vg(vg_bench, fft_bench):
    with pytest.raises(ModelMismatchError):
        i1(_q(0.5, 1.0), vg_bench, fft_bench)


def test_i2_zero_without_jumps(fft_bench):
    model = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    assert i2(_q(0.5, 1.0), model, fft_bench) == pytest.approx(0.0, abs=1e-12)


def test_i2_merton_matches_double_quadrature(merton_bench, fft_bench):
    q = _q(0.5, 1.0)
    fft_val = i2(q, merton_bench, fft_bench)
    ref = quad_i2_definition(q, merton_bench)
    assert abs(fft_val - ref) / abs(ref) < 1e-3


def test_i2_nikkei_matches_double_quadrature(nikkei, fft_bench):
    q = _q(0.5, 14000.0, spot=NIKKEI_SPOT)
    fft_val = i2(q, nikkei, fft_bench)
    ref = quad_i2_definition(q, nikkei)
    assert abs(fft_val - ref) / abs(ref) < 1e-3


def test_lrm_benchmark_point_regression(merton_bench, vg_bench, nikkei, fft_bench):
    # frozen quadrature-oracle anchors
    res_m = lrm(_q(0.5, 1.0), merton_bench, fft_bench)
    assert res_m.lrm == pytest.approx(0.93069067, abs=2e-6)
    res_v = lrm(_q(0.5, 1.0), vg_bench, fft_bench)
    assert res_v.lrm == pytest.approx(0.56144959, abs=2e-6)
    res_n = lrm(_q(0.5, 14000.0, spot=NIKKEI_SPOT), nikkei, fft_bench)
    assert res_n.lrm == pytest.approx(0.79507694, abs=2e-6)
    assert res_m.i1 is not None and res_n.i1 is None
    assert not res_m.out_of_range
    assert res_m.config is fft_bench


def test_lrm_deep_itm_limit(merton_bench, vg_bench, fft_bench):
    for model in (merton_bench, vg_bench):
        res = lrm(_q(0.5, 1e-3), model, fft_bench)
        assert 0.97 <= res.lrm <= 1.0


def test_lrm_merton_time_curve(merton_bench, fft_bench):
    ts = np.arange(0.0, 1.0, 0.05)
    vals = []
    for t in ts:
        res = lrm(_q(float(t), 1.0), merton_bench, fft_bench)
        assert math.isfinite(res.lrm)
        assert 0.0 < res.lrm < 1.0
        vals.append(res.lrm)
    # quadrature spot checks
    for t in (0.0, 0.25, 0.5, 0.75, 0.95):
        ref = oracle_lrm(_q(t, 1.0), merton_bench)
        got = vals[int(round(t / 0.05))]
        assert abs(got - ref) / ref < 1e-3


def test_lrm_vg_strike_sweep_decreasing(nikkei, fft_bench):
    results = lrm_strike_sweep(
        nikkei,
        fft_bench,
        t=0.5,
        T=1.0,
        spot=NIKKEI_SPOT,
        strikes=np.arange(10000.0, 21000.0, 1000.0),
    )
    vals = [r.lrm for r in results]
    assert len(vals) == 11
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_moneyness_identity(merton_bench, fft_bench):
    lhs = lrm(_q(0.5, 2.0, spot=2.0), merton_bench, fft_bench).lrm
    rhs = lrm(_q(0.5, 1.0, spot=1.0), merton_bench, fft_bench).lrm
    assert abs(lhs - rhs) < 1e-8


def test_moneyness_identity_randomized(merton_bench, vg_bench, fft_bench):
    rng = np.random.default_rng(31)
    for model in (merton_bench, vg_bench):
        for _ in range(5):
            spot = rng.uniform(0.25, 40.0)
            moneyness = rng.uniform(0.5, 2.0)
            tau = rng.uniform(0.2, 1.0)
            query = MarketQuery(t=0.0, T=tau, spot=spot, strike=moneyness * spot)
            lhs = lrm(query, model, fft_bench).lrm
            rhs = lrm_by_moneyness(MoneynessQuery(moneyness, tau), model, fft_bench)
            assert abs(lhs - rhs) < 1e-8


def test_moneyness_limits(merton_bench, fft_bench):
    assert lrm_by_moneyness(0.01, merton_bench, fft_bench, tau=0.5) == pytest.approx(
        1.0, abs=0.03
    )
    assert lrm_by_moneyness(1e6, merton_bench, fft_bench, tau=0.5) < 1e-4


def test_jump_impact_composition(merton_bench, fft_bench):
    y = 0.1
    impact = jump_impact(y, 1.0, 0.5, merton_bench, fft_bench)
    before = lrm_by_moneyness(MoneynessQuery(1.0, 0.5), merton_bench, fft_bench)
    after = lrm_by_moneyness(MoneynessQuery(math.exp(-y), 0.5), merton_bench, fft_bench)
    assert impact == pytest.approx(after - before, abs=1e-15)


def test_jump_impact_signs(merton_bench, vg_bench, fft_bench):
    for model in (merton_bench, vg_bench):
        up = jump_impact(0.1, 1.0, 0.5, model, fft_bench)
        down = jump_impact(-0.1, 1.0, 0.5, model, fft_bench)
        assert up > 0.0 > down


def test_jump_impact_small_y_continuity(merton_bench, fft_bench):
    assert abs(jump_impact(1e-9, 1.0, 0.5, merton_bench, fft_bench)) < 1e-6
    with pytest.raises(InvalidParameterError):
        jump_impact(0.0, 1.0, 0.5, merton_bench, fft_bench)


def test_alpha_invariance(merton_bench, vg_bench, nikkei, fft_bench):
    cases = [
        (merton_bench, _q(0.5, 1.0)),
        (vg_bench, _q(0.5, 1.0)),
        (nikkei, _q(0.5, 14000.0, spot=NIKKEI_SPOT)),
    ]
    for model, q in cases:
        vals = []
        for alpha in (1.25, 1.75, 2.0):
            cfg = FftConfig(n=fft_bench.n, eta=fft_bench.eta, alpha=alpha, eps=fft_bench.eps)
            vals.append(lrm(q, model, cfg).lrm)
        assert max(vals) - min(vals) < 1e-5


def test_mode_resolution_and_agreement(merton_bench, fft_bench):
    single = lrm(_q(0.5, 1.3), merton_bench, fft_bench)
    assert single.mode == MODE_DIRECT_SUM  # one strike
    sweep = lrm_strike_sweep(
        merton_bench,
        fft_bench,
        t=0.5,
        T=1.0,
        spot=1.0,
        strikes=np.arange(1.0, 8.25, 0.25),
    )
    assert all(r.mode == MODE_FFT_GRID for r in sweep)  # 29 strikes
    direct = lrm(_q(0.5, 1.25), merton_bench, fft_bench).lrm
    gridded = sweep[1].lrm
    assert abs(gridded - direct) / direct < 1e-3


def test_grid_interpolation_error_scale(nikkei, fft_bench):
    # off-node strikes on the grid path carry linear-interpolation error of
    # order (grid step)^2 * curvature; for the index-scale strike this
    # lands around 1e-3, which is why single queries take the direct sum
    q = _q(0.5, 14000.0, spot=NIKKEI_SPOT)
    direct = lrm(q, nikkei, fft_bench)
    sweep = lrm_strike_sweep(
        nikkei, fft_bench, t=0.5, T=1.0, spot=NIKKEI_SPOT,
        strikes=[12000.0, 13000.0, 14000.0, 15000.0, 16000.0],
    )
    assert (direct.mode, sweep[2].mode) == (MODE_DIRECT_SUM, MODE_FFT_GRID)
    direct, gridded = direct.lrm, sweep[2].lrm
    assert abs(gridded - direct) / direct < 5e-3
    assert abs(gridded - direct) / direct > 0.0


def test_strike_sweep_monotone_merton(merton_bench, fft_bench):
    sweep = lrm_strike_sweep(
        merton_bench,
        fft_bench,
        t=0.5,
        T=1.0,
        spot=1.0,
        strikes=np.arange(1.0, 8.25, 0.25),
    )
    vals = [r.lrm for r in sweep]
    assert len(vals) == 29
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_overflow_guard_on_production_path(merton_bench, fft_bench):
    # the exp(tau Psi) guard fires per slice, ahead of the C1 guard
    with pytest.raises(OverflowGuardError, match="characteristic exponent"):
        lrm(_q(0.0, 1.0, T=300.0), merton_bench, fft_bench)
    with pytest.raises(OverflowGuardError, match="characteristic exponent"):
        lrm_strike_sweep(merton_bench, fft_bench, t=0.0, T=300.0, spot=1.0, strikes=[1.0] * 5)


def test_small_sweep_equals_single_queries(merton_bench, nikkei, fft_bench):
    # up to four strikes take the direct sum, each strike's bits as alone
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        strikes = [0.8 * spot, 1.0 * spot, 1.13 * spot, 1.3 * spot]
        sweep = lrm_strike_sweep(model, fft_bench, t=0.5, T=1.0, spot=spot, strikes=strikes)
        assert sweep == [lrm(_q(0.5, k, spot=spot), model, fft_bench) for k in strikes]
        assert all(r.mode == MODE_DIRECT_SUM for r in sweep)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("n_strikes", [3, 6])
def test_sweep_rejects_invalid_strikes(merton_bench, fft_bench, bad, n_strikes):
    strikes = [0.9 + 0.1 * i for i in range(n_strikes)]
    strikes[1] = bad
    message = "strike must be finite" if not math.isfinite(bad) else "strike must be > 0"
    with pytest.raises(InvalidParameterError, match=message):
        lrm_strike_sweep(merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=strikes)


def test_empty_sweep(merton_bench, fft_bench):
    assert lrm_strike_sweep(merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=[]) == []


_SWEEP_FAULTS = """
import resource
from levyhedge import FftConfig, MertonParams, lrm_strike_sweep
model = MertonParams(mu=-0.7, sigma=0.2, gamma=1.0, m=0.0, delta=1.0)
config = FftConfig(n=2**14, eta=0.025, alpha=1.75, eps=1e-2)
strikes = [1.0 + 0.007 * i for i in range(1000)]
lrm_strike_sweep(model, config, t=0.5, T=1.0, spot=1.0, strikes=strikes)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    lrm_strike_sweep(model, config, t=0.5, T=1.0, spot=1.0, strikes=strikes)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds only")
def test_repeated_sweep_reuses_freed_heap():
    # importing the package fixes glibc's heap thresholds, so a repeated
    # sweep reuses the ~5 MB its predecessor freed; with the adaptive
    # defaults a fresh process faults much of it in again on every call
    # (a fresh process, because the heap layout this test would inherit
    # decides whether the defaults trim)
    src = str(Path(levyhedge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _SWEEP_FAULTS], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout) < 100


def test_tail_condition_failure(merton_bench):
    small = FftConfig(n=64, eta=0.025)  # span 1.6, far below the bound
    # the error names the worst cell and the smallest grid that covers it
    with pytest.raises(TailConditionError, match=r"K = 1, tau = 0\.5;.*n = 2048 at eta = 0\.025"):
        lrm(_q(0.5, 1.0), merton_bench, small)
    with pytest.raises(TailConditionError, match=r"K = 0\.5, tau = 0\.5;"):
        lrm_strike_sweep(
            merton_bench, small, t=0.5, T=1.0, spot=1.0, strikes=[1.0, 2.0, 0.5, 1.5, 3.0]
        )


def test_trunc_bound_echo(merton_bench, nikkei, fft_bench):
    res = lrm(_q(0.5, 1.0), merton_bench, fft_bench)
    assert res.trunc_a == pytest.approx(26.07, abs=0.05)
    res_n = lrm(_q(0.5, 14000.0, spot=NIKKEI_SPOT), nikkei, fft_bench)
    assert res_n.trunc_a == pytest.approx(188.7, abs=0.5)


def test_black_scholes_degenerate_case(fft_bench):
    # gamma = 0 collapses the hedge ratio to the Black-Scholes delta
    from statistics import NormalDist

    model = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    for strike in (0.8, 1.0, 1.2):
        res = lrm(_q(0.0, strike), model, fft_bench)
        d1 = (math.log(1.0 / strike) + 0.5 * 0.04) / 0.2
        assert res.lrm == pytest.approx(NormalDist().cdf(d1), abs=1e-9)


def _kind_terms(model):
    """(kind, coefficient, strike shift) of each transform: I1, then I2's three."""
    terms = [("indicator", 1.0, 1.0)]
    for term in merton_i2_terms(model, 1.0):
        kind = "damped" if term.kernel == "damped" else "call"
        terms.append((kind, term.coefficient, term.strike))
    return terms


def test_prefix_tail_bound_holds(merton_bench, random_merton_models, fft_bench):
    # dropping the samples past a strike's prefix moves each weighted
    # transform by at most the certified S K^{1-alpha} e^{G(a)}, which is
    # below rounding wherever the prefix is shorter than the grid
    cfg, spot = fft_bench, 1.0
    for index, model in enumerate([merton_bench] + list(random_merton_models)):
        sample = LevySample(model, cfg, spot)
        psi, factors = sample.prefix(cfg.n)
        for tau in (0.05, 0.5, 1.0):
            bounds = TransformContext(sample, tau).trunc_bounds
            phi = levy_char_fn(psi, tau)
            strikes = np.array([0.5, 1.0, 2.0]) * spot
            c = bounds.row_length
            log_c1 = merton_log_c1(model, sample.mmm, tau, cfg.alpha)
            for strike, rows in zip(strikes, bounds.rows(strikes)):
                m = int(rows) * c
                tail = merton_prefix_tail(
                    np.array([(m - 1) * cfg.eta]), tau, spot, cfg.alpha, log_c1, model, sample.mmm
                )[0]
                allowed = spot * strike ** (1.0 - cfg.alpha) * math.exp(tail)
                if m < cfg.n:
                    assert allowed <= ROUNDING * spot
                if index == 0 and tau == 0.5:
                    assert m < cfg.n
                for kind, coef, shift in _kind_terms(model):
                    samples = phi * factors[kind]
                    log_k = [math.log(strike * shift)]
                    full = direct_simpson_sum(samples, cfg.alpha, cfg.eta, log_k)[0]
                    prefix = direct_simpson_sum(
                        samples[:m], cfg.alpha, cfg.eta, log_k, cfg.n, [rows]
                    )[0]
                    moved = abs(coef * strike * shift * (full - prefix))
                    assert moved <= allowed + 1e-15


def test_grown_sample_keeps_bits(merton_bench, fft_bench):
    # a sample grown on demand, or taken at full size, holds the bits of
    # one taken at the prefix length (numpy elides temporaries from
    # 2^14 complex points on, which must not change a product's bits)
    cfg = fft_bench
    full = LevySample(merton_bench, cfg, 1.3)
    full_psi, full_factors = full.prefix(cfg.n)
    assert np.array_equal(full_psi, merton_exponent(cfg.zeta_grid(), merton_bench, full.mmm))
    grown = LevySample(merton_bench, cfg, 1.3)
    assert grown.psi.size < cfg.n
    for m in (300, 2304, 5000, cfg.n - 1, cfg.n):
        fresh_psi, fresh = LevySample(merton_bench, cfg, 1.3).prefix(m)
        assert fresh_psi.size == m
        for psi, factors in (grown.prefix(m), (full_psi[:m], full_factors)):
            assert np.array_equal(psi, fresh_psi)
            for kind in ("indicator", "call", "damped"):
                assert np.array_equal(factors[kind][:m], fresh[kind])
    # a slice of the full-size sample answers as one of a fresh sample
    strikes = [0.9, 1.3, 1.7]
    assert TransformContext(full, 0.5).evaluate(strikes) == TransformContext(
        LevySample(merton_bench, cfg, 1.3), 0.5
    ).evaluate(strikes)


def test_vg_slice_uses_all_samples(nikkei, fft_bench):
    # the polynomial variance-gamma envelope certifies no prefix: at any
    # stride the sample and every strike's sums span all of N eta
    sample = LevySample(nikkei, fft_bench, NIKKEI_SPOT)
    assert sample.psi.size << sample.shift == fft_bench.n
    bounds = TransformContext(sample, 0.5).trunc_bounds
    strikes = np.array([12000.0, 14000.0, 16000.0])
    rows = bounds.rows(strikes)
    assert np.all(rows * bounds.row_length == fft_bench.n)
    shifts, rows = bounds.strided_rows(strikes)
    assert np.all(bounds.extents(shifts, rows) == fft_bench.n - (1 << shifts))


def _alias_bound(profile, beta, alpha, eta, log_moneyness):
    """The certified aliasing bound of one (log_itm, log_right) profile
    entry at spacing eta and log(K/S), over S."""
    log_itm, log_right = profile
    itm = math.exp(log_itm + alias_log_factor(alpha - 1.0, eta))
    right = np.min(log_right + alias_log_factor(1.0 + beta - alpha, eta) - beta * log_moneyness)
    return itm + math.exp(right)


def test_alias_bound_holds(merton_bench, random_merton_models, fft_bench):
    # every stride's sums stay within the certified aliasing bounds of the
    # configured grid's sums over the same prefix (the bounds at both
    # spacings), at every stride up to the cap.  On top comes the two
    # sums' rounding: each term is off by about ulp times the size of the
    # exponents it went through (tau Psi, the phase v k, the Gaussian
    # delta^2 v^2 / 2), and deep in the money K^{1-alpha} and the
    # cancelling phases lift that to 5e-11 on one model, far above its
    # certified 1e-19
    cfg, spot = fft_bench, 1.0
    v = cfg.eta * np.arange(cfg.n)
    for model in [merton_bench] + list(random_merton_models):
        sample = LevySample(model, cfg, spot)
        psi, factors = sample.prefix(cfg.n)
        for tau in (0.05, 0.5, 1.0):
            bounds = TransformContext(sample, tau).trunc_bounds
            beta, profile = merton_alias_profile(model, sample.mmm, tau, cfg.alpha)
            phi = levy_char_fn(psi, tau)
            strikes = np.array([1e-3, 0.5, 1.0, 2.0]) * spot
            for strike, rows in zip(strikes, bounds.rows(strikes)):
                m = int(rows) * bounds.row_length
                for s in range(1, coarsest_shift(cfg) + 1):
                    eta = cfg.eta * (1 << s)
                    moved, allowed = [0.0, 0.0], [1e-15, 1e-15]
                    for q, eta_q in ((0, cfg.eta), (0, eta), (1, cfg.eta), (1, eta)):
                        allowed[q] += spot * _alias_bound(
                            profile[q], beta, cfg.alpha, eta_q, math.log(strike / spot)
                        )
                    for q, (kind, coef, shift) in zip((0, 1, 1, 1), _kind_terms(model)):
                        if coef == 0.0:
                            continue
                        samples = (phi * factors[kind])[:m]
                        log_k = math.log(strike * shift)
                        fine = direct_simpson_sum(samples, cfg.alpha, cfg.eta, [log_k], cfg.n)[0]
                        coarse = direct_simpson_sum(
                            samples[:: 1 << s], cfg.alpha, eta, [log_k], cfg.n >> s
                        )[0]
                        weight = abs(coef) * strike * shift
                        moved[q] += weight * abs(fine - coarse)
                        exponents = 1.0 + np.abs(tau * psi[:m]) + np.abs(v[:m] * log_k)
                        if kind == "damped":
                            exponents += 0.5 * model.delta**2 * (v[:m] ** 2 + cfg.alpha**2)
                        terms = np.abs(samples) * trapezoid_weights(m, cfg.eta) * exponents
                        rounding = 8.0 * ROUNDING * math.exp(-cfg.alpha * log_k) / math.pi
                        allowed[q] += weight * rounding * np.sum(terms)
                    assert moved[0] <= allowed[0] and moved[1] <= allowed[1]


def test_alias_bound_not_below_measured(nikkei):
    # the in-the-money images of the call transform at alpha = 1.3,
    # eta = 0.2, K = 1e-3 S: the certified bound against the sum at
    # eta = 0.025 over the same span, whose images are e^{-75} S away
    cfg = FftConfig(n=2**14, eta=0.025, alpha=1.3)
    sample = LevySample(nikkei, cfg, NIKKEI_SPOT)
    strike, tau, s = 1e-3 * NIKKEI_SPOT, 0.5, 3
    psi, factors = sample.prefix(cfg.n)
    calls = levy_char_fn(psi, tau) * factors["call"]
    log_k = [math.log(strike)]
    fine = direct_simpson_sum(calls, cfg.alpha, cfg.eta, log_k)[0]
    coarse = direct_simpson_sum(calls[:: 1 << s], cfg.alpha, 0.2, log_k, cfg.n >> s)[0]
    measured = strike * abs(coarse - fine) / NIKKEI_SPOT
    predicted = math.exp(alias_log_factor(cfg.alpha - 1.0, 0.2))
    assert predicted == pytest.approx(8.07e-5, rel=1e-3)
    assert 0.999 * predicted <= measured <= predicted
    # and the whole I2 bound covers the measured I2 alias
    beta, profile = vg_alias_profile(nikkei, sample.mmm, tau, cfg.alpha)
    kernels = levy_char_fn(psi, tau) * factors["kernel"]
    constant = sample.vg_weights.constant

    def i2(eta, step):
        def one(x):
            return direct_simpson_sum(x[::step], cfg.alpha, eta, log_k, cfg.n // step)[0]

        return strike * (one(kernels) - constant * one(calls))

    moved = abs(i2(0.2, 1 << s) - i2(cfg.eta, 1)) / NIKKEI_SPOT
    x = math.log(strike / NIKKEI_SPOT)
    bound = _alias_bound(profile[0], beta, cfg.alpha, 0.2, x)
    assert moved <= bound + _alias_bound(profile[0], beta, cfg.alpha, cfg.eta, x)


def test_strides_are_batch_independent(merton_bench, nikkei, fft_bench):
    # a strike's stride depends on its slice and itself only: a direct-sum
    # batch mixing strides equals per-strike quotes bit for bit
    for model, spot, strikes in (
        (merton_bench, 1.0, [1.0, 20.0, math.exp(63.0), math.exp(62.5)]),
        (nikkei, NIKKEI_SPOT, [14000.0] + [NIKKEI_SPOT * math.exp(x) for x in (25.0, 60.0)]),
    ):
        sweep = lrm_strike_sweep(model, fft_bench, t=0.5, T=1.0, spot=spot, strikes=strikes)
        assert sweep == [lrm(_q(0.5, k, spot=spot), model, fft_bench) for k in strikes]
        assert all(r.mode == MODE_DIRECT_SUM for r in sweep)
        assert len({r.stride for r in sweep}) >= 2
    assert [r.stride for r in sweep] == [4, 2, 1]


def test_extreme_strikes_still_accepted(merton_bench, fft_bench):
    # log-strikes beyond +-pi/eta_s of a coarser stride fall back to a
    # finer one, down to the configured grid, which refuses as before
    edge = math.pi / fft_bench.eta
    for log_k, stride in ((31.0, 4), (31.5, 2), (62.0, 2), (63.0, 1), (edge - 1e-9, 1)):
        res = lrm(_q(0.5, math.exp(log_k)), merton_bench, fft_bench)
        assert res.stride == stride and math.isfinite(res.lrm)
    with pytest.raises(InvalidParameterError, match="outside the representable range"):
        lrm(_q(0.5, math.exp(edge + 1e-9)), merton_bench, fft_bench)


def test_strided_samples_match_fresh(merton_bench, nikkei, fft_bench):
    # every 2^s-th point of the configured grid has the bits of a fresh
    # sample at spacing 2^s eta, and a shared sample's views hold them too
    for model, spot in ((merton_bench, 1.3), (nikkei, NIKKEI_SPOT)):
        full_psi, full = LevySample(model, fft_bench, spot).prefix(fft_bench.n)
        shared = LevySample(model, fft_bench, spot)
        for s in (1, 2, 3):
            n = fft_bench.n >> s
            coarse = FftConfig(n=n, eta=fft_bench.eta * (1 << s), alpha=fft_bench.alpha)
            fresh_psi, fresh = LevySample(model, coarse, spot).prefix(n)
            view_psi, view = shared.strided(s, n)
            assert np.array_equal(full_psi[:: 1 << s], fresh_psi)
            assert np.array_equal(view_psi, fresh_psi)
            for kind in fresh:
                assert np.array_equal(full[kind][:: 1 << s], fresh[kind])
                assert np.array_equal(view[kind], fresh[kind])


def test_vg_quotes_take_coarse_strides(vg_bench, nikkei, fft_bench):
    # the gain: at the money variance gamma sums every fourth point
    for model, spot in ((vg_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        assert lrm(_q(0.5, spot, spot=spot), model, fft_bench).stride >= 4


def test_moneyness_query_rejects_non_finite(merton_bench, fft_bench):
    with pytest.raises(InvalidParameterError, match="moneyness must be finite"):
        MoneynessQuery(math.inf, 0.5)
    with pytest.raises(InvalidParameterError, match="tau must be finite"):
        MoneynessQuery(1.0, math.nan)
    with pytest.raises(InvalidParameterError, match="tau must be finite"):
        MoneynessQuery(1.0, math.inf)
    with pytest.raises(InvalidParameterError, match="moneyness must be finite"):
        lrm_by_moneyness(math.nan, merton_bench, fft_bench, tau=0.5)
    for y in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="jump size y must be finite"):
            jump_impact(y, 1.0, 0.5, merton_bench, fft_bench)
