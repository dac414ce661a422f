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
from levyhedge.lrm import MODE_DIRECT_SUM, MODE_FFT_GRID
from levyhedge.oracle import oracle_lrm, quad_i1, quad_i2_definition

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
