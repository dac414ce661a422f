import contextlib
import dataclasses
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
    BranchCutError,
    FftConfig,
    InvalidParameterError,
    LevyHedgeError,
    MarketQuery,
    MertonParams,
    ModelMismatchError,
    OverflowGuardError,
    TailConditionError,
    jump_impact,
    lrm,
    lrm_strike_sweep,
    mmm_quantities,
)
from levyhedge.cli import main
from levyhedge.core import ROUNDING, cgm_exp_moment, levy_char_fn
from levyhedge.fft_engine import (
    ALIAS_RATES,
    AliasFloors,
    CarrMadanGrid,
    alias_log_factor,
    carr_madan_grid,
    coarsest_shift,
    direct_simpson_sum,
    row_layout,
    trapezoid_weights,
    truncation_points,
)
from levyhedge.lrm import (
    MODE_DIRECT_SUM,
    MODE_FFT_GRID,
    LevySample,
    _shared_sample,
    evaluate_slices,
    impact_quotes,
    levy_sample,
    _prefix_rows,
    plan_slices,
    slice_trunc,
)
from levyhedge.merton import (
    merton_alias_tables,
    merton_exponent,
    merton_i2_terms,
    merton_prefix_tables,
    merton_prefix_tail,
    merton_trunc_laws,
)
from levyhedge.oracle import merton_c1, oracle_lrm, quad_i1, quad_i2_definition, vg_c2
from levyhedge.variance_gamma import VgContourLogs, vg_alias_tables, vg_mmm_measure

from conftest import NIKKEI_SPOT, sample_vg


def _q(t: float, strike: float, spot: float = 1.0, T: float = 1.0) -> MarketQuery:
    return MarketQuery(t=t, T=T, spot=spot, strike=strike)


def test_i1_deep_itm_tends_to_spot(merton_bench, fft_bench):
    val = lrm(_q(0.5, 1e-3), merton_bench, fft_bench).i1
    assert val == pytest.approx(1.0, abs=1e-6)


def test_i1_decreases_to_zero_otm(merton_bench, fft_bench):
    vals = [
        lrm(_q(0.5, k), merton_bench, fft_bench).i1
        for k in (1.0, 4.0, 16.0, 256.0, 1e6)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0.0 for v in vals)  # expectation of a nonnegative payoff
    assert vals[-1] < 1e-6


def test_i1_matches_quadrature(merton_bench, fft_bench):
    q = _q(0.5, 1.0)
    fft_val = lrm(q, merton_bench, fft_bench).i1
    ref = quad_i1(q, merton_bench)
    assert abs(fft_val - ref) / abs(ref) < 1e-4


def test_lrm_sums_every_kernel_kind_in_one_call(merton_bench, vg_bench, fft_bench, monkeypatch):
    # a quote transforms all its kernel kinds in one stacked direct sum:
    # indicator and jump for Merton, jump alone for variance gamma
    module = sys.modules["levyhedge.lrm"]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return direct_simpson_sum(*args, **kwargs)

    monkeypatch.setattr(module, "direct_simpson_sum", counting)
    kinds = []
    for model in (merton_bench, vg_bench):
        calls.clear()
        lrm(_q(0.5, 1.13), model, fft_bench)
        kinds.append([len(args[0]) for args in calls])
    assert kinds == [[2], [1]]


def test_i1_rejects_vg(vg_bench, fft_bench):
    assert lrm(_q(0.5, 1.0), vg_bench, fft_bench).i1 is None


def test_i2_zero_without_jumps(fft_bench):
    model = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    assert lrm(_q(0.5, 1.0), model, fft_bench).i2 == pytest.approx(0.0, abs=1e-12)


def test_i2_merton_matches_double_quadrature(merton_bench, fft_bench):
    q = _q(0.5, 1.0)
    fft_val = lrm(q, merton_bench, fft_bench).i2
    ref = quad_i2_definition(q, merton_bench)
    assert abs(fft_val - ref) / abs(ref) < 1e-3


def test_i2_nikkei_matches_double_quadrature(nikkei, fft_bench):
    q = _q(0.5, 14000.0, spot=NIKKEI_SPOT)
    fft_val = lrm(q, nikkei, fft_bench).i2
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


def test_moneyness_identity_randomized(merton_bench, vg_bench, nikkei, fft_bench):
    # LRM(S, K) = LRM(1, K/S) on both paths: a quote on the direct sum, and
    # a 29-strike sweep on the grid, which interpolates at log(K/S)
    rng = np.random.default_rng(31)
    for model in (merton_bench, vg_bench, nikkei):
        for _ in range(5):
            spot = rng.uniform(0.25, 40.0)
            moneyness = rng.uniform(0.5, 2.0)
            tau = rng.uniform(0.2, 1.0)
            query = MarketQuery(t=0.0, T=tau, spot=spot, strike=moneyness * spot)
            lhs = lrm(query, model, fft_bench).lrm
            rhs = lrm(MarketQuery(0.0, tau, 1.0, moneyness), model, fft_bench).lrm
            assert abs(lhs - rhs) < 1e-8
            sweep = np.sort(rng.uniform(0.5, 2.0, 29))
            at_spot = lrm_strike_sweep(
                model, fft_bench, t=0.0, T=tau, spot=spot, strikes=sweep * spot
            )
            at_one = lrm_strike_sweep(model, fft_bench, t=0.0, T=tau, spot=1.0, strikes=sweep)
            assert all(r.mode == MODE_FFT_GRID for r in at_spot + at_one)
            assert max(abs(a.lrm - b.lrm) for a, b in zip(at_spot, at_one)) <= 1e-14


def test_moneyness_limits(merton_bench, fft_bench):
    assert lrm(MarketQuery(0.0, 0.5, 1.0, 0.01), merton_bench, fft_bench).lrm == pytest.approx(
        1.0, abs=0.03
    )
    assert lrm(MarketQuery(0.0, 0.5, 1.0, 1e6), merton_bench, fft_bench).lrm < 1e-4


def test_jump_impact_composition(merton_bench, fft_bench):
    y = 0.1
    impact = jump_impact(y, 1.0, 0.5, merton_bench, fft_bench)
    before = lrm(MarketQuery(0.0, 0.5, 1.0, 1.0), merton_bench, fft_bench).lrm
    after = lrm(MarketQuery(0.0, 0.5, 1.0, math.exp(-y)), merton_bench, fft_bench).lrm
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


def test_empty_sweep_runs_the_slice_guards(merton_bench, fft_bench):
    # a sweep of no strikes evaluates nothing but still refuses its tau,
    # after the strike check
    with pytest.raises(OverflowGuardError, match="characteristic exponent"):
        lrm_strike_sweep(merton_bench, fft_bench, t=0.0, T=300.0, spot=1.0, strikes=[])
    assert lrm_strike_sweep(merton_bench, fft_bench, t=0.0, T=1.0, spot=1.0, strikes=[]) == []
    with pytest.raises(InvalidParameterError, match="strike must be > 0"):
        lrm_strike_sweep(merton_bench, fft_bench, t=0.0, T=300.0, spot=1.0, strikes=[1.0, -1.0])


def test_overflow_guard_on_production_path(merton_bench, nikkei, fft_bench):
    # the exp(tau Psi) guard fires per slice, ahead of the C1 guard
    with pytest.raises(OverflowGuardError, match="characteristic exponent"):
        lrm(_q(0.0, 1.0, T=300.0), merton_bench, fft_bench)
    with pytest.raises(OverflowGuardError, match="characteristic exponent"):
        lrm_strike_sweep(merton_bench, fft_bench, t=0.0, T=300.0, spot=1.0, strikes=[1.0] * 5)
    # the variance-gamma envelope C2 is refused past the same exp() guard,
    # not left to overflow math.exp
    with pytest.raises(OverflowGuardError, match="C2 exponent 788 exceeds 700"):
        lrm(_q(0.0, 15000.0, spot=NIKKEI_SPOT, T=50.0), nikkei, fft_bench)
    with pytest.raises(OverflowGuardError, match="C2 exponent"):
        lrm_strike_sweep(
            nikkei, fft_bench, t=0.0, T=50.0, spot=NIKKEI_SPOT, strikes=[15000.0] * 5
        )


def test_small_sweep_equals_single_queries(merton_bench, nikkei, fft_bench):
    # up to four strikes take the direct sum, each strike's bits as alone
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        strikes = [0.8 * spot, 1.0 * spot, 1.13 * spot, 1.3 * spot]
        sweep = lrm_strike_sweep(model, fft_bench, t=0.5, T=1.0, spot=spot, strikes=strikes)
        assert sweep == [lrm(_q(0.5, k, spot=spot), model, fft_bench) for k in strikes]
        assert all(r.mode == MODE_DIRECT_SUM for r in sweep)


def _slice_columns(sample, taus, strikes, spot) -> list:
    """``evaluate_slices`` on the slices taus of sample, every column as a
    list and the mode."""
    columns = evaluate_slices(sample, taus, strikes, spot)
    arrays = (columns.lrm, columns.i1, columns.i2, columns.trunc_a, columns.stride)
    return [None if a is None else a.tolist() for a in arrays] + [columns.mode]


def test_slice_evaluation_is_stateless(merton_bench, nikkei, fft_bench):
    # no result depends on the calls before it: 1, 29 and 1 strikes on one
    # slice give the bits of each batch on a fresh sample, and give them
    # again after impact quotes and a curve have read the held sample
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        sample = levy_sample(model, fft_bench)
        batches = ([1.1 * spot], list(np.linspace(0.6, 1.9, 29) * spot), [0.7 * spot])
        fresh = [_slice_columns(LevySample(model, fft_bench), [0.5], x, spot) for x in batches]
        assert [_slice_columns(sample, [0.5], x, spot) for x in batches] == fresh
        impact_quotes([0.9, 1.0, 1.2], 0.5, model, fft_bench)
        evaluate_slices(sample, [0.5, 0.9], list(np.linspace(0.8, 1.2, 7) * spot), spot)
        assert [_slice_columns(sample, [0.5], x, spot) for x in batches] == fresh


def test_quotes_equal_lone_evaluations(merton_bench, nikkei, fft_bench):
    # impact quotes take every moneyness in one direct-sum call that
    # computes phi once, with the bits of a fresh slice per moneyness
    for model in (merton_bench, nikkei):
        moneyness = [math.exp(-y) for y in (0.0, 0.05, -0.05, 0.2, -0.2, 1.0, -1.0, 3.0, -3.0)]
        lone = [
            evaluate_slices(LevySample(model, fft_bench), [0.5], [x], 1.0)
            for x in moneyness
        ]
        assert impact_quotes(moneyness, 0.5, model, fft_bench) == [c.lrm[0, 0] for c in lone]
        assert all(c.mode == MODE_DIRECT_SUM for c in lone)
        # and every column of the direct-sum batch, not the ratio alone
        batch = evaluate_slices(levy_sample(model, fft_bench), [0.5], moneyness, 1.0,
                                mode=MODE_DIRECT_SUM)
        for name in ("lrm", "i1", "i2", "trunc_a", "stride"):
            if getattr(batch, name) is not None:
                assert getattr(batch, name)[0].tolist() == [getattr(c, name)[0, 0] for c in lone]
    # a failing batch raises the first lone quote's error, not the batch's
    short = FftConfig(n=64, eta=fft_bench.eta, alpha=fft_bench.alpha, eps=fft_bench.eps)
    sample = levy_sample(merton_bench, short)
    with pytest.raises(TailConditionError) as first:
        evaluate_slices(sample, [0.5], [1.0], 1.0)
    with pytest.raises(TailConditionError) as batch:
        evaluate_slices(sample, [0.5], [1.0, 0.5], 1.0)
    assert str(batch.value) != str(first.value)
    with pytest.raises(TailConditionError) as quoted:
        impact_quotes([1.0, 0.5], 0.5, merton_bench, short)
    assert str(quoted.value) == str(first.value)


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


def test_production_imports_skip_oracle():
    # the package and its CLI run on numpy alone; scipy backs the oracle
    src = str(Path(levyhedge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, levyhedge, levyhedge.cli; "
        "print('scipy' in sys.modules, 'levyhedge.oracle' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


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


def _closed_form_trunc(model, tau, strikes, spot, config):
    # the linear-space closed forms of the three truncation laws, as stated
    # before they became one law in logs: (I1, I2) for Merton, (I2,) for VG
    eps, alpha = config.eps, config.alpha
    mm = mmm_quantities(model)
    if isinstance(model, MertonParams):
        c1 = merton_c1(model, mm, tau, alpha)
        lead = strikes / math.pi * (strikes / spot) ** (-alpha) * c1
        a1 = lead**0.25 / (model.sigma * math.sqrt(tau) * eps**0.25)
        m, d2, a = model.m, model.delta**2, alpha
        bracket = (
            math.exp((a + 1.0) * m + (0.5 * a * a + a + 0.5) * d2)
            + math.exp(m * a + 0.5 * d2 * a * a)
            + abs(1.0 - math.exp(m + 0.5 * d2))
        )
        rhs = (
            4.0 * c1 * model.gamma * strikes * (strikes / spot) ** (-a) * bracket
            / (5.0 * math.pi * model.sigma**4 * tau**2 * eps)
        )
        return np.stack((a1, rhs ** (1.0 / 5.0)))
    c, g, m = model.C, model.G, model.M
    c2 = vg_c2(vg_mmm_measure(model, mm.h), mm.mu_star, tau, alpha)
    p = 2.0 * c * tau + 1.0
    bracket = 1.0 / (g + alpha) + 1.0 / (m - alpha - 1.0) + abs(cgm_exp_moment(c, g, m)) / c
    rhs = c * c2 * strikes ** (1.0 - alpha) * spot**alpha * bracket / (math.pi * eps * p)
    return np.stack((rhs ** (1.0 / p),))


def test_truncation_law_matches_closed_forms(
    merton_bench, vg_bench, nikkei, random_merton_models, random_vg_models, fft_bench
):
    # one law in logs, a^p = L K^{1-alpha} S^alpha / eps, gives every bound
    # of the linear-space closed forms to rounding, on 53 models
    cases = [(merton_bench, 1.0), (vg_bench, 1.0), (nikkei, NIKKEI_SPOT)]
    cases += [(model, 1.0) for model in random_merton_models + random_vg_models]
    cells = 0
    for model, spot in cases:
        sample = levy_sample(model, fft_bench)
        strikes = spot * np.array([0.5, 1.0, 2.0])
        for tau in (0.05, 0.5, 1.0):
            got = slice_trunc(sample, tau, strikes, spot)
            want = _closed_form_trunc(model, tau, strikes, spot, fft_bench)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            cells += got.size
    assert cells == 3 * 3 * (2 * 26 + 27)


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
    for term in merton_i2_terms(model):
        kind = "damped" if term.kernel == "damped" else "call"
        terms.append((kind, term.coefficient, term.strike))
    return terms


def _term_factors(sample):
    """The sample's factors at every configured-grid point, with the call
    factor and the Gaussian-damped call factor of the I2 terms built from
    the sample's input, the contour."""
    cfg = sample.config
    psi, factors = sample.sample(0, cfg.n)
    zeta = cfg.zeta_grid()
    iz = 1j * zeta
    call = 1.0 / (iz - 1.0) / iz
    delta = sample.model.delta
    damped = np.exp(-0.5 * delta * delta * zeta * zeta) * call
    return psi, {**factors, "call": call, "damped": damped}


def test_prefix_tail_bound_holds(merton_bench, random_merton_models, fft_bench):
    # dropping the samples past a strike's prefix moves each weighted
    # transform by at most the certified S K^{1-alpha} e^{G(a)}, which is
    # below rounding wherever the prefix is shorter than the grid
    cfg, spot = fft_bench, 1.0
    for index, model in enumerate([merton_bench] + list(random_merton_models)):
        sample = levy_sample(model, cfg)
        psi, factors = _term_factors(sample)
        tables = merton_prefix_tables(model, sample.mmm, cfg.alpha)
        for tau in (0.05, 0.5, 1.0):
            phi = levy_char_fn(psi, tau)
            strikes = np.array([0.5, 1.0, 2.0]) * spot
            c = sample.row_lengths[0]
            log_c1 = tau * sample.psi0.real
            for strike, rows in zip(strikes, _prefix_rows(sample, [tau], strikes, 0)[0]):
                m = int(rows) * c
                a = np.array([(m - 1) * cfg.eta])
                tail = merton_prefix_tail(np.log(a), a * a, tau, log_c1, tables)[0]
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
                # the production jump kind, the terms' sum at log K
                samples = phi * factors["jump"]
                log_k = [math.log(strike)]
                full = direct_simpson_sum(samples, cfg.alpha, cfg.eta, log_k)[0]
                prefix = direct_simpson_sum(
                    samples[:m], cfg.alpha, cfg.eta, log_k, cfg.n, [rows]
                )[0]
                assert abs(strike * (full - prefix)) <= allowed + 1e-15


def test_i2_equals_three_shifted_strike_sums(merton_bench, random_merton_models, fft_bench):
    # the one jump transform at log K against the three I2 terms, each its
    # own direct sum at its shifted strike over the whole configured grid
    cfg, spot = fft_bench, 1.0
    for model in [merton_bench] + list(random_merton_models[:5]):
        psi, factors = _term_factors(levy_sample(model, cfg))
        terms = _kind_terms(model)[1:]
        for tau in (0.05, 0.5):
            phi = levy_char_fn(psi, tau)
            for strike in (0.5, 1.0, 2.0):
                separate = sum(
                    coef * strike * shift * direct_simpson_sum(
                        phi * factors[kind], cfg.alpha, cfg.eta, [math.log(strike * shift)]
                    )[0]
                    for kind, coef, shift in terms
                )
                got = lrm(MarketQuery(t=0.0, T=tau, spot=spot, strike=strike), model, cfg).i2
                assert abs(got - separate) <= 1e-12 * spot


def test_merton_sample_takes_two_complex_exponentials(merton_bench, fft_bench, monkeypatch):
    # Psi's two, which the jump weight shares; the spot-free indicator
    # factor is rational.  A request that the held sample covers takes none
    exp, taken = np.exp, []

    def counting(x, *args, **kwargs):
        taken.append(np.iscomplexobj(x))
        return exp(x, *args, **kwargs)

    sample = LevySample(merton_bench, fft_bench)
    monkeypatch.setattr(np, "exp", counting)
    sample.sample(0, fft_bench.n)
    assert taken == [True] * 2
    for shift, m in ((0, 300), (1, fft_bench.n >> 1), (2, 5)):
        sample.sample(shift, m)
    assert taken == [True] * 2


def test_grid_direct_gap_of_merton_sweeps(merton_bench, fft_bench):
    # interpolating the one jump grid at log K stays within the measured
    # gap of the three shifted-strike grids it replaced (3.59e-5)
    for strikes in (1.0 + 0.25 * np.arange(29), 1.0 + 0.007 * np.arange(1000)):
        grid = lrm_strike_sweep(merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=strikes)
        sample = levy_sample(merton_bench, fft_bench)
        direct = evaluate_slices(sample, [0.5], strikes, 1.0, mode=MODE_DIRECT_SUM).lrm[0]
        assert all(r.mode == MODE_FFT_GRID for r in grid)
        assert np.max(np.abs([r.lrm for r in grid] - direct)) <= 3.6e-5


def test_grown_sample_keeps_bits(merton_bench, nikkei, fft_bench):
    # a sample taken at full size holds the bits of one taken at any
    # prefix length (numpy elides temporaries from 2^14 complex points on,
    # which must not change a product's bits), and its j = 0 point has the
    # bits of psi0, the exp() guard of every slice
    cfg = fft_bench
    sample = levy_sample(merton_bench, cfg)
    full_psi, full_factors = sample.sample(0, cfg.n)
    assert np.array_equal(full_psi, merton_exponent(cfg.zeta_grid(), merton_bench, sample.mmm))
    for m in (1, 300, 2304, 5000, cfg.n - 1, cfg.n):
        psi, factors = sample.sample(0, m)
        assert psi.size == m
        assert np.array_equal(full_psi[:m], psi)
        for kind in ("indicator", "jump"):
            assert np.array_equal(full_factors[kind][:m], factors[kind])
    for model in (merton_bench, nikkei):
        sample = levy_sample(model, cfg)
        assert complex(sample.sample(0, cfg.n)[0][0]) == sample.psi0


def _spy(sample, method: str) -> list:
    """The list of the (shift, m) of every later call of ``method`` of
    sample."""
    taken, call = [], getattr(sample, method)

    def spying(shift, m):
        taken.append((shift, m))
        return call(shift, m)

    setattr(sample, method, spying)
    return taken


def _spied_sample(model, config):
    """A private sample, so that the spy stays off the shared one, whose
    ``sample`` calls are listed as (shift, m), and that list."""
    sample = LevySample(model, config)
    return sample, _spy(sample, "sample")


def test_vg_slice_uses_all_samples(nikkei, fft_bench):
    # the polynomial variance-gamma envelope certifies no prefix: at any
    # stride the sample and every strike's sums span all of N eta
    sample, taken = _spied_sample(nikkei, fft_bench)
    strikes = np.array([12000.0, 14000.0, 16000.0])
    rows = _prefix_rows(sample, [0.5], strikes / NIKKEI_SPOT, 0)
    assert np.all(rows * sample.row_lengths[0] == fft_bench.n)
    plan = plan_slices(sample, [0.5], strikes, NIKKEI_SPOT)
    shifts = plan.shifts
    assert np.all(plan.extents == fft_bench.n - (1 << shifts))
    # and the evaluation samples the whole span at the finest stride
    evaluate_slices(sample, [0.5], strikes, NIKKEI_SPOT)
    [(shift, m)] = taken
    assert shift == shifts.min() and m << shift == fft_bench.n


def test_checks_come_before_sampling(merton_bench, fft_bench):
    # every slice is planned and checked before the one sample: a surface
    # whose last slice fails its tail check raises without sampling, and
    # planning a passing surface samples nothing
    sample, taken = _spied_sample(merton_bench, fft_bench)
    strikes = np.array([0.8, 1.0, 1.25])
    with pytest.raises(TailConditionError, match=r"tau = 0\.0001;"):
        evaluate_slices(sample, [0.5, 0.25, 1e-4], strikes, 1.0)
    assert taken == []
    plan = plan_slices(sample, [0.5, 0.25], strikes, 1.0)
    assert all(table.shape == (2, strikes.size) for table in plan) and taken == []
    # every slice's guards run before any slice's tail check: tau = 1e-4
    # alone fails its tail check, but after it tau = 300 raises its exp()
    # guard first, and still nothing is sampled
    with pytest.raises(TailConditionError):
        plan_slices(sample, [1e-4], strikes, 1.0)
    for call in (plan_slices, evaluate_slices):
        with pytest.raises(OverflowGuardError, match="characteristic exponent"):
            call(sample, [1e-4, 300.0], strikes, 1.0)
    assert taken == []


def test_one_sample_and_one_exponential_per_slice(merton_bench, nikkei, fft_bench, monkeypatch):
    # both paths run one slice loop: one sample per call and one exp(tau Psi)
    # per slice, over 20 slices in several blocks
    module = sys.modules["levyhedge.lrm"]
    taus, exps, blocks = [0.4 + 0.03 * i for i in range(20)], [], []

    def counting(psi, tau):
        exps.append(tau)
        return levy_char_fn(psi, tau)

    def gridding(samples, *args):
        blocks.append(samples.shape)
        return carr_madan_grid(samples, *args)

    monkeypatch.setattr(module, "levy_char_fn", counting)
    monkeypatch.setattr(module, "carr_madan_grid", gridding)
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        for mode in (MODE_DIRECT_SUM, MODE_FFT_GRID):
            sample, taken = _spied_sample(model, fft_bench)
            exps.clear()
            blocks.clear()
            evaluate_slices(sample, taus, np.array([0.85, 1.0, 1.15]) * spot, spot, mode=mode)
            assert len(taken) == 1 and sorted(exps) == taus
            if mode == MODE_FFT_GRID:
                # one FFT call per block of slices, over every kind of each
                assert 1 < len(blocks) < len(taus)
                assert sum(rows for rows, _ in blocks) == len(taus) * len(sample.kinds)


def _alias_profile(tables, rate, tau):
    """The beta grid and one (log_itm, log_right) pair per bound of a
    model's alias tables at tau, each right tail with the moment
    e^{tau rate} of the sample's rates."""
    beta, log_itms, log_rights = tables
    return beta, list(zip(log_itms, tau * rate + log_rights))


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
        sample = levy_sample(model, cfg)
        psi, factors = _term_factors(sample)
        tables = merton_alias_tables(model, sample.mmm, cfg.alpha)
        for tau in (0.05, 0.5, 1.0):
            beta, profile = _alias_profile(tables, sample.floors.rate, tau)
            phi = levy_char_fn(psi, tau)
            strikes = np.array([1e-3, 0.5, 1.0, 2.0]) * spot
            for strike, rows in zip(strikes, _prefix_rows(sample, [tau], strikes, 0)[0]):
                m = int(rows) * sample.row_lengths[0]
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
                    # the production jump kind, the terms' sum at log K
                    samples = (phi * factors["jump"])[:m]
                    log_k = [math.log(strike)]
                    fine = direct_simpson_sum(samples, cfg.alpha, cfg.eta, log_k, cfg.n)[0]
                    coarse = direct_simpson_sum(
                        samples[:: 1 << s], cfg.alpha, eta, log_k, cfg.n >> s
                    )[0]
                    assert strike * abs(fine - coarse) <= allowed[1]


def test_alias_bound_not_below_measured(nikkei):
    # the in-the-money images of the call transform at alpha = 1.3,
    # eta = 0.2, K = 1e-3 S: the certified bound against the sum at
    # eta = 0.025 over the same span, whose images are e^{-75} S away
    cfg = FftConfig(n=2**14, eta=0.025, alpha=1.3)
    sample = levy_sample(nikkei, cfg)
    strike, tau, s = 1e-3 * NIKKEI_SPOT, 0.5, 3
    psi, factors = sample.sample(0, cfg.n)
    # the call factor of the sample's input, the contour
    iz = 1j * cfg.zeta_grid()
    call = 1.0 / (iz - 1.0) / iz
    calls = levy_char_fn(psi, tau) * call
    log_k = [math.log(strike / NIKKEI_SPOT)]
    fine = direct_simpson_sum(calls, cfg.alpha, cfg.eta, log_k)[0]
    coarse = direct_simpson_sum(calls[:: 1 << s], cfg.alpha, 0.2, log_k, cfg.n >> s)[0]
    measured = strike * abs(coarse - fine) / NIKKEI_SPOT
    predicted = math.exp(alias_log_factor(cfg.alpha - 1.0, 0.2))
    assert predicted == pytest.approx(8.07e-5, rel=1e-3)
    assert 0.999 * predicted <= measured <= predicted
    # and the whole I2 bound covers the measured I2 alias
    tables = vg_alias_tables(nikkei, sample.mmm, cfg.alpha)
    beta, profile = _alias_profile(tables, sample.floors.rate, tau)
    jumps = levy_char_fn(psi, tau) * factors["jump"]

    def i2(eta, step):
        return strike * direct_simpson_sum(jumps[::step], cfg.alpha, eta, log_k, cfg.n // step)[0]

    moved = abs(i2(0.2, 1 << s) - i2(cfg.eta, 1)) / NIKKEI_SPOT
    x = math.log(strike / NIKKEI_SPOT)
    bound = _alias_bound(profile[0], beta, cfg.alpha, 0.2, x)
    assert moved <= bound + _alias_bound(profile[0], beta, cfg.alpha, cfg.eta, x)


def _merton_log_moment(model, mm, p):
    """Psi(-i p) for real p, log E[(S_T / S)^p] per unit time, in the real
    arithmetic of its closed form."""
    g, m, d2, h = model.gamma, model.m, model.delta**2, mm.h
    m2 = m + d2
    jump1 = np.exp(m * p + 0.5 * p**2 * d2) - 1.0 - p * m
    jump2 = np.exp(m2 * p + 0.5 * p**2 * d2) - 1.0 - p * m2
    return (
        p * mm.mu_star
        + 0.5 * model.sigma**2 * p**2
        + (1.0 + h) * g * jump1
        - h * g * math.exp(m + 0.5 * d2) * jump2
    )


def _vg_log_moment(model, mm, p):
    """Psi(-i p) for real p: -C_j [log1p(p/G_j) + log1p(-p/M_j)] summed
    over the tilted pair, plus p times its drift."""
    pair = vg_mmm_measure(model, mm.h)
    out = p * pair.drift(mm.mu_star)
    for comp in pair.components:
        out = out - comp.C * (np.log1p(p / comp.G) + np.log1p(-p / comp.M))
    return out


def test_moment_rates_read_the_exponent(
    merton_bench, nikkei, random_merton_models, random_vg_models, fft_bench
):
    # the sample's moment rates, read from the contour exponent at
    # zeta = -i(1+beta), are the real-axis log-moment closed forms over
    # the whole beta grid, and the Merton truncation laws take log C1 =
    # tau Re psi0
    cfg = fft_bench
    for model in [merton_bench, nikkei] + list(random_merton_models) + list(random_vg_models):
        sample = levy_sample(model, cfg)
        merton = isinstance(model, MertonParams)
        log_moment = _merton_log_moment if merton else _vg_log_moment
        with np.errstate(over="ignore"):
            expected = log_moment(model, sample.mmm, 1.0 + sample.floors.beta)
        np.testing.assert_allclose(sample.floors.rate, expected, rtol=1e-12, atol=0.0)
        assert sample.psi0.real == pytest.approx(
            log_moment(model, sample.mmm, cfg.alpha), rel=1e-12, abs=0.0
        )
        for tau in (0.05, 0.5, 1.0):
            if merton:
                strikes = np.array([0.5, 1.0, 2.0])
                laws = merton_trunc_laws(model, tau * sample.psi0.real, tau, cfg.alpha)
                want = truncation_points(laws, cfg.eps, strikes, 1.0, cfg.alpha)
                assert np.array_equal(slice_trunc(sample, tau, strikes, 1.0), want)


def test_alias_floors_degenerate_tables(merton_bench, nikkei, fft_bench):
    # gamma = 0: the Merton moment is 0 * inf at large beta, which bounds
    # nothing, so no floor is NaN
    bs = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    sample = levy_sample(bs, fft_bench)
    assert np.isnan(sample.floors.rate).any()
    floors = sample.floors([0.05, 0.5, 1.0])
    assert floors.shape == (3, coarsest_shift(fft_bench))
    assert not np.isnan(floors).any()
    # a grid with no stride past its own has no floors
    coarse = FftConfig(n=2**12, eta=0.1)
    assert coarsest_shift(coarse) == 0
    assert levy_sample(merton_bench, coarse).floors([0.5]).shape == (1, 0)
    # variance gamma's moment point -i(1+beta) needs 1 + beta < M - 1: at
    # beta = M - 2 the base M - 1 - i zeta leaves the right half-plane
    beta = levy_sample(nikkei, fft_bench).floors.beta
    assert beta.size < ALIAS_RATES.size and beta.max() < nikkei.M - 2.0
    with pytest.raises(BranchCutError):
        VgContourLogs(np.array([-1j * (nikkei.M - 1.0)]), nikkei.G, nikkei.M)


def test_strides_are_batch_independent(merton_bench, nikkei, fft_bench):
    # a strike's stride depends on its slice and itself only: a direct-sum
    # batch mixing strides equals per-strike quotes bit for bit
    for model, spot, strikes in (
        (merton_bench, 1.0, [1.0, 20.0, math.exp(63.0), math.exp(62.5)]),
        (nikkei, NIKKEI_SPOT, [14000.0] + [NIKKEI_SPOT * math.exp(x) for x in (35.0, 70.0)]),
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


def test_one_log_strike_range_rule(fft_bench):
    # the I2 terms shift log K up by 0.26 and 0.3: past +-pi/eta a strike
    # takes stride 0 in every slice, and every path and slice count
    # refuses it alike, naming its first outside log-strike, log K + 0.26
    model = MertonParams(mu=-0.1, sigma=0.2, gamma=1.0, m=-0.3, delta=0.2)
    edge = math.pi / fft_bench.eta
    sample = levy_sample(model, fft_bench)
    taus = [0.5, 0.25]

    def calls(strike):
        sweep = [0.9, 1.0, 1.1, 1.2, strike]
        return (
            lambda: [lrm(_q(0.5, strike), model, fft_bench).lrm],
            lambda: [r.lrm for r in lrm_strike_sweep(
                model, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=sweep)],
            lambda: evaluate_slices(sample, taus, [1.0, strike], 1.0).lrm.ravel().tolist(),
            lambda: evaluate_slices(sample, taus, sweep, 1.0).lrm.ravel().tolist(),
        )

    strike = math.exp(edge - 0.15)
    for call in calls(strike):
        with pytest.raises(InvalidParameterError, match=r"log-strike 125\.774 outside"):
            call()
    for call in calls(math.exp(edge - 0.5)):
        assert all(math.isfinite(x) for x in call())


def test_kernels_get_what_the_plan_guarantees(merton_bench, nikkei, fft_bench, monkeypatch):
    # the transform kernels check only finiteness: every call evaluate_slices
    # makes meets the rest of their contract, eta, alpha and n from
    # FftConfig, and the strides, range rule and rows of plan_slices, also
    # for strikes at the +-pi/eta edge that the plan refuses
    module, real_at = sys.modules["levyhedge.lrm"], CarrMadanGrid.at
    shifts = {fft_bench.eta * (1 << s): s for s in range(coarsest_shift(fft_bench) + 1)}
    seen = dict.fromkeys(("grid", "at", "direct"), 0)

    def check_shape(psi, alpha, eta, n):
        assert eta in shifts and n == fft_bench.n >> shifts[eta] and alpha == fft_bench.alpha
        assert psi.ndim == 2 and 0 < psi.shape[-1] <= n

    def grid(psi, alpha, eta, n):
        check_shape(psi, alpha, eta, n)
        seen["grid"] += 1
        return carr_madan_grid(psi, alpha, eta, n)

    def at(self, k):
        # the first grid log-strike is -pi/eta
        assert np.all(np.abs(k) < -self.k[0])
        seen["at"] += 1
        return real_at(self, k)

    def direct(psi, alpha, eta, k, n, rows):
        check_shape(psi, alpha, eta, n)
        assert np.all(np.abs(k) < math.pi / eta)
        held = -(-psi.shape[-1] // row_layout(n)[0])
        assert np.shape(rows) == np.shape(k) and 1 <= np.min(rows) <= np.max(rows) <= held
        seen["direct"] += 1
        return direct_simpson_sum(psi, alpha, eta, k, n, rows)

    monkeypatch.setattr(module, "carr_madan_grid", grid)
    monkeypatch.setattr(module, "direct_simpson_sum", direct)
    monkeypatch.setattr(CarrMadanGrid, "at", at)
    shifted = MertonParams(mu=-0.1, sigma=0.2, gamma=1.0, m=-0.3, delta=0.2)
    edge = math.pi / fft_bench.eta
    moneyness = [[1.0], [0.8, 1.0, 1.25], np.linspace(0.6, 1.4, 29)]
    for d in (-0.1, 0.05, 0.15, 0.5, 1.5):
        for x in (math.exp(edge - d), math.exp(d - edge)):
            moneyness += [[x], [0.9, 0.95, 1.05, 1.1, x]]
    for model, spot in ((merton_bench, 1.0), (shifted, 1.0), (nikkei, NIKKEI_SPOT)):
        sample = levy_sample(model, fft_bench)
        for taus in ([0.05], [0.5], [1.0], [0.05, 0.5, 1.0]):
            for mode in (MODE_DIRECT_SUM, MODE_FFT_GRID):
                for x in moneyness:
                    with contextlib.suppress(LevyHedgeError):
                        evaluate_slices(sample, taus, np.multiply(x, spot), spot, mode=mode)
    assert min(seen.values()) > 0


def test_strided_samples_match_fresh(merton_bench, nikkei, fft_bench):
    # every 2^s-th point of the configured grid has the bits of a fresh
    # sample at spacing 2^s eta, and so does a sample taken at stride 2^s
    for model in (merton_bench, nikkei):
        sample = levy_sample(model, fft_bench)
        full_psi, full = sample.sample(0, fft_bench.n)
        for s in (1, 2, 3):
            n = fft_bench.n >> s
            coarse = FftConfig(n=n, eta=fft_bench.eta * (1 << s), alpha=fft_bench.alpha)
            fresh_psi, fresh = LevySample(model, coarse).sample(0, n)
            view_psi, view = sample.sample(s, n)
            assert np.array_equal(full_psi[:: 1 << s], fresh_psi)
            assert np.array_equal(view_psi, fresh_psi)
            for kind in fresh:
                assert np.array_equal(full[kind][:: 1 << s], fresh[kind])
                assert np.array_equal(view[kind], fresh[kind])


def _union(requests) -> tuple:
    """The finest stride exponent and the last configured-grid index of a
    list of (shift, m) sample requests."""
    return min(s for s, _ in requests), max((m - 1) << s for s, m in requests)


def _held_union(sample) -> tuple:
    """The same two of the sample ``sample`` holds."""
    top, psi, _ = sample._held
    return top, (psi.size - 1) << top


def test_held_sample_grows_to_the_union(merton_bench, fft_bench):
    # a request that the held sample covers (another t, K or spot) samples
    # nothing; one that needs a finer stride or a longer span samples once,
    # and the held sample is then the union of all requests
    sample = LevySample(merton_bench, fft_bench)
    asked, fresh = _spy(sample, "sample"), _spy(sample, "_exponent")
    evaluate_slices(sample, [0.2, 0.5, 0.9], np.array([0.8, 1.0, 1.25]), 1.0)
    assert fresh == asked and len(asked) == 1
    for tau, x, spot in ((0.5, 1.0, 1.0), (0.9, 0.8, 2.0), (0.2, 1.25, 0.5), (0.5, 1.0, 3.0)):
        evaluate_slices(sample, [tau], [x * spot], spot)
    assert len(asked) == 5 and len(fresh) == 1
    top, last = _held_union(sample)
    assert top > 0
    n = fft_bench.n
    # finer over a shorter span, then coarser over a longer one, then both
    for shift, m in ((top - 1, 10), (top + 1, (n >> (top + 1)) - 7), (0, n)):
        before = len(fresh)
        sample.sample(shift, m)
        assert len(fresh) == before + 1
        assert _held_union(sample) == _union(asked) == _union(fresh[-1:])
        # and every request so far is covered
        for request in asked[:]:
            sample.sample(*request)
        assert len(fresh) == before + 1
    assert _held_union(sample) == (0, n - 1)


def _growth_requests(model, spot):
    """(taus, strikes) requests on one pair, from coarse and short to fine
    and long: quotes, a 29-strike sweep and a curve."""
    taus = [0.05 * i for i in (1, 4, 8, 12)] if isinstance(model, MertonParams) else [0.4, 0.7]
    x = [[2.0], [1.0], list(np.linspace(0.6, 1.4, 29)), [0.8, 1.0, 1.25], [math.exp(40.0)],
         [math.exp(70.0)]]
    requests = [([0.4], x[0]), ([0.95], x[1]), ([0.5], x[2]), (taus + [0.95], x[3])]
    requests += [([0.5], x[4]), ([0.5], x[5])]
    return [(tau, np.multiply(strikes, spot)) for tau, strikes in requests]


def test_held_sample_keeps_bits_in_any_growth_order(merton_bench, nikkei, fft_bench):
    # coarse then fine and short then long, the reverse, and one shuffle:
    # every quote, sweep and curve has the bits of its value on a fresh
    # sample, whatever the held sample was grown from
    seeded_vg = sample_vg(np.random.default_rng(20240212))
    rng = np.random.default_rng(7)
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT), (seeded_vg, 1.0)):
        requests = _growth_requests(model, spot)
        fresh = [_slice_columns(LevySample(model, fft_bench), *r, spot) for r in requests]
        orders = [list(range(len(requests)))]
        orders += [orders[0][::-1], rng.permutation(len(requests)).tolist()]
        for order in orders:
            sample = LevySample(model, fft_bench)
            grown = _spy(sample, "_exponent")
            for i in order:
                assert _slice_columns(sample, *requests[i], spot) == fresh[i]
            if order == orders[0]:
                assert len(grown) >= 3


def test_held_sample_is_read_only_and_no_larger_than_asked(merton_bench, nikkei, fft_bench):
    # after quotes, a sweep and a curve, each pair holds the union of what
    # it was asked for and no more: psi, and the jump weight for Merton
    # alone; neither they nor a view of psi can be written
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        sample = LevySample(model, fft_bench)
        asked = _spy(sample, "sample")
        for taus, strikes in _growth_requests(model, spot)[:4]:
            evaluate_slices(sample, taus, strikes, spot)
        assert _held_union(sample) == _union(asked)
        _, psi, weight = sample._held
        assert (weight is None) == (model is nikkei)
        assert weight is None or weight.shape == psi.shape
        view_psi, _ = sample.sample(*asked[0])
        for array in (psi, weight, view_psi):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0


def test_prefix_rows_clip_to_the_layout(merton_bench):
    # on a 64-point grid at t = 0, T = 2 the Merton prefix bound asks for 9 rows
    # of the 8-row layout; the plan clips them to the layout, so that no
    # cell reads past the grid (every extent is at most n - 2^s, which the
    # held sample relies on) and both paths answer
    config = FftConfig(n=64, eta=0.2, alpha=1.25)
    sample = LevySample(merton_bench, config)
    strikes, tau = np.array([0.5, 0.8, 1.0, 1.25, 2.0]), 2.0
    log_a, a2, tables = sample._prefix
    tail = merton_prefix_tail(log_a[0], a2[0], np.array([tau]), tau * sample.psi0.real, tables)
    row_moneyness = np.exp((tail[0] - math.log(ROUNDING)) / (config.alpha - 1.0))
    assert (np.searchsorted(-row_moneyness, -strikes) + 1).tolist() == [9] * 5
    assert sample.layout_rows == (8,)
    plan = plan_slices(sample, [tau], strikes, 1.0)
    assert plan.shifts.tolist() == [[0] * 5] and plan.rows.tolist() == [[8] * 5]
    assert plan.extents.tolist() == [[config.n - 1] * 5]
    for mode in (MODE_DIRECT_SUM, MODE_FFT_GRID):
        assert np.isfinite(evaluate_slices(sample, [tau], strikes, 1.0, mode=mode).lrm).all()


def test_direct_path_reads_no_unwritten_point(merton_bench, nikkei, fft_bench, monkeypatch):
    # the direct path allocates its blocks uninitialized: filled with NaN,
    # a quote, a 3-strike sweep and a 20-slice direct curve keep their bits
    taus = [0.4 + 0.03 * i for i in range(20)]
    cases = [([0.5], [1.13]), ([0.5], [0.8, 1.0, 1.25]), (taus, [0.85, 1.0, 1.15])]
    want = {}
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        sample = LevySample(model, fft_bench)
        want[model] = [_slice_columns(sample, t, np.multiply(x, spot), spot) for t, x in cases]
    empty, poisoned = np.empty, []

    def nan_empty(shape, dtype=float, **kwargs):
        out = empty(shape, dtype=dtype, **kwargs)
        if np.dtype(dtype).kind == "c":
            poisoned.append(out.shape)
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    for model, spot in ((merton_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        sample = LevySample(model, fft_bench)
        got = [_slice_columns(sample, t, np.multiply(x, spot), spot) for t, x in cases]
        assert got == want[model]
    # every block of both models, the curve's in several
    assert len(poisoned) > 2 * len(cases)


def test_vg_quotes_take_coarse_strides(vg_bench, nikkei, fft_bench):
    # the gain: at the money variance gamma sums every fourth point
    for model, spot in ((vg_bench, 1.0), (nikkei, NIKKEI_SPOT)):
        assert lrm(_q(0.5, spot, spot=spot), model, fft_bench).stride >= 4


def test_moneyness_query_rejects_non_finite(merton_bench, fft_bench):
    with pytest.raises(InvalidParameterError, match="moneyness must be finite"):
        jump_impact(0.1, math.inf, 0.5, merton_bench, fft_bench)
    with pytest.raises(InvalidParameterError, match="tau must be finite"):
        jump_impact(0.1, 1.0, math.nan, merton_bench, fft_bench)
    with pytest.raises(InvalidParameterError, match="tau must be finite"):
        jump_impact(0.1, 1.0, math.inf, merton_bench, fft_bench)
    with pytest.raises(InvalidParameterError, match="moneyness must be finite"):
        jump_impact(0.1, math.nan, 0.5, merton_bench, fft_bench)
    for y in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="jump size y must be finite"):
            jump_impact(y, 1.0, 0.5, merton_bench, fft_bench)
    # a finite jump whose e^{-y} overflows
    with pytest.raises(InvalidParameterError, match="jump size y = -1000 overflows"):
        jump_impact(-1000.0, 1.0, 0.5, merton_bench, fft_bench)


def test_jump_impact_checks_moneyness_then_tau(merton_bench, fft_bench):
    # each moneyness, the jumped one too, is finite and > 0 before tau is
    # checked
    cases = [
        ((0.1, 0.0, math.nan), "moneyness must be > 0"),
        ((0.1, 1.0, 1e-9), "tau = 1e-09 below the supported minimum"),
        ((-700.0, 1e300, 0.5), "moneyness must be finite"),
        ((800.0, 1.0, 0.5), "moneyness must be > 0"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidParameterError, match=message):
            jump_impact(*args, merton_bench, fft_bench)


def test_evaluate_slices_rejects_unknown_mode(merton_bench, fft_bench):
    sample = levy_sample(merton_bench, fft_bench)
    for mode in ("fft", "grid", ""):
        with pytest.raises(InvalidParameterError, match="unknown mode"):
            evaluate_slices(sample, [0.5], [0.9, 1.0, 1.1, 1.2, 1.3], 1.0, mode=mode)


def test_evaluate_slices_rejects_empty_tau_list(merton_bench, fft_bench):
    # no slice, no cell: refused next to the empty strike array
    sample = levy_sample(merton_bench, fft_bench)
    with pytest.raises(InvalidParameterError, match="^need at least one time slice$"):
        evaluate_slices(sample, [], [1.0], 1.0)
    with pytest.raises(InvalidParameterError, match="^need at least one strike$"):
        evaluate_slices(sample, [], [], 1.0)


# the benchmark's random Merton pool model (tests/test_cli.py) whose curve
# slices take strides 1, 2 and 4
POOL_M07 = dict(mu=-4.458045754926255, sigma=0.27144499968954855, gamma=1.7423072206462715,
                m=0.36116203539425684, delta=0.6870599913102832)


def test_plan_table_stacks_one_tau_plans(
    merton_bench, vg_bench, nikkei, random_merton_models, fft_bench
):
    # the plan of n tau, given out of order, is the stack of the n one-tau
    # plans bit for bit, at 1, 5, 29 and 1000 strikes: strides 0 to 2 and
    # Merton prefix rows, heavy-tailed Merton draws, and variance gamma,
    # whose rows span every layout
    merton_taus, vg_taus = [0.5, 0.05, 0.95, 0.25, 1.0], [0.9, 0.4, 1.0, 0.6, 0.45]
    cases = [(merton_bench, 1.0, merton_taus), (MertonParams(**POOL_M07), 1.0, merton_taus)]
    cases += [(model, 1.0, merton_taus) for model in random_merton_models[:5]]
    cases += [(vg_bench, 1.0, vg_taus), (nikkei, NIKKEI_SPOT, vg_taus)]
    moneyness = [[1.13], [0.8, 1.0, 1.25, 20.0, math.exp(63.0)], np.linspace(0.6, 1.4, 29),
                 np.geomspace(0.7, 30.0, 1000)]
    for model, spot, taus in cases:
        sample = levy_sample(model, fft_bench)
        full_rows = np.array(sample.layout_rows)
        for x in moneyness:
            strikes = spot * np.asarray(x, dtype=float)
            table = plan_slices(sample, taus, strikes, spot)
            alone = [plan_slices(sample, [tau], strikes, spot) for tau in taus]
            for name, got in zip(table._fields, table):
                want = np.concatenate([getattr(plan, name) for plan in alone])
                assert got.shape == (len(taus), strikes.size) and got.dtype == want.dtype
                assert np.array_equal(got, want), name
            prefix = table.rows < full_rows[table.shifts]
            assert prefix.all() if isinstance(model, MertonParams) else not prefix.any()
            if model is merton_bench and len(x) == 5:
                assert set(table.shifts.ravel().tolist()) == {0, 1, 2}


def _cached_outputs(capsys, model, spot: float, config: FftConfig) -> list:
    """A quote, a 29-strike sweep and a 4 x 29 ``levyhedge curve`` CSV on
    one (model, config), as reprs, so that equal outputs have equal bits."""
    strikes = (np.linspace(0.6, 1.4, 29) * spot).tolist()
    quote = lrm(_q(0.5, 1.13 * spot, spot=spot), model, config)
    sweep = lrm_strike_sweep(model, config, t=0.5, T=1.0, spot=spot, strikes=strikes)
    kind = "merton" if isinstance(model, MertonParams) else "vg"
    keys = [f"model.kind={kind}"] + [f"model.{k}={v!r}" for k, v in vars(model).items()]
    keys += [f"fft.{k}={v!r}" for k, v in vars(config).items()]
    keys += ["query.T=1", "query.t_grid=0:0.6:0.2", f"query.spot={spot!r}",
             "query.strike_grid=" + ",".join(map(repr, strikes))]
    assert main(["curve"] + [flag for key in keys for flag in ("--set", key)]) == 0
    return [repr(quote), repr(sweep), capsys.readouterr().out]


def test_model_tables_cache_keeps_bits(merton_bench, nikkei, fft_bench, capsys):
    # a quote, a sweep and a curve give the same bits on a cold cache, on
    # the warm entry of their (model, config), and after another model
    seeded_vg = sample_vg(np.random.default_rng(20240212))
    cases = [(merton_bench, 1.0), (nikkei, NIKKEI_SPOT), (seeded_vg, 1.0)]
    colds = []
    for model, spot in cases:
        _shared_sample.cache_clear()
        colds.append(_cached_outputs(capsys, model, spot, fft_bench))
        assert _cached_outputs(capsys, model, spot, fft_bench) == colds[-1]
    for (model, spot), cold in zip(cases, colds):
        assert _cached_outputs(capsys, model, spot, fft_bench) == cold
    (a, spot_a), (b, spot_b) = cases[:2]
    _shared_sample.cache_clear()
    _cached_outputs(capsys, a, spot_a, fft_bench)
    _cached_outputs(capsys, b, spot_b, fft_bench)
    assert _cached_outputs(capsys, a, spot_a, fft_bench) == colds[0]


def test_model_tables_cache_key(merton_bench, fft_bench):
    # equal models and configs share one sample; another eta or another
    # model field is another entry
    _shared_sample.cache_clear()
    first = levy_sample(merton_bench, fft_bench)
    twin = MertonParams(**vars(merton_bench))
    assert twin is not merton_bench
    second = levy_sample(twin, FftConfig(**vars(fft_bench)))
    assert second.floors is first.floors
    info = _shared_sample.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    levy_sample(merton_bench, dataclasses.replace(fft_bench, eta=0.05))
    levy_sample(dataclasses.replace(merton_bench, mu=-0.8), fft_bench)
    info = _shared_sample.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 3)
    # a model of another type is refused as before, hashable or not
    for other in (vars(merton_bench), "merton"):
        with pytest.raises(ModelMismatchError, match="unsupported model type"):
            levy_sample(other, fft_bench)


def test_model_tables_cache_is_bounded(merton_bench, fft_bench):
    _shared_sample.cache_clear()
    maxsize = _shared_sample.cache_info().maxsize
    for i in range(maxsize + 5):
        levy_sample(dataclasses.replace(merton_bench, mu=-0.7 - 1e-3 * i), fft_bench)
    info = _shared_sample.cache_info()
    assert (info.misses, info.currsize) == (maxsize + 5, maxsize)


def _arrays(value) -> list:
    """Every numpy array inside a value of the shared sample."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    if isinstance(value, AliasFloors):
        return _arrays(list(vars(value).values()))
    return []


def test_model_tables_are_read_only(merton_bench, nikkei, fft_bench):
    # on a new sample of each pair, so that the count does not depend on
    # what earlier tests sampled: the tables, then the held Psi and, for
    # Merton, the jump weight
    for model, count, held in (
        (merton_bench, 6 + 2 * (coarsest_shift(fft_bench) + 1), 2), (nikkei, 5, 1),
    ):
        sample = LevySample(model, fft_bench)
        assert len(_arrays(list(vars(sample).values()))) == count
        evaluate_slices(sample, [0.5], [1.0], 1.0)
        arrays = _arrays(list(vars(sample).values()))
        assert len(arrays) == count + held
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0
        with pytest.raises(TypeError):
            sample.kinds["jump"] = (1.0,)
        with pytest.raises(ValueError, match="read-only"):
            sample.floors.rate[0] = 0.0


def test_second_quote_builds_no_tables(merton_bench, nikkei, fft_bench, monkeypatch):
    # the tau-free tables are built on the first quote of a (model, config)
    # only; a second quote at another t, strike and spot reads them
    module = sys.modules["levyhedge.lrm"]
    calls = []
    for name in ("mmm_quantities", "merton_alias_tables", "vg_alias_tables", "AliasFloors"):
        real = getattr(module, name)
        counted = lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        monkeypatch.setattr(module, name, counted)
    _shared_sample.cache_clear()
    for model, spot, alias in (
        (merton_bench, 1.0, "merton_alias_tables"), (nikkei, NIKKEI_SPOT, "vg_alias_tables"),
    ):
        lrm(_q(0.5, 1.1 * spot, spot=spot), model, fft_bench)
        assert calls == ["mmm_quantities", alias, "AliasFloors"]
        calls.clear()
        lrm(_q(0.2, 0.9 * spot, spot=2.0 * spot), model, fft_bench)
        assert calls == []
