"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import time

import numpy as np

from levyhedge import (
    FftConfig,
    MarketQuery,
    lrm,
    lrm_by_moneyness,
    lrm_strike_sweep,
    martingale_drift,
    mmm_quantities,
    trapezoid_weights,
    vg_mmm_measure,
)
from levyhedge.lrm import MODE_FFT_GRID, MoneynessQuery
from levyhedge.oracle import (
    i1_tail_mass,
    i2_tail_mass,
    lk_char_fn,
    merton_char_fn,
    merton_mmm_measure,
    naive_dft,
    oracle_lrm,
    vg_char_fn,
)

from conftest import NIKKEI_SPOT, trunc_points

TAUS = (0.05, 0.25, 0.5, 1.0)
ALPHA = 1.75
EPS = 1e-2
SPAN = 2**14 * 0.025  # 409.6


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {name}"
    if detail:
        line += f" | {detail}"
    print(line)


def test_criterion_1_martingale_identity(merton_bench, vg_bench, fft_bench):
    started = time.perf_counter()
    worst_closed = 0.0
    worst_oracle = 0.0

    mm = mmm_quantities(merton_bench)
    mixture = merton_mmm_measure(merton_bench, mm.h)
    mm_v = mmm_quantities(vg_bench)
    pair = vg_mmm_measure(vg_bench, mm_v.h)
    for tau in TAUS:
        worst_closed = max(
            worst_closed,
            abs(merton_char_fn(-1j, tau, merton_bench, mm) - 1.0),
            abs(vg_char_fn(-1j, tau, vg_bench, pair, mm_v.mu_star) - 1.0),
        )
        worst_oracle = max(
            worst_oracle,
            abs(lk_char_fn(-1j, tau, mixture, mm.mu_star, merton_bench.sigma) - 1.0),
            abs(lk_char_fn(-1j, tau, pair, mm_v.mu_star, 0.0) - 1.0),
        )
    elapsed = time.perf_counter() - started
    ok = worst_closed < 1e-10 and worst_oracle < 1e-6 and elapsed < 1.0
    _report(
        1,
        "martingale identity",
        ok,
        f"closed {worst_closed:.2e}, oracle {worst_oracle:.2e}, {elapsed:.2f} s",
    )
    assert worst_closed < 1e-10
    assert worst_oracle < 1e-6
    assert elapsed < 1.0


def test_criterion_2_fft_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    n = 2
    while n <= 1024:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        # the transform production calls (carr_madan_grid) is np.fft.fft
        worst = max(worst, float(np.max(np.abs(np.fft.fft(x) - naive_dft(x)))))
        n *= 2
    eta = 0.025
    j = np.arange(64)
    expected = eta * (1.0 - 0.5 * (j == 0))
    weights_ok = np.array_equal(trapezoid_weights(64, eta), expected)
    ok = worst < 1e-12 and weights_ok
    _report(2, "FFT vs naive DFT and trapezoid weights", ok, f"max err {worst:.2e}")
    assert worst < 1e-12
    assert weights_ok


def test_criterion_3_truncation_reproduction(merton_bench, vg_bench, nikkei):
    t_grid = [round(0.05 * i, 2) for i in range(20)]
    k_grid = [1.0 + 0.25 * i for i in range(29)]
    worst = 0.0

    for t in t_grid:
        worst = max(worst, *trunc_points(merton_bench, 1.0 - t, 1.0, 1.0))
    for strike in k_grid:
        worst = max(worst, *trunc_points(merton_bench, 0.5, strike, 1.0))

    for t in t_grid:
        worst = max(worst, *trunc_points(vg_bench, 1.0 - t, 1.0, 1.0))
    for strike in k_grid:
        worst = max(worst, *trunc_points(vg_bench, 0.5, strike, 1.0))

    for strike in range(10000, 21000, 1000):
        worst = max(worst, *trunc_points(nikkei, 0.5, float(strike), NIKKEI_SPOT))

    bounds_ok = worst <= SPAN

    # numerically integrated tails beyond the solved thresholds
    tails = []
    q_m = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    a1, a2 = trunc_points(merton_bench, 0.5, 1.0, 1.0)
    tails.append(i1_tail_mass(a1, q_m, merton_bench, ALPHA))
    tails.append(i2_tail_mass(a2, q_m, merton_bench, ALPHA))
    q_m_short = MarketQuery(t=0.95, T=1.0, spot=1.0, strike=1.0)
    b1, b2 = trunc_points(merton_bench, 0.05, 1.0, 1.0)
    tails.append(i1_tail_mass(b1, q_m_short, merton_bench, ALPHA))
    tails.append(i2_tail_mass(b2, q_m_short, merton_bench, ALPHA))
    q_v = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    tails.append(
        i2_tail_mass(trunc_points(vg_bench, 0.5, 1.0, 1.0)[0], q_v, vg_bench, ALPHA)
    )
    q_n = MarketQuery(t=0.5, T=1.0, spot=NIKKEI_SPOT, strike=14000.0)
    tails.append(
        i2_tail_mass(trunc_points(nikkei, 0.5, 14000.0, NIKKEI_SPOT)[0], q_n, nikkei, ALPHA)
    )
    tails_ok = max(tails) < EPS

    ok = bounds_ok and tails_ok
    _report(
        3,
        "truncation thresholds within N*eta = 409.6 and tails below eps",
        ok,
        f"max threshold {worst:.1f}, max tail {max(tails):.2e}",
    )
    assert bounds_ok
    assert tails_ok


def test_criterion_4_oracle_equivalence(merton_bench, vg_bench, nikkei, fft_bench):
    started = time.perf_counter()
    merton_points = [
        (0.5, 1.0),  # benchmark point
        (0.1, 1.0),
        (0.25, 1.25),
        (0.3, 0.9),
        (0.5, 1.5),
        (0.5, 2.5),
        (0.6, 0.8),
        (0.7, 1.1),
        (0.8, 1.6),
        (0.9, 1.0),
    ]
    vg_points = [
        (vg_bench, 0.1, 1.0, 1.0),
        (vg_bench, 0.3, 0.8, 1.0),
        (vg_bench, 0.5, 1.0, 1.0),
        (vg_bench, 0.5, 1.6, 1.0),
        (vg_bench, 0.7, 1.2, 1.0),
        (vg_bench, 0.9, 1.0, 1.0),
        (nikkei, 0.5, 14000.0, NIKKEI_SPOT),  # benchmark point
        (nikkei, 0.3, 15000.0, NIKKEI_SPOT),
        (nikkei, 0.4, 13000.0, NIKKEI_SPOT),
        (nikkei, 0.6, 16000.0, NIKKEI_SPOT),
    ]
    worst = 0.0
    for t, strike in merton_points:
        q = MarketQuery(t=t, T=1.0, spot=1.0, strike=strike)
        got = lrm(q, merton_bench, fft_bench).lrm
        ref = oracle_lrm(q, merton_bench)
        worst = max(worst, abs(got - ref) / abs(ref))
    for model, t, strike, spot in vg_points:
        q = MarketQuery(t=t, T=1.0, spot=spot, strike=strike)
        got = lrm(q, model, fft_bench).lrm
        ref = oracle_lrm(q, model)
        worst = max(worst, abs(got - ref) / abs(ref))
    # the grid path too, at the benchmark point whose log-strike sits on a
    # grid node (off-node strikes pick up linear-interpolation error and
    # are served by direct summation, which the single queries above use):
    # a 5-strike sweep takes the grid
    q = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    sweep = lrm_strike_sweep(
        merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=[0.8, 0.9, 1.0, 1.1, 1.2]
    )
    assert sweep[2].mode == MODE_FFT_GRID
    ref = oracle_lrm(q, merton_bench)
    worst = max(worst, abs(sweep[2].lrm - ref) / ref)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 60.0
    _report(
        4,
        "transform pipeline matches quadrature oracle at 20 (t, K) points",
        ok,
        f"worst rel err {worst:.2e}, {elapsed:.1f} s",
    )
    assert worst < 1e-3
    assert elapsed < 60.0


def test_criterion_5_scalar_reproduction(merton_bench, nikkei):
    mu_s = martingale_drift(merton_bench)
    g_minus_m = nikkei.g_minus_m
    ok = abs(mu_s - (-0.0313)) < 0.0005 and abs(g_minus_m - (-1.160)) < 0.005
    _report(
        5,
        "headline scalars",
        ok,
        f"mu_S = {mu_s:.6f} (target -0.0313+/-0.0005), G-M = {g_minus_m:.4f} "
        "(target -1.160+/-0.005)",
    )
    assert abs(mu_s - (-0.0313)) < 0.0005
    assert abs(g_minus_m - (-1.160)) < 0.005


def test_criterion_6_property_suite(merton_bench, vg_bench, nikkei, fft_bench):
    # alpha invariance
    spreads = []
    cases = [
        (merton_bench, MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)),
        (vg_bench, MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)),
        (nikkei, MarketQuery(t=0.5, T=1.0, spot=NIKKEI_SPOT, strike=14000.0)),
    ]
    for model, q in cases:
        vals = [
            lrm(
                q,
                model,
                FftConfig(n=fft_bench.n, eta=fft_bench.eta, alpha=a, eps=fft_bench.eps),
            ).lrm
            for a in (1.25, 1.75, 2.0)
        ]
        spreads.append(max(vals) - min(vals))
    alpha_ok = max(spreads) < 1e-5

    # moneyness invariance
    rng = np.random.default_rng(1234)
    worst_mon = 0.0
    for model in (merton_bench, vg_bench):
        for _ in range(4):
            spot = rng.uniform(0.5, 20.0)
            m = rng.uniform(0.6, 1.8)
            tau = rng.uniform(0.25, 1.0)
            lhs = lrm(MarketQuery(t=0.0, T=tau, spot=spot, strike=m * spot), model, fft_bench).lrm
            rhs = lrm_by_moneyness(MoneynessQuery(m, tau), model, fft_bench)
            worst_mon = max(worst_mon, abs(lhs - rhs))
    moneyness_ok = worst_mon < 1e-8

    # deep in-the-money limit
    itm = [
        lrm_by_moneyness(0.01, model, fft_bench, tau=0.5)
        for model in (merton_bench, vg_bench)
    ]
    itm_ok = all(0.97 <= v <= 1.0 for v in itm)

    # strict monotone decrease on the benchmark strike sweeps
    sweep_m = lrm_strike_sweep(
        merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0,
        strikes=[1.0 + 0.25 * i for i in range(29)],
    )
    sweep_n = lrm_strike_sweep(
        nikkei, fft_bench, t=0.5, T=1.0, spot=NIKKEI_SPOT,
        strikes=[10000.0 + 1000.0 * i for i in range(11)],
    )
    mono_ok = all(
        b.lrm < a.lrm for a, b in zip(sweep_m, sweep_m[1:])
    ) and all(b.lrm < a.lrm for a, b in zip(sweep_n, sweep_n[1:]))

    ok = alpha_ok and moneyness_ok and itm_ok and mono_ok
    _report(
        6,
        "property suite",
        ok,
        f"alpha spread {max(spreads):.2e}, moneyness diff {worst_mon:.2e}, "
        f"deep-ITM {min(itm):.6f}, monotone {mono_ok}",
    )
    assert alpha_ok
    assert moneyness_ok
    assert itm_ok
    assert mono_ok


def test_criterion_7_performance(merton_bench, nikkei, fft_bench):
    strikes_m = [1.0 + 0.25 * i for i in range(29)]
    strikes_n = [10000.0 + 1000.0 * i for i in range(11)]
    # warm-up so one-time numpy setup does not pollute the measurement
    lrm_strike_sweep(merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=strikes_m[:2])

    started = time.perf_counter()
    sweep_m = lrm_strike_sweep(
        merton_bench, fft_bench, t=0.5, T=1.0, spot=1.0, strikes=strikes_m
    )
    merton_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    sweep_n = lrm_strike_sweep(
        nikkei, fft_bench, t=0.5, T=1.0, spot=NIKKEI_SPOT, strikes=strikes_n
    )
    vg_elapsed = time.perf_counter() - started

    ok = merton_elapsed < 5.0 and vg_elapsed < 5.0 and len(sweep_m) == 29 and len(sweep_n) == 11
    _report(
        7,
        "sweep performance",
        ok,
        f"29-strike sweep {merton_elapsed:.3f} s, 11-strike sweep {vg_elapsed:.3f} s",
    )
    assert len(sweep_m) == 29 and len(sweep_n) == 11
    assert merton_elapsed < 5.0
    assert vg_elapsed < 5.0
