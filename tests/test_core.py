import dataclasses
import math
import re

import numpy as np
import pytest

from levyhedge import (
    AssumptionError,
    InvalidParameterError,
    MarketQuery,
    MertonParams,
    VgParams,
    lrm,
    martingale_drift,
    mmm_quantities,
    quadratic_exp_moment,
    validate_assumptions,
)
from levyhedge.cli import EXIT_USAGE, EXIT_VALIDATION, main
from levyhedge.oracle import levy_moment, merton_mmm_measure

from conftest import NIKKEI_CGM, sample_vg


def test_merton_bench_drift(merton_bench):
    mu_s = martingale_drift(merton_bench)
    assert mu_s == pytest.approx(-0.0312787292998717, abs=1e-12)
    # rounded headline value
    assert abs(mu_s - (-0.0313)) < 0.0005


def test_merton_drift_without_jumps():
    model = MertonParams(mu=-0.1, sigma=0.3, gamma=0.0, m=0.0, delta=1.0)
    assert martingale_drift(model) == pytest.approx(-0.1 + 0.045, abs=1e-15)


def test_vg_drift_matches_quadrature(vg_bench):
    closed = martingale_drift(vg_bench)
    numeric = levy_moment(vg_bench, lambda x: math.exp(x) - 1.0 - x) + levy_moment(
        vg_bench, lambda x: x
    )
    assert abs(numeric - closed) / abs(closed) < 1e-8


def test_merton_quadratic_moment_closed_form():
    model = MertonParams(mu=-0.7, sigma=0.2, gamma=1.0, m=0.0, delta=1.0)
    expected = math.e**2 - 2.0 * math.exp(0.5) + 1.0
    assert quadratic_exp_moment(model) == pytest.approx(expected, rel=1e-14)
    assert quadratic_exp_moment(model) == pytest.approx(5.0916135, abs=1e-6)


def test_quadratic_moment_vanishes_without_jumps():
    model = MertonParams(mu=-0.02, sigma=0.2, gamma=0.0, m=0.0, delta=1.0)
    assert quadratic_exp_moment(model) == 0.0


def test_vg_quadratic_moment_vs_quadrature(nikkei):
    closed = quadratic_exp_moment(nikkei)
    numeric = levy_moment(nikkei, lambda x: (math.exp(x) - 1.0) ** 2)
    assert abs(numeric - closed) / closed < 1e-8


def test_mmm_h_benchmark(merton_bench):
    mm = mmm_quantities(merton_bench)
    assert mm.h == pytest.approx(mm.mu_s / (0.04 + mm.quad_exp_moment), rel=1e-15)
    assert mm.h == pytest.approx(-0.0312787293 / 5.1316135575, abs=1e-9)
    assert mm.h == pytest.approx(-0.006095, abs=1e-6)


def test_mmm_boundary_drift_zero():
    # mu chosen so mu_S = 0 exactly: identity measure change
    sigma, gamma, m, delta = 0.25, 0.8, 0.1, 0.6
    jump = gamma * (math.exp(m + 0.5 * delta**2) - 1.0 - m)
    model = MertonParams(mu=-0.5 * sigma**2 - jump, sigma=sigma, gamma=gamma, m=m, delta=delta)
    mm = mmm_quantities(model)
    assert mm.h == 0.0
    assert mm.mu_s == 0.0
    mixture = merton_mmm_measure(model, mm.h)
    assert mixture.components[1].intensity == 0.0
    assert mixture.components[0].intensity == pytest.approx(gamma, rel=1e-15)
    # with h = 0 the tilted drift equals the original log-price drift
    assert mm.mu_star == pytest.approx(model.mu, rel=1e-12)


def test_vg_h_matches_oracle_ratio(vg_bench):
    mm = mmm_quantities(vg_bench)
    num = levy_moment(vg_bench, lambda x: math.exp(x) - 1.0 - x) + levy_moment(
        vg_bench, lambda x: x
    )
    den = levy_moment(vg_bench, lambda x: (math.exp(x) - 1.0) ** 2)
    assert abs(num / den - mm.h) < 1e-10


def test_validate_merton_bench(merton_bench):
    report = validate_assumptions(merton_bench)
    assert report.passed
    mu_s = martingale_drift(merton_bench)
    assert -(0.04 + quadratic_exp_moment(merton_bench)) < mu_s <= 0.0


def test_validate_nikkei(nikkei):
    report = validate_assumptions(nikkei)
    assert report.passed
    assert nikkei.g_minus_m == pytest.approx(-1.16, abs=0.005)


def test_validate_merton_positive_drift_fails():
    model = MertonParams(mu=0.5, sigma=0.2, gamma=1.0, m=0.0, delta=1.0)
    report = validate_assumptions(model)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert any("nonpositive" in n for n in names)
    with pytest.raises(AssumptionError):
        mmm_quantities(model)


@pytest.mark.parametrize(
    "overrides", [dict(delta=19.0), dict(delta=19.0, gamma=0.0), dict(m=354.0)]
)
def test_validate_merton_moments_overflow(merton_bench, fft_bench, capsys, overrides):
    # exp(2m + 2 delta^2) past a double fails the moment condition alone,
    # with its negative headroom as slack, instead of raising OverflowError
    model = dataclasses.replace(merton_bench, **overrides)
    report = validate_assumptions(model)
    assert not report.passed
    [cond] = report.conditions
    assert cond.name == "exponential moments finite" and cond.slack < 0.0
    with pytest.raises(AssumptionError, match="must fit in a double"):
        lrm(MarketQuery(0.5, 1.0, 1.0, 1.0), model, fft_bench)
    argv = ["validate", "--set", "model.kind=merton"] + [
        f"--set=model.{key}={getattr(model, key)!r}" for key in ("mu", "sigma", "gamma", "m", "delta")
    ]
    assert main(argv) == EXIT_VALIDATION
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("[FAIL] exponential moments finite: slack=-")


def test_cgm_from_kmd_benchmark_values():
    p = VgParams(kappa=0.15, m=-0.2, delta=0.45)
    c, g, m = p.C, p.G, p.M
    assert c == pytest.approx(6.6666667, abs=1e-6)
    assert g == pytest.approx(7.1866395, abs=1e-6)
    assert m == pytest.approx(9.1619481, abs=1e-6)


def test_cgm_symmetric_when_m_zero():
    p = VgParams(kappa=0.2, m=0.0, delta=0.3)
    c, g, m = p.C, p.G, p.M
    assert g == pytest.approx(m, rel=1e-15)
    # symmetric tails fail the drift condition
    assert not validate_assumptions(VgParams(kappa=0.2, m=0.0, delta=0.3)).passed


def test_cgm_roundtrip_table1():
    params = VgParams.from_cgm(*NIKKEI_CGM)
    assert params.kappa == pytest.approx(0.404958, abs=1e-6)
    assert params.C == pytest.approx(NIKKEI_CGM[0], rel=1e-12)
    assert params.G == pytest.approx(NIKKEI_CGM[1], rel=1e-12)
    assert params.M == pytest.approx(NIKKEI_CGM[2], rel=1e-12)


def test_cgm_roundtrip_randomized(random_vg_models):
    for model in random_vg_models:
        c, g, m = model.C, model.G, model.M
        back = VgParams.from_cgm(c, g, m)
        assert back.kappa == pytest.approx(model.kappa, rel=1e-12)
        assert back.m == pytest.approx(model.m, rel=1e-12, abs=1e-15)
        assert back.delta == pytest.approx(model.delta, rel=1e-12)


def test_h_range_and_sign_randomized(random_merton_models, random_vg_models):
    for model in random_merton_models + random_vg_models:
        mm = mmm_quantities(model)
        assert -1.0 < mm.h <= 0.0
        assert np.sign(mm.h) == np.sign(mm.mu_s)
        assert mm.quad_exp_moment > 0.0
        assert math.isfinite(mm.quad_exp_moment)


def test_quadratic_moment_vs_oracle_randomized(random_merton_models, random_vg_models):
    for model in random_merton_models[:20] + random_vg_models[:20]:
        closed = quadratic_exp_moment(model)
        numeric = levy_moment(model, lambda x: (math.exp(x) - 1.0) ** 2)
        assert abs(numeric - closed) / closed < 1e-8


def test_vg_validation_boolean_logic():
    cases = [
        ((1.0, 6.0, 7.5), True),  # M > 4, G - M = -1.5
        ((1.0, 6.0, 5.5), False),  # G - M = +0.5 > -1
        ((1.0, 2.0, 3.0), False),  # M <= 4
        ((1.0, 3.0, 6.5), False),  # G - M = -3.5 <= -3
        ((1.0, 4.1, 5.1), True),  # boundary-ish: M > 4, G - M = -1.0
    ]
    for (c, g, m), expected in cases:
        report = validate_assumptions(VgParams.from_cgm(c, g, m))
        boolean = (m > 4.0) and (-3.0 < g - m <= -1.0 + 1e-9)
        assert report.passed == expected == boolean


def test_market_query_validation():
    q = MarketQuery(t=0.25, T=1.0, spot=2.0, strike=3.0)
    assert q.tau == 0.75
    assert q.moneyness == 1.5
    with pytest.raises(InvalidParameterError):
        MarketQuery(t=1.0, T=1.0, spot=1.0, strike=1.0)  # tau below minimum
    with pytest.raises(InvalidParameterError):
        MarketQuery(t=0.0, T=1.0, spot=-1.0, strike=1.0)
    with pytest.raises(InvalidParameterError):
        MarketQuery(t=0.0, T=1.0, spot=1.0, strike=0.0)


def test_parameter_positivity():
    with pytest.raises(InvalidParameterError):
        MertonParams(mu=0.0, sigma=0.0, gamma=1.0, m=0.0, delta=1.0)
    with pytest.raises(InvalidParameterError):
        MertonParams(mu=0.0, sigma=0.2, gamma=-1.0, m=0.0, delta=1.0)
    with pytest.raises(InvalidParameterError):
        VgParams(kappa=0.0, m=0.0, delta=0.3)
    with pytest.raises(InvalidParameterError):
        VgParams(kappa=0.1, m=0.0, delta=0.0)
    with pytest.raises(InvalidParameterError):
        VgParams.from_cgm(1.0, -2.0, 5.0)


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("merton", dict(mu=-0.7, sigma=1e200, gamma=1.0, m=0.0, delta=1.0)),
        ("merton", dict(mu=-0.7, sigma=1e-170, gamma=1.0, m=0.0, delta=1.0)),
        ("vg", dict(kappa=0.15, m=-0.2, delta=1e-170)),
    ],
    ids=["merton-sigma-overflow", "merton-sigma-underflow", "vg-delta-underflow"],
)
def test_volatility_square_must_be_finite_and_positive(capsys, kind, keys):
    # a sigma or delta whose square overflows or rounds to 0 is refused when
    # the model is built, so validate and curve exit 2 with one error line
    # instead of an OverflowError, a math domain error or a ZeroDivisionError
    name, constructor = ("sigma", MertonParams) if kind == "merton" else ("delta", VgParams)
    with pytest.raises(InvalidParameterError, match=rf"^{name}\^2 = (inf|0) must be a positive"):
        constructor(**keys)
    argv = [f"--set=model.kind={kind}"] + [f"--set=model.{k}={v!r}" for k, v in keys.items()]
    for command in ("validate", "curve"):
        assert main([command, *argv, "--set=query.t=0.5", "--set=query.strike=1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: {name}\^2 = (inf|0) must be a positive finite double\n",
                            captured.err)


def test_hedge_denominator_rounding_to_zero(fft_bench, capsys):
    # kappa = 1e-20 passes every variance-gamma condition, but int (e^x-1)^2 nu
    # rounds to 0, so no slope h exists: an AssumptionError (exit 1), not a
    # ZeroDivisionError
    model = VgParams(kappa=1e-20, m=-0.04, delta=0.2)
    assert validate_assumptions(model).passed and quadratic_exp_moment(model) == 0.0
    message = "hedge denominator sigma^2 + int (e^x-1)^2 nu = 0 must be > 0"
    with pytest.raises(AssumptionError, match=re.escape(message)):
        mmm_quantities(model)
    with pytest.raises(AssumptionError, match=re.escape(message)):
        lrm(MarketQuery(0.5, 1.0, 1.0, 1.0), model, fft_bench)
    argv = ["--set=model.kind=vg", "--set=model.kappa=1e-20", "--set=model.m=-0.04",
            "--set=model.delta=0.2", "--set=query.t=0.5", "--set=query.strike=1"]
    for command in ("validate", "curve"):
        assert main([command, *argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "kind, keys, radicand",
    [
        ("vg-cgm", dict(C=1e-153, G=20.0, M=22.0), "9.11157e-309"),
        ("vg-cgm", dict(C=1e-160, G=20.0, M=22.0), "8.89318e-323"),
        ("vg-cgm", dict(C=1e-200, G=20.0, M=22.0), "0"),
        ("vg-cgm", dict(C=1e-300, G=20.0, M=22.0), "0"),
        ("vg", dict(kappa=0.15, m=1e200, delta=0.45), "inf"),
    ],
    ids=["C-1e-153", "C-1e-160", "C-1e-200", "C-1e-300", "m-1e200"],
)
def test_vg_root_must_be_a_normal_double(capsys, kind, keys, radicand):
    # G and M take sqrt(m^2 + 2 delta^2 / kappa): below the normal range
    # it has lost digits (C = 1e-160 gave G = 19.7468 for G = 20, C = 1e-200
    # gave M = 1), and past it G = M = inf, so the model is refused when it
    # is built, and validate and curve exit 2 with one error line
    build = VgParams.from_cgm if kind == "vg-cgm" else VgParams
    message = rf"^m\^2 \+ 2 delta\^2 / kappa = {radicand} at kappa = .*, m = .*, delta = .* "
    message += "is not a normal double, so G and M would lose precision$"
    with pytest.raises(InvalidParameterError, match=message):
        build(**keys)
    argv = [f"--set=model.kind={kind}"] + [f"--set=model.{k}={v!r}" for k, v in keys.items()]
    for command in ("validate", "curve"):
        assert main([command, *argv, "--set=query.t=0.5", "--set=query.strike=1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch("error: " + message[1:-1] + "\n", captured.err)


def test_vg_root_keeps_normal_models():
    # the last C whose root is a normal double still gives G and M to
    # rounding, and every model the samplers and the benchmarks draw passes
    for c in (1e-150, 1e-152):
        model = VgParams.from_cgm(c, 20.0, 22.0)
        assert model.G == pytest.approx(20.0, rel=1e-15)
        assert model.M == pytest.approx(22.0, rel=1e-15)
    assert VgParams.from_cgm(1e-150, 20.0, 22.0).G == 20.0
    rng = np.random.default_rng(1)
    for _ in range(200):
        sample_vg(rng)
    VgParams.from_cgm(*NIKKEI_CGM)
    VgParams(kappa=1e-20, m=-0.04, delta=0.2)
