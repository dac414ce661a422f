"""Hedge-ratio assembly.

The local risk-minimization ratio for a call struck at K is

    (sigma^2 I1 + I2) / (S (sigma^2 + int (e^x - 1)^2 nu(dx))),

where I1 is the stock-or-nothing expectation and I2 the jump term, both
taken under the tilted measure and both computed from damped Fourier
transforms of the characteristic function.  For the pure-jump variance
gamma model sigma = 0, so I1 never enters and is skipped entirely.

The models are Levy, so phi_tau = exp(tau Psi): the exponent Psi and the
tau-free kernel factors are sampled on the contour once per (model,
config, spot), and each time slice costs one exponential plus one
multiply per kernel kind.  Within a slice the strike enters only through
the e^{-i eta j k} phase, so ``TransformContext.evaluate`` takes all
strikes of a slice as one array: single quotes, strike sweeps, ``curve``
slices and jump impacts all go through it.  The path follows the strike
count: up to four strikes take exact direct sums (O(sqrt N)
exponentials plus O(N) multiply-adds per strike), more share one FFT
grid per kernel kind, read by one interpolation per (kind, strike
shift).  ``LrmResult.mode`` reports which path ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    TAU_MIN,
    InvalidParameterError,
    MarketQuery,
    MertonParams,
    MmmQuantities,
    Model,
    ModelMismatchError,
    TailConditionError,
    _require,
    _require_finite,
    levy_char_fn,
    mmm_quantities,
    time_to_maturity,
)
from .fft_engine import (
    CarrMadanGrid,
    FftConfig,
    carr_madan_grid,
    direct_simpson_sum,
    tail_condition_check,
)
from .merton import (
    KERNEL_DAMPED,
    gaussian_damping,
    merton_c1,
    merton_exponent,
    merton_i2_terms,
    merton_trunc_i1,
    merton_trunc_i2,
)
from .variance_gamma import (
    VgContourLogs,
    vg_c2,
    vg_i2_weights,
    vg_mmm_measure,
    vg_trunc,
)

MODE_FFT_GRID = "fft-grid"
MODE_DIRECT_SUM = "direct-sum"

# a handful of strikes is cheaper by direct summation than by building
# interpolation grids
_DIRECT_SUM_MAX_STRIKES = 4


@dataclass(frozen=True)
class LrmResult:
    """Hedge ratio with its building blocks and diagnostics.

    The ratio is never clamped: values outside [0, 1] are reported with
    ``out_of_range`` set so discretization pathologies stay visible.
    """

    lrm: float
    i1: Optional[float]
    i2: float
    trunc_a: float
    mode: str
    config: FftConfig
    out_of_range: bool


@dataclass(frozen=True)
class MoneynessQuery:
    """Strike-over-spot ratio plus time to maturity; the hedge ratio
    depends on (t, S, K) only through these two numbers."""

    moneyness: float
    tau: float

    def __post_init__(self) -> None:
        _require(self.moneyness > 0.0, "moneyness must be > 0")
        if self.tau < TAU_MIN:
            raise InvalidParameterError(
                f"tau = {self.tau:g} below the supported minimum {TAU_MIN:g}"
            )


class LevySample:
    """Contour samples shared by every time slice of one (model, config, spot).

    ``psi`` is the Levy exponent, so a slice's characteristic function is
    exp(tau psi).  ``factors`` holds the tau-free kernel factors:
    ``indicator`` e^{i zeta log S} / (i zeta - 1) (times phi: psi1,
    stock-or-nothing), ``call`` indicator / (i zeta) (psi2), ``damped``
    call times the Gaussian factor (Merton shifted-strike terms) and
    ``kernel`` call times the jump-kernel weight (variance gamma).
    """

    def __init__(self, model: Model, config: FftConfig, spot: float):
        _require_finite("spot", spot)
        _require(spot > 0.0, "spot must be > 0")
        self.model = model
        self.config = config
        self.spot = spot
        self.mmm = mmm_quantities(model)

        zeta = config.zeta_grid()
        iz = 1j * zeta
        indicator = np.exp(iz * math.log(spot)) / (iz - 1.0)
        call = indicator / iz
        if isinstance(model, MertonParams):
            self.psi = merton_exponent(zeta, model, self.mmm)
            damped = call * gaussian_damping(zeta, model.delta)
            self.factors = {"indicator": indicator, "call": call, "damped": damped}
        else:
            # Psi and the jump kernel share the four contour logs
            logs = VgContourLogs(zeta, model.G, model.M)
            self.psi = logs.exponent(vg_mmm_measure(model, self.mmm.h), self.mmm.mu_star)
            self.vg_weights = vg_i2_weights(model)
            self.factors = {"call": call, "kernel": logs.kernel(model.C) * call}


class SliceBounds:
    """Frequency truncation points of one time slice, from scalars only:
    the envelope constant (C1 for Merton, C2 for variance gamma) and,
    per strike, the bounds (I1, I2) for Merton or (I2,) for variance
    gamma."""

    def __init__(
        self, model: Model, mmm: MmmQuantities, config: FftConfig, tau: float, spot: float
    ):
        _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
        self.model, self.config, self.tau, self.spot = model, config, tau, spot
        if isinstance(model, MertonParams):
            self.envelope = merton_c1(model, mmm, tau, config.alpha)
        else:
            pair = vg_mmm_measure(model, mmm.h)
            self.envelope = vg_c2(model, pair, mmm.mu_star, tau, config.alpha)

    def __call__(self, strike: float) -> tuple[float, ...]:
        args = (self.config.eps, self.tau, strike, self.spot, self.config.alpha, self.envelope)
        if isinstance(self.model, MertonParams):
            return (merton_trunc_i1(*args, self.model), merton_trunc_i2(*args, self.model))
        return (vg_trunc(*args, self.model),)


class TransformContext:
    """One time slice of a :class:`LevySample`: phi_tau = exp(tau psi)
    times each kernel factor, with the slice's truncation bounds.  Grids
    are built lazily, one FFT per kind."""

    def __init__(self, sample: LevySample, tau: float):
        self.sample = sample
        self.tau = tau
        phi = levy_char_fn(sample.psi, tau)
        self._arrays = {kind: phi * factor for kind, factor in sample.factors.items()}
        self.trunc_bounds = SliceBounds(sample.model, sample.mmm, sample.config, tau, sample.spot)
        self._grids: dict[str, CarrMadanGrid] = {}

    def evaluate(self, strikes: Sequence[float], tail: slice = slice(None)) -> list[LrmResult]:
        """Hedge ratios, I1 and I2 for every strike of the slice, as array
        operations.  One tail check covers the largest truncation bound
        over all strikes, of the per-strike bounds (I1, I2) that ``tail``
        selects.  Up to ``_DIRECT_SUM_MAX_STRIKES`` strikes take exact
        direct sums; more share one interpolated FFT grid per kernel kind."""
        strikes = _strike_array(strikes)
        if strikes.size == 0:
            return []
        sample, config = self.sample, self.sample.config
        trunc = np.array([self.trunc_bounds(k)[tail] for k in strikes.tolist()]).max(axis=1)
        worst = int(np.argmax(trunc))
        _check_tail(config, float(trunc[worst]), float(strikes[worst]), self.tau)
        mode = MODE_DIRECT_SUM if strikes.size <= _DIRECT_SUM_MAX_STRIKES else MODE_FFT_GRID
        if isinstance(sample.model, MertonParams):
            i1 = strikes * self._damped_sums("indicator", strikes, mode)
            i2 = 0.0
            # at unit strike the terms give the coefficients and the
            # strike shift factors
            for term in merton_i2_terms(sample.model, 1.0):
                kind = "damped" if term.kernel == KERNEL_DAMPED else "call"
                shifted = strikes * term.strike
                i2 = i2 + term.coefficient * shifted * self._damped_sums(kind, shifted, mode)
            sigma2 = sample.model.sigma**2
            numerator = sigma2 * i1 + i2
        else:
            i1 = None
            kernel_part = strikes * self._damped_sums("kernel", strikes, mode)
            call_part = strikes * self._damped_sums("call", strikes, mode)
            i2 = numerator = kernel_part - sample.vg_weights.constant * call_part
            sigma2 = 0.0
        ratio = numerator / (sample.spot * (sigma2 + sample.mmm.quad_exp_moment))
        i1_values = [None] * strikes.size if i1 is None else i1.tolist()
        return [
            LrmResult(
                lrm=value,
                i1=i1_value,
                i2=i2_value,
                trunc_a=trunc_a,
                mode=mode,
                config=config,
                out_of_range=not (0.0 <= value <= 1.0),
            )
            for value, i1_value, i2_value, trunc_a in zip(
                ratio.tolist(), i1_values, i2.tolist(), trunc.tolist()
            )
        ]

    def _damped_sums(self, kind: str, strikes: np.ndarray, mode: str) -> np.ndarray:
        """The damped transform of one kernel kind at log(strikes)."""
        cfg = self.sample.config
        if mode == MODE_DIRECT_SUM:
            # math.log, not np.log: the two can differ in the last bit, and
            # direct-sum values (single quotes, impact tables) stay bit-stable
            log_k = [math.log(x) for x in strikes.tolist()]
            return direct_simpson_sum(self._arrays[kind], cfg.alpha, cfg.eta, log_k)
        if kind not in self._grids:
            self._grids[kind] = carr_madan_grid(self._arrays[kind], cfg.alpha, cfg.eta)
        return self._grids[kind].at(np.log(strikes))


def _strike_array(strikes: Sequence[float]) -> np.ndarray:
    """Strikes as a float array, each finite and > 0 (the checks and
    messages of MarketQuery)."""
    strikes = np.asarray(strikes, dtype=float).reshape(-1)
    bad = ~(np.isfinite(strikes) & (strikes > 0.0))
    if bad.any():
        first = float(strikes[bad][0])
        _require_finite("strike", first)
        _require(first > 0.0, "strike must be > 0")
    return strikes


def _check_tail(config: FftConfig, trunc_a: float, strike: float, tau: float) -> None:
    if tail_condition_check(config, trunc_a):
        return
    raise TailConditionError(
        f"grid span N*eta = {config.grid_span:g} does not reach the required "
        f"truncation point {trunc_a:g} at K = {strike:g}, tau = {tau:g}; "
        f"{tail_hint(config, trunc_a)}"
    )


def tail_hint(config: FftConfig, trunc_a: float) -> str:
    """How to reach the truncation point trunc_a: the smallest power-of-two
    n whose span n*eta covers it at the configured eta, when it is finite."""
    hint = "enlarge n or eta"
    if math.isfinite(trunc_a):
        n = config.n
        while n * config.eta < trunc_a:
            n *= 2
        hint += f" (n = {n} at eta = {config.eta:g} covers it)"
    return hint


def _slice(query: MarketQuery, model: Model, config: FftConfig) -> TransformContext:
    return TransformContext(LevySample(model, config, query.spot), query.tau)


def i1(query: MarketQuery, model: Model, config: FftConfig) -> float:
    """Stock-or-nothing expectation E[1_{S_T > K} S_T | now] via the
    damped transform of psi1.  Defined for the diffusive model only; for
    variance gamma it is multiplied by sigma^2 = 0 and never computed."""
    if not isinstance(model, MertonParams):
        raise ModelMismatchError(
            "I1 applies to the Merton model only; the sigma^2 I1 term vanishes "
            "for pure-jump models"
        )
    return _slice(query, model, config).evaluate([query.strike], tail=slice(0, 1))[0].i1


def i2(query: MarketQuery, model: Model, config: FftConfig) -> float:
    """Jump term of the hedge numerator.

    Merton: three weighted transforms at shifted strikes (two damped, one
    plain).  Variance gamma: kernel-weighted transform minus the
    first-exponential-moment constant times the plain call transform.
    """
    return _slice(query, model, config).evaluate([query.strike], tail=slice(-1, None))[0].i2


def lrm(query: MarketQuery, model: Model, config: FftConfig) -> LrmResult:
    """Hedge ratio for a single (t, K, S) query."""
    return _slice(query, model, config).evaluate([query.strike])[0]


def sweep_slice(
    sample: LevySample, *, t: float, T: float, strikes: Sequence[float]
) -> list[LrmResult]:
    """Hedge ratios for many strikes on one time slice of a shared sample
    (and the per-kind FFT grids on the grid path)."""
    return TransformContext(sample, time_to_maturity(t, T)).evaluate(strikes)


def lrm_strike_sweep(
    model: Model,
    config: FftConfig,
    *,
    t: float,
    T: float,
    spot: float,
    strikes: Sequence[float],
) -> list[LrmResult]:
    """Hedge ratios for many strikes on one time slice, sharing the
    sampled arrays (and the per-kind FFT grids on the grid path)."""
    return sweep_slice(LevySample(model, config, spot), t=t, T=T, strikes=strikes)


def lrm_by_moneyness(
    moneyness_query: Union[MoneynessQuery, float],
    model: Model,
    config: FftConfig,
    tau: Optional[float] = None,
) -> float:
    """Hedge ratio as a function of moneyness alone: spot normalized to 1
    and the strike set to K/S.  Identical (up to arithmetic reordering)
    to the (S, K) evaluation with the same tau."""
    if isinstance(moneyness_query, MoneynessQuery):
        mq = moneyness_query
    else:
        if tau is None:
            raise InvalidParameterError("tau is required with a bare moneyness value")
        mq = MoneynessQuery(moneyness=float(moneyness_query), tau=tau)
    return moneyness_slice(model, config, mq.tau).evaluate([mq.moneyness])[0].lrm


def moneyness_slice(model: Model, config: FftConfig, tau: float) -> TransformContext:
    """The time slice tau at unit spot, where a strike is a moneyness K/S."""
    return TransformContext(LevySample(model, config, 1.0), time_to_maturity(0.0, tau))


def jump_impact(y: float, moneyness: float, tau: float, model: Model, config: FftConfig) -> float:
    """Hedge-ratio change caused by a log-price jump of size y: the
    moneyness m jumps to m e^{-y}, so the impact is
    LRM(m e^{-y}) - LRM(m), two single-strike queries on one slice."""
    if y == 0.0:
        raise InvalidParameterError("jump size y must be nonzero")
    before = MoneynessQuery(moneyness, tau)
    after = MoneynessQuery(moneyness * math.exp(-y), tau)
    ctx = moneyness_slice(model, config, tau)
    lrm_before = ctx.evaluate([before.moneyness])[0].lrm
    return ctx.evaluate([after.moneyness])[0].lrm - lrm_before
