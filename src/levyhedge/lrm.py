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
the e^{-i eta j k} phase, so an n-strike sweep costs one FFT per kernel
(grid mode) or one O(N) sum per strike (direct mode).
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
    levy_char_fn,
    mmm_quantities,
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
    vg_c2,
    vg_exponent,
    vg_i2_weights,
    vg_mmm_measure,
    vg_trunc,
)

MODE_FFT_GRID = "fft-grid"
MODE_DIRECT_SUM = "direct-sum"
MODE_AUTO = "auto"

# auto mode: a handful of strikes is cheaper by direct summation than by
# building interpolation grids
_AUTO_DIRECT_LIMIT = 4


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


def _resolve_mode(mode: str, n_strikes: int) -> str:
    if mode == MODE_AUTO:
        return MODE_DIRECT_SUM if n_strikes <= _AUTO_DIRECT_LIMIT else MODE_FFT_GRID
    if mode in (MODE_DIRECT_SUM, MODE_FFT_GRID):
        return mode
    raise InvalidParameterError(f"unknown mode {mode!r}")


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
            pair = vg_mmm_measure(model, self.mmm.h)
            self.psi = vg_exponent(zeta, model, pair, self.mmm.mu_star)
            self.vg_weights = vg_i2_weights(model)
            self.factors = {"call": call, "kernel": self.vg_weights.kernel_factor(zeta) * call}


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

    def transform(self, kind: str, k: float, mode: str) -> float:
        cfg = self.sample.config
        if mode == MODE_DIRECT_SUM:
            return direct_simpson_sum(self._arrays[kind], cfg.alpha, cfg.eta, k)
        grid = self._grids.get(kind)
        if grid is None:
            grid = self._grids[kind] = carr_madan_grid(self._arrays[kind], cfg.alpha, cfg.eta)
        return grid.at(k)


def _check_tail(config: FftConfig, trunc_a: float) -> None:
    if not tail_condition_check(config, trunc_a):
        raise TailConditionError(
            f"grid span N*eta = {config.grid_span:g} does not reach the "
            f"required truncation point {trunc_a:g}; enlarge n or eta"
        )


def _slice(query: MarketQuery, model: Model, config: FftConfig) -> TransformContext:
    return TransformContext(LevySample(model, config, query.spot), query.tau)


def _i1(query: MarketQuery, ctx: TransformContext, resolved: str) -> float:
    return query.strike * ctx.transform("indicator", query.log_strike, resolved)


def _i2(query: MarketQuery, ctx: TransformContext, resolved: str) -> float:
    if isinstance(ctx.sample.model, MertonParams):
        total = 0.0
        for term in merton_i2_terms(ctx.sample.model, query.strike):
            kind = "damped" if term.kernel == KERNEL_DAMPED else "call"
            total += term.coefficient * term.strike * ctx.transform(
                kind, math.log(term.strike), resolved
            )
        return total
    k = query.log_strike
    kernel_part = query.strike * ctx.transform("kernel", k, resolved)
    call_part = query.strike * ctx.transform("call", k, resolved)
    return kernel_part - ctx.sample.vg_weights.constant * call_part


def i1(query: MarketQuery, model: Model, config: FftConfig, mode: str = MODE_AUTO) -> float:
    """Stock-or-nothing expectation E[1_{S_T > K} S_T | now] via the
    damped transform of psi1.  Defined for the diffusive model only; for
    variance gamma it is multiplied by sigma^2 = 0 and never computed."""
    if not isinstance(model, MertonParams):
        raise ModelMismatchError(
            "I1 applies to the Merton model only; the sigma^2 I1 term vanishes "
            "for pure-jump models"
        )
    ctx = _slice(query, model, config)
    resolved = _resolve_mode(mode, 1)
    _check_tail(config, ctx.trunc_bounds(query.strike)[0])
    return _i1(query, ctx, resolved)


def i2(query: MarketQuery, model: Model, config: FftConfig, mode: str = MODE_AUTO) -> float:
    """Jump term of the hedge numerator.

    Merton: three weighted transforms at shifted strikes (two damped, one
    plain).  Variance gamma: kernel-weighted transform minus the
    first-exponential-moment constant times the plain call transform.
    """
    ctx = _slice(query, model, config)
    resolved = _resolve_mode(mode, 1)
    _check_tail(config, ctx.trunc_bounds(query.strike)[-1])
    return _i2(query, ctx, resolved)


def _assemble(query: MarketQuery, ctx: TransformContext, resolved: str) -> LrmResult:
    model, config = ctx.sample.model, ctx.sample.config
    # one tail check against the largest bound covers every transform
    trunc_a = max(ctx.trunc_bounds(query.strike))
    _check_tail(config, trunc_a)
    if isinstance(model, MertonParams):
        i1_val = _i1(query, ctx, resolved)
        i2_val = _i2(query, ctx, resolved)
        sigma2 = model.sigma**2
        numerator = sigma2 * i1_val + i2_val
    else:
        i1_val = None
        i2_val = _i2(query, ctx, resolved)
        sigma2 = 0.0
        numerator = i2_val
    value = numerator / (query.spot * (sigma2 + ctx.sample.mmm.quad_exp_moment))
    return LrmResult(
        lrm=value,
        i1=i1_val,
        i2=i2_val,
        trunc_a=trunc_a,
        mode=resolved,
        config=config,
        out_of_range=not (0.0 <= value <= 1.0),
    )


def lrm(
    query: MarketQuery,
    model: Model,
    config: FftConfig,
    mode: str = MODE_AUTO,
) -> LrmResult:
    """Hedge ratio for a single (t, K, S) query."""
    return _assemble(query, _slice(query, model, config), _resolve_mode(mode, 1))


def sweep_slice(
    sample: LevySample, *, t: float, T: float, strikes: Sequence[float], mode: str
) -> list[LrmResult]:
    """Hedge ratios for many strikes on one time slice of a shared sample
    (and the per-kind FFT grids in grid mode)."""
    queries = [MarketQuery(t=t, T=T, spot=sample.spot, strike=float(k)) for k in strikes]
    ctx = TransformContext(sample, T - t)
    resolved = _resolve_mode(mode, len(queries))
    return [_assemble(q, ctx, resolved) for q in queries]


def lrm_strike_sweep(
    model: Model,
    config: FftConfig,
    *,
    t: float,
    T: float,
    spot: float,
    strikes: Sequence[float],
    mode: str = MODE_AUTO,
) -> list[LrmResult]:
    """Hedge ratios for many strikes on one time slice, sharing the
    sampled arrays (and the per-kind FFT grids in grid mode)."""
    return sweep_slice(LevySample(model, config, spot), t=t, T=T, strikes=strikes, mode=mode)


def lrm_by_moneyness(
    moneyness_query: Union[MoneynessQuery, float],
    model: Model,
    config: FftConfig,
    mode: str = MODE_AUTO,
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
    query = MarketQuery(t=0.0, T=mq.tau, spot=1.0, strike=mq.moneyness)
    return lrm(query, model, config, mode=mode).lrm


def jump_impact(
    y: float,
    moneyness: float,
    tau: float,
    model: Model,
    config: FftConfig,
    mode: str = MODE_AUTO,
) -> float:
    """Hedge-ratio change caused by a log-price jump of size y: the
    moneyness m jumps to m e^{-y}, so the impact is
    LRM(m e^{-y}) - LRM(m)."""
    if y == 0.0:
        raise InvalidParameterError("jump size y must be nonzero")
    before = lrm_by_moneyness(MoneynessQuery(moneyness, tau), model, config, mode)
    after = lrm_by_moneyness(MoneynessQuery(moneyness * math.exp(-y), tau), model, config, mode)
    return after - before
