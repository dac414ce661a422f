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

Each strike sums every 2^s-th sample of the configured grid: the same
span N eta at spacing 2^s eta over N / 2^s points, with trapezoid
weights.  It takes the largest s whose aliasing bound moves I1 and I2
by at most 2^-53 S and the ratio by at most 2^-53 (``SliceBounds``).
The bound has three terms, each summed over the images that Poisson
summation puts 2 pi / eta_s apart in log-strike:

* the in-the-money pole at zeta = -i, S e^{-2 pi (alpha - 1) / eta_s}
  per unit coefficient (strike- and model-free for I1; the Merton
  damped kinds carry e^{delta^2/2}, the variance-gamma kernel its
  int |e^x - 1| e^x nu(dx));
* the pole at zeta = 0 of the call kinds, K e^{-2 pi alpha / eta_s} with
  the opposite sign, which the same bound covers (a call is below S);
* the right tail, E[S_T^{1+beta}] K^{-beta} e^{-2 pi (1 + beta - alpha) / eta_s},
  minimized over beta (``merton_alias_profile``, ``vg_alias_profile``).

Every log-strike a strike needs, the Merton shifted ones included, must
also lie inside +-pi/eta_s, or the strike takes a finer stride; stride
1, the configured grid, needs no certificate.  Strides depend on the
slice and the strike only.

A Merton strike then sums only a prefix of its samples: the Gaussian
envelope certifies how many rows of the direct sum's layout of N / 2^s
points it takes before the dropped tail moves I1, I2 and the ratio by
less than rounding (``merton_prefix_tail``).  The direct path gives each
strike its own stride and rows; the grid path runs one FFT at the
finest stride of the batch, over its longest span, zero-padded to that
stride's point count.  The shared sample is taken at the stride and
length the slices ask for.  Variance gamma, whose polynomial envelope
certifies no prefix, sums the whole span at its stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    ROUNDING,
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
    alias_floors,
    carr_madan_grid,
    coarsest_shift,
    direct_simpson_sum,
    row_layout,
    tail_condition_check,
)
from .merton import (
    KERNEL_DAMPED,
    gaussian_damping,
    merton_alias_profile,
    merton_exponent,
    merton_i2_terms,
    merton_log_c1,
    merton_prefix_tail,
    merton_trunc_i1,
    merton_trunc_i2,
)
from .variance_gamma import (
    VgContourLogs,
    vg_alias_profile,
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
    ``stride`` is the grid the sums ran on: every stride-th point of
    ``config``, spacing config.eta * stride over config.n // stride points.
    """

    lrm: float
    i1: Optional[float]
    i2: float
    trunc_a: float
    mode: str
    config: FftConfig
    out_of_range: bool
    stride: int


@dataclass(frozen=True)
class MoneynessQuery:
    """Strike-over-spot ratio plus time to maturity; the hedge ratio
    depends on (t, S, K) only through these two numbers."""

    moneyness: float
    tau: float

    def __post_init__(self) -> None:
        _require_finite("moneyness", self.moneyness)
        _require(self.moneyness > 0.0, "moneyness must be > 0")
        _require_finite("tau", self.tau)
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

    Both hold every 2^shift-th point of the configured grid, the first
    ``psi.size`` of them.  At construction ``shift`` is the coarsest stride
    any strike may take (``coarsest_shift``), over the whole span N eta
    for variance gamma and one row of the direct-sum layout for Merton.
    :meth:`strided` samples again, at a finer stride or over a longer span,
    when a slice asks for points it does not hold.  Every sample is
    elementwise in zeta, and (2^s eta) j rounds the same product as
    eta (2^s j), so every point keeps its bits whatever the stride and
    the length it was sampled at.
    """

    def __init__(self, model: Model, config: FftConfig, spot: float):
        _require_finite("spot", spot)
        _require(spot > 0.0, "spot must be > 0")
        self.model = model
        self.config = config
        self.spot = spot
        self.mmm = mmm_quantities(model)
        self.shift = coarsest_shift(config)
        points = config.n >> self.shift
        self._sample(row_layout(points)[0] if isinstance(model, MertonParams) else points)

    def prefix(self, m: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """psi and the kernel factors at the first m points of the configured grid."""
        return self.strided(0, m)

    def strided(self, shift: int, m: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """psi and the kernel factors at the first m points of every
        2^shift-th point of the configured grid (views of the held arrays)."""
        self.cover(shift, (m - 1) << shift)
        step = 1 << (shift - self.shift)
        view = slice(0, (m - 1) * step + 1, step)
        return self.psi[view], {kind: factor[view] for kind, factor in self.factors.items()}

    def cover(self, shift: int, last: int) -> None:
        """Hold every 2^shift-th point of the configured grid up to index
        ``last``, sampling again (finer, or longer) if the held points do not."""
        fine = min(shift, self.shift)
        held = ((self.psi.size - 1) << (self.shift - fine)) + 1
        need = (last >> fine) + 1
        if fine < self.shift or need > held:
            if fine == self.shift:
                # at least doubling, so a run of growing slices samples O(log N) times
                held *= 2
            self.shift = fine
            self._sample(min(self.config.n >> fine, max(need, held)))

    def _sample(self, m: int) -> None:
        model, config = self.model, self.config
        # the first m points of every 2^shift-th point of config.zeta_grid(),
        # with its bits: 2^shift eta is exact
        zeta = (config.eta * (1 << self.shift)) * np.arange(m) - 1j * config.alpha
        iz = 1j * zeta
        indicator = np.exp(iz * math.log(self.spot)) / (iz - 1.0)
        call = indicator / iz
        if isinstance(model, MertonParams):
            self.psi = merton_exponent(zeta, model, self.mmm)
            # the temporary on the left: numpy may multiply a large
            # temporary in place, and a complex product's bits follow its
            # operand order, so this order holds at every size
            damped = gaussian_damping(zeta, model.delta) * call
            self.factors = {"indicator": indicator, "call": call, "damped": damped}
        else:
            # Psi and the jump kernel share the four contour logs
            logs = VgContourLogs(zeta, model.G, model.M)
            self.psi = logs.exponent(vg_mmm_measure(model, self.mmm.h), self.mmm.mu_star)
            self.vg_weights = vg_i2_weights(model)
            self.factors = {"call": call, "kernel": logs.kernel(model.C) * call}


class SliceBounds:
    """Bounds of one time slice, for all its strikes at once: the
    frequency truncation points (I1, I2) for Merton or (I2,) for
    variance gamma, and each strike's grid: a stride 2^s over the
    configured grid and the rows of the direct-sum layout of its
    n / 2^s points it sums.

    A strike takes the largest s up to ``coarsest_shift`` whose aliasing
    bound (``merton_alias_profile`` / ``vg_alias_profile``, three terms:
    the in-the-money pole at zeta = -i, the pole at zeta = 0 of the call
    kinds, which the same S/K' bound covers, and the right tail) moves I1
    and I2 by at most 2^-53 S and the ratio by at most 2^-53, and whose
    log-strikes, the Merton shifted ones included, all lie inside
    +-pi/eta_s; the configured grid, s = 0, needs no certificate.  A
    Merton strike then sums the fewest rows whose dropped tail stays
    below rounding; variance gamma sums every row.  Both depend on the
    slice and the strike only, never on the other strikes of a batch."""

    def __init__(
        self, model: Model, mmm: MmmQuantities, config: FftConfig, tau: float, spot: float
    ):
        _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
        self.model, self.config, self.tau, self.spot = model, config, tau, spot
        self.row_length, self.layout_rows = row_layout(config.n)
        shifts = range(1, coarsest_shift(config) + 1)
        self._row_lengths = np.array([row_layout(config.n >> s)[0] for s in range(len(shifts) + 1)])
        # per stride 2^s, filled on first use: a strike K sums the first
        # i + 1 rows once K >= _row_strikes[s][i] (nonincreasing); None:
        # every strike sums every row
        self._row_strikes = None
        if isinstance(model, MertonParams):
            self._mmm = mmm
            self._log_c1 = merton_log_c1(model, mmm, tau, config.alpha)
            self.envelope = math.exp(self._log_c1)
            self._row_strikes = {}
            beta, profile = merton_alias_profile(model, mmm, tau, config.alpha)
            self._log_shifts = [0.0] + [math.log(t.strike) for t in merton_i2_terms(model, 1.0)]
        else:
            pair = vg_mmm_measure(model, mmm.h)
            self.envelope = vg_c2(model, pair, mmm.mu_star, tau, config.alpha)
            beta, profile = vg_alias_profile(model, mmm, tau, config.alpha)
            self._log_shifts = [0.0]
        # stride 2^s, s >= 1, needs log(K/S) >= _alias_floors[s - 1]
        self._alias_floors = alias_floors(
            profile, beta, config.alpha, [config.eta * (1 << s) for s in shifts]
        )

    def _prefix_strikes(self, shift: int) -> np.ndarray:
        """Per row of the layout of n / 2^shift points: the smallest strike
        whose dropped tail past that row is below rounding.  The tail past
        a row end a = (rows * c - 1) eta is K^{1-alpha} e^{G(a)}; it is
        below rounding once log K >= (G(a) - log ROUNDING) / (alpha - 1)."""
        if shift not in self._row_strikes:
            config = self.config
            c, r = row_layout(config.n >> shift)
            ends = c * np.arange(1, r + 1) - 1
            tail = merton_prefix_tail(
                (config.eta * (1 << shift)) * ends,
                self.tau, self.spot, config.alpha, self._log_c1, self.model, self._mmm,
            )
            with np.errstate(over="ignore"):
                self._row_strikes[shift] = np.exp(
                    (tail - math.log(ROUNDING)) / (config.alpha - 1.0)
                )
        return self._row_strikes[shift]

    def __call__(self, strikes: np.ndarray) -> np.ndarray:
        """Truncation points, one row per bound ((I1, I2) or (I2,)) and one
        column per strike."""
        args = (self.config.eps, self.tau, strikes, self.spot, self.config.alpha, self.envelope)
        if isinstance(self.model, MertonParams):
            return np.stack((merton_trunc_i1(*args, self.model), merton_trunc_i2(*args, self.model)))
        return np.stack((vg_trunc(*args, self.model),))

    def rows(self, strikes: np.ndarray) -> np.ndarray:
        """Rows of the configured grid's direct-sum layout each strike sums."""
        return self._rows(strikes, 0)

    def strided_rows(self, strikes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each strike's stride exponent s and the rows of the direct-sum
        layout of n / 2^s points it sums."""
        log_k = np.log(strikes)
        reach = np.maximum(-(log_k + min(self._log_shifts)), log_k + max(self._log_shifts))
        log_moneyness = log_k - math.log(self.spot)
        shifts = np.zeros(strikes.shape, dtype=int)
        for s, floor in enumerate(self._alias_floors, start=1):
            # a hair inside +-pi/eta_s, so that the log of a shifted strike
            # cannot round onto the edge
            edge = math.pi / (self.config.eta * (1 << s)) * (1.0 - 1e-12)
            shifts[(shifts == s - 1) & (log_moneyness >= floor) & (reach < edge)] = s
        rows = np.empty(strikes.shape, dtype=int)
        for s in set(shifts.tolist()):
            group = shifts == s
            rows[group] = self._rows(strikes[group], s)
        return shifts, rows

    def extents(self, shifts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The last configured-grid index each strike's rows reach."""
        return (rows * self._row_lengths[shifts] - 1) << shifts

    def _rows(self, strikes: np.ndarray, shift: int) -> np.ndarray:
        layout_rows = row_layout(self.config.n >> shift)[1]
        if self._row_strikes is None:
            return np.full(strikes.shape, layout_rows)
        first = np.searchsorted(-self._prefix_strikes(shift), -strikes)
        return np.minimum(first + 1, layout_rows)


class TransformContext:
    """One time slice of a :class:`LevySample`: phi_tau = exp(tau psi)
    times each kernel factor, at the finest stride and over the longest
    span its strikes have asked for, with the slice's bounds.  Grids are
    built lazily, one FFT per kind, stride and prefix."""

    def __init__(self, sample: LevySample, tau: float):
        self.sample = sample
        self.tau = tau
        # |phi_tau(v - i alpha)| <= phi_tau(-i alpha): the j = 0 sample,
        # which every prefix holds, has the largest Re(tau psi), so this is
        # the exp() guard of the whole grid, and it fires before the C1 guard
        levy_char_fn(sample.psi[:1], tau)
        self.trunc_bounds = SliceBounds(sample.model, sample.mmm, sample.config, tau, sample.spot)
        self._shift = 0
        self._held = 0
        self._arrays: dict[str, np.ndarray] = {}
        self._grids: dict[tuple[str, int, int], CarrMadanGrid] = {}

    def reach(self, strikes: Sequence[float]) -> tuple[int, int]:
        """The finest stride exponent and the last configured-grid index
        that evaluating ``strikes`` reads (``LevySample.cover`` arguments),
        so that a shared sample can be taken once for many slices."""
        strikes = _strike_array(strikes)
        shifts, rows = self.trunc_bounds.strided_rows(strikes)
        return int(shifts.min()), int(self.trunc_bounds.extents(shifts, rows).max())

    def evaluate(self, strikes: Sequence[float], tail: slice = slice(None)) -> list[LrmResult]:
        """Hedge ratios, I1 and I2 for every strike of the slice, as array
        operations.  One tail check covers the largest truncation bound
        over all strikes, of the per-strike bounds (I1, I2) that ``tail``
        selects.  Up to ``_DIRECT_SUM_MAX_STRIKES`` strikes take exact
        direct sums, each over its own stride and rows; more share one
        interpolated FFT grid per kernel kind, at the finest stride of the
        batch and over its longest span."""
        strikes = _strike_array(strikes)
        if strikes.size == 0:
            return []
        sample, config, bounds = self.sample, self.sample.config, self.trunc_bounds
        trunc = bounds(strikes)[tail].max(axis=0)
        worst = int(np.argmax(trunc))
        _check_tail(config, float(trunc[worst]), float(strikes[worst]), self.tau)
        mode = MODE_DIRECT_SUM if strikes.size <= _DIRECT_SUM_MAX_STRIKES else MODE_FFT_GRID
        shifts, rows = bounds.strided_rows(strikes)
        extents = bounds.extents(shifts, rows)
        fine = int(shifts.min())
        points = (int(extents.max()) >> fine) + 1
        # one evaluation of phi over every point any strike reads
        self._strided_arrays(fine, points)
        if mode == MODE_DIRECT_SUM:
            strides = 1 << shifts
        else:
            strides = np.full(strikes.shape, 1 << fine)

        def sums(kind: str, *at: np.ndarray) -> list[np.ndarray]:
            """One kernel kind's damped transform at each strike array of
            ``at`` (the strikes, or a multiple of them), in one pass."""
            joint = np.concatenate(at)
            if mode == MODE_DIRECT_SUM:
                copies = len(at)
                values = self._direct_sums(
                    kind, joint, np.tile(shifts, copies), np.tile(rows, copies),
                    np.tile(extents, copies),
                )
            else:
                values = self._grid_sums(kind, joint, fine, points)
            return np.split(values, len(at))

        if isinstance(sample.model, MertonParams):
            i1 = strikes * sums("indicator", strikes)[0]
            # at unit strike the terms give the coefficients and the
            # strike shift factors; terms of one kind share a pass
            terms = merton_i2_terms(sample.model, 1.0).terms
            shifted = [strikes * term.strike for term in terms]
            kinds = ["damped" if term.kernel == KERNEL_DAMPED else "call" for term in terms]
            values = [None] * len(terms)
            for kind in dict.fromkeys(kinds):
                group = [i for i, other in enumerate(kinds) if other == kind]
                for i, value in zip(group, sums(kind, *(shifted[i] for i in group))):
                    values[i] = value
            i2 = 0.0
            for term, at, value in zip(terms, shifted, values):
                i2 = i2 + term.coefficient * at * value
            sigma2 = sample.model.sigma**2
            numerator = sigma2 * i1 + i2
        else:
            i1 = None
            kernel_part = strikes * sums("kernel", strikes)[0]
            call_part = strikes * sums("call", strikes)[0]
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
                stride=stride,
            )
            for value, i1_value, i2_value, trunc_a, stride in zip(
                ratio.tolist(), i1_values, i2.tolist(), trunc.tolist(), strides.tolist()
            )
        ]

    def _strided_arrays(self, shift: int, m: int) -> dict[str, np.ndarray]:
        """phi times each kernel factor at the first m points of stride
        2^shift: views of the arrays held, which are computed again
        (elementwise, so with the same bits) when they are coarser or
        shorter than that."""
        fine = min(shift, self._shift) if self._held else shift
        held = ((self._held - 1) << (self._shift - fine)) + 1 if self._held else 0
        need = ((m - 1) << (shift - fine)) + 1
        if need > held or fine < self._shift:
            psi, factors = self.sample.strided(fine, max(need, held))
            phi = levy_char_fn(psi, self.tau)
            self._arrays = {kind: phi * factor for kind, factor in factors.items()}
            self._shift, self._held = fine, psi.size
        step = 1 << (shift - self._shift)
        view = slice(0, (m - 1) * step + 1, step)
        return {kind: array[view] for kind, array in self._arrays.items()}

    def _direct_sums(
        self, kind: str, strikes: np.ndarray, shifts: np.ndarray, rows: np.ndarray,
        extents: np.ndarray,
    ) -> np.ndarray:
        """The damped transform of one kernel kind at log(strikes), each
        strike summed exactly over its own stride and rows."""
        cfg = self.sample.config
        out = np.empty(strikes.shape)
        for s in set(shifts.tolist()):
            group = shifts == s
            samples = self._strided_arrays(s, (int(extents[group].max()) >> s) + 1)[kind]
            # math.log, not np.log: the two can differ in the last bit, and
            # direct-sum values (single quotes, impact tables) stay bit-stable
            log_k = [math.log(x) for x in strikes[group].tolist()]
            out[group] = direct_simpson_sum(
                samples, cfg.alpha, cfg.eta * (1 << s), log_k, cfg.n >> s, rows[group]
            )
        return out

    def _grid_sums(self, kind: str, strikes: np.ndarray, shift: int, m: int) -> np.ndarray:
        """The damped transform of one kernel kind at log(strikes), read
        off one FFT grid at stride 2^shift over the first m points."""
        cfg = self.sample.config
        key = (kind, shift, m)
        if key not in self._grids:
            samples = self._strided_arrays(shift, m)[kind]
            self._grids[key] = carr_madan_grid(
                samples, cfg.alpha, cfg.eta * (1 << shift), cfg.n >> shift
            )
        return self._grids[key].at(np.log(strikes))


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
    _require_finite("jump size y", y)
    if y == 0.0:
        raise InvalidParameterError("jump size y must be nonzero")
    before = MoneynessQuery(moneyness, tau)
    after = MoneynessQuery(moneyness * math.exp(-y), tau)
    ctx = moneyness_slice(model, config, tau)
    lrm_before = ctx.evaluate([before.moneyness])[0].lrm
    return ctx.evaluate([after.moneyness])[0].lrm - lrm_before
