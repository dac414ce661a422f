"""Hedge-ratio assembly.

The local risk-minimization ratio for a call struck at K is

    (sigma^2 I1 + I2) / (S (sigma^2 + int (e^x - 1)^2 nu(dx))),

where I1 is the stock-or-nothing expectation and I2 the jump term, both
taken under the tilted measure and both computed from damped Fourier
transforms of the characteristic function.  For the pure-jump variance
gamma model sigma = 0, so I1 never enters and is skipped entirely.

The models are Levy, so phi_tau = exp(tau Psi), and the sums run in
moneyness x = K/S: the ratio depends on (K, S) only through x, so the
spot is a scale applied at the edges, I1 = K X_indicator(log x), I2 =
K X_jump(log x) and the denominator above.  ``LevySample`` is the
tau-free, spot-free half of one (model, config), shared per pair
(:func:`levy_sample`): it samples Psi and the kernel factors on the
contour and holds the tau-free half of the bounds.  A time slice of it
is a tau alone, and the rest of its bounds are closed forms in tau:
:func:`plan_slices` plans a list of tau and one strike array as one
(tau, K) table of truncation points, strides and rows.  Sampled arrays
are never kept, so no result depends on the calls before it.  Within a
slice the moneyness enters only through the e^{-i eta j log x} phase,
so one evaluator, :func:`evaluate_slices`, the one place the spot
enters, reads that table, samples once and returns columns (one row per
slice, one column per strike) for every caller; each slice costs one
exponential plus one multiply per kernel kind, over the points its
strikes read.  ``LevySample.kinds`` gives each kind the factors f of
the log(x f) its sum stands for: Merton ``indicator`` (1,) and ``jump``
those of the three shifted-strike terms of ``merton_i2_terms``,
variance gamma ``jump`` (1,).  Both paths form those products in blocks
of the slices of one finest stride.  By strike count, up to four take
exact direct sums of every kind at once (O(sqrt N) exponentials plus
O(N) multiply-adds per strike), more one ``np.fft.fft`` call and
interpolation per block, one FFT grid per kernel kind and slice.
``LrmResult.mode`` reports which path ran.

Each strike sums every 2^s-th sample of the configured grid: the same
span N eta at spacing 2^s eta over N / 2^s points, with trapezoid
weights.  It takes the largest s whose aliasing bound moves I1 and I2
by at most 2^-53 S and the ratio by at most 2^-53 (:func:`plan_slices`).
The bound has three terms, each summed over the images that Poisson
summation puts 2 pi / eta_s apart in log-strike:

* the in-the-money pole at zeta = -i, S e^{-2 pi (alpha - 1) / eta_s}
  per unit coefficient (strike- and model-free for I1; the Merton
  damped terms carry e^{delta^2/2}, the variance-gamma jump kind
  int |e^x - 1| e^x nu(dx) + |int (e^x - 1) nu(dx)|);
* the pole at zeta = 0 of the call factor, K e^{-2 pi alpha / eta_s} with
  the opposite sign, which the same bound covers (a call is below S);
* the right tail, E[S_T^{1+beta}] K^{-beta} e^{-2 pi (1 + beta - alpha) / eta_s},
  minimized over beta: the moment is e^{tau Psi(-i(1+beta))}, from the
  exponent the sums sample, beside the tau-free tables of
  ``merton_alias_tables`` and ``vg_alias_tables``.

Every log-moneyness log(x f) a strike needs, the shifted ones of the
Merton terms included, must also lie inside +-pi/eta_s, or the strike
takes a finer stride; stride 1, the configured grid, needs no
certificate.  Strides depend on the slice and the strike only.  So one
range rule, centered on the spot, serves both paths: a strike reaching
outside +-pi/eta takes stride 1 in every slice, and one check of the
first slice's stride-1 strikes refuses it (:func:`plan_slices`, before
anything is sampled).

A Merton strike then sums only a prefix of its samples: the Gaussian
envelope certifies how many rows of the direct sum's layout of N / 2^s
points it takes before the dropped tail moves I1, I2 and the ratio by
less than rounding (``merton_prefix_tail``), one bound over every tau
of the plan.  The direct path gives each strike its own stride and rows;
the grid path runs one FFT per slice at its finest stride, over its
longest span, zero-padded to that stride's point count.  Variance gamma,
whose polynomial envelope certifies no prefix, sums the whole span at
its stride.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    ROUNDING,
    TAU_MIN,
    InvalidParameterError,
    LevyHedgeError,
    MarketQuery,
    MertonParams,
    Model,
    ModelMismatchError,
    TailConditionError,
    _require,
    _require_finite,
    _require_positive,
    cgm_exp_moment,
    guard_exponent,
    levy_char_fn,
    mmm_quantities,
    time_to_maturity,
)
from .fft_engine import (
    AliasFloors,
    FftConfig,
    carr_madan_grid,
    coarsest_shift,
    direct_simpson_sum,
    row_layout,
    tail_condition_check,
    truncation_points,
)
from .merton import (
    merton_alias_tables,
    merton_exponent,
    merton_exponent_and_weight,
    merton_i2_terms,
    merton_prefix_tables,
    merton_prefix_tail,
    merton_trunc_laws,
)
from .variance_gamma import (
    VgContourLogs,
    vg_alias_tables,
    vg_log_c2,
    vg_mmm_measure,
    vg_trunc_law,
)

MODE_FFT_GRID = "fft-grid"
MODE_DIRECT_SUM = "direct-sum"

# a handful of strikes is cheaper by direct summation than by building
# interpolation grids
_DIRECT_SUM_MAX_STRIKES = 4
# grid slices of one stride share an FFT call in blocks of up to this many
# FFT points per kernel kind (0.25 MB complex): 4 slices at n = 4096, 2 at
# n = 8192.  Twice that ran no faster on the curve benchmark and held 1 MB
# more at peak
_BLOCK_POINTS = 1 << 14


class LrmResult(NamedTuple):
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


class LevySample:
    """The tau-free half of every time slice of one (model, config), in
    moneyness x = K/S: no spot enters it (module docstring).

    :meth:`sample` takes the Levy exponent psi, so a slice's
    characteristic function is exp(tau psi), and the tau-free kernel
    factors: for Merton ``indicator`` 1 / (i zeta - 1) (times phi: psi1,
    stock-or-nothing), and for both models ``jump``, the call factor
    indicator / (i zeta) (psi2) times the jump weight int (e^{i zeta x} -
    1)(e^x - 1) nu(dx): for variance gamma the jump kernel less
    ``exp_moment`` = int (e^x - 1) nu(dx).  I2 is the one transform of the
    jump kind.  Every sample is elementwise in zeta, and (2^s eta) j
    rounds the same product as eta (2^s j), so every point keeps its bits
    whatever the stride and the length it was sampled at.

    ``kinds`` lists the kernel kinds in the row order of
    :func:`slice_trunc`, each with its strike factors (module
    docstring); ``sigma2`` is sigma^2, 0 for variance gamma.  It also
    holds the tau-free half of every slice's bounds: the direct-sum row
    layout of each stride, the range of the log strike factors, and the
    aliasing bound of each stride (:class:`AliasFloors`), to which a slice
    adds only tau.  One exponent call gives ``psi0``, psi at zeta = -i
    alpha, the point of the contour where Re psi peaks (so tau Re psi0 is
    log C1 and the exp() guard of every slice), and the moment rates Re
    psi(-i(1+beta)) over the beta grid of the model's alias tables
    (``merton_alias_tables`` / ``vg_alias_tables``).

    :func:`levy_sample` shares one per (model, config) among the last 64
    pairs (8-15 KB each).  Its arrays are read-only and no sampled array
    is kept, so no result depends on the state of the cache.
    """

    def __init__(self, model: Model, config: FftConfig):
        self.model, self.config = model, config
        self.mmm = mmm = mmm_quantities(model)
        top = coarsest_shift(config)
        layouts = [row_layout(config.n >> s) for s in range(top + 1)]
        self.row_lengths = np.array([c for c, _ in layouts])
        self.row_lengths.flags.writeable = False
        self.layout_rows = tuple(r for _, r in layouts)
        self.exp_moment = self.pair = self._prefix = None
        # one exponent call: zeta = -i alpha, with the bits of j = 0 of every
        # sample, then the moment points -i(1+beta)
        zeta0 = config.eta * np.arange(1) - 1j * config.alpha
        if isinstance(model, MertonParams):
            beta, log_itms, log_rights = merton_alias_tables(model, mmm, config.alpha)
            # the moments overflow at large beta (inf, or 0 * inf at gamma = 0)
            with np.errstate(over="ignore", invalid="ignore"):
                psi = merton_exponent(np.concatenate((zeta0, -1j * (1.0 + beta))), model, mmm)
            self.sigma2 = model.sigma**2
            kinds = {"indicator": (1.0,), "jump": tuple(t.strike for t in merton_i2_terms(model))}
            # the row ends a = (rows c - 1) eta_s of each stride's layout
            ends = [(config.eta * (1 << s)) * (c * np.arange(1, r + 1) - 1)
                    for s, (c, r) in enumerate(layouts)]
            tables = merton_prefix_tables(model, mmm, config.alpha)
            self._prefix = tuple(map(np.log, ends)), tuple(a * a for a in ends), tables
            for table in self._prefix[0] + self._prefix[1] + tables[-1:]:
                table.flags.writeable = False
        else:
            self.exp_moment = cgm_exp_moment(model.C, model.G, model.M)
            self.pair = vg_mmm_measure(model, mmm.h)
            beta, log_itms, log_rights = vg_alias_tables(model, mmm, config.alpha)
            logs = VgContourLogs(np.concatenate((zeta0, -1j * (1.0 + beta))), model.G, model.M)
            psi = logs.exponent(self.pair, mmm.mu_star)
            self.sigma2 = 0.0
            kinds = {"jump": (1.0,)}
        self.kinds = MappingProxyType(kinds)
        self.psi0 = complex(psi[0])
        log_shifts = [math.log(f) for factors in kinds.values() for f in factors]
        self._log_shift_range = min(log_shifts), max(log_shifts)
        etas = [config.eta * (1 << s) for s in range(1, top + 1)]
        # a hair inside +-pi/eta_s, so that the log of a shifted moneyness
        # cannot round onto the edge; axes (stride, slice, strike)
        self._edges = np.reshape([math.pi / eta * (1.0 - 1e-12) for eta in etas], (-1, 1, 1))
        self._edges.flags.writeable = False
        self.floors = AliasFloors(log_itms, log_rights, psi[1:].real, beta, config.alpha, etas)

    def sample(self, shift: int, m: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """psi and the kernel factors at the first m points of every
        2^shift-th point of the configured grid, sampled afresh."""
        model, config = self.model, self.config
        # with the bits of config.zeta_grid(): 2^shift eta is exact
        zeta = (config.eta * (1 << shift)) * np.arange(m) - 1j * config.alpha
        iz = 1j * zeta
        indicator = 1.0 / (iz - 1.0)
        call = indicator / iz
        if isinstance(model, MertonParams):
            # Psi and the jump weight share the two exponentials
            psi, weight = merton_exponent_and_weight(zeta, model, self.mmm)
            return psi, {"indicator": indicator, "jump": weight * call}
        # Psi and the jump kernel share the two contour logs
        logs = VgContourLogs(zeta, model.G, model.M)
        psi = logs.exponent(self.pair, self.mmm.mu_star)
        return psi, {"jump": (logs.kernel(model.C) - self.exp_moment) * call}


# one shared sample per (model, config), for the last 64 pairs
_shared_sample = functools.lru_cache(maxsize=64)(LevySample)


def levy_sample(model: Model, config: FftConfig) -> LevySample:
    """The one shared :class:`LevySample` of (model, config), built on the
    first call for the pair; a model of another type is refused before the
    cache hashes it."""
    if not isinstance(model, Model):
        raise ModelMismatchError(f"unsupported model type {type(model).__name__}")
    return _shared_sample(model, config)


def slice_trunc(sample: LevySample, tau: float, strikes, spot: float) -> np.ndarray:
    """Truncation points of the slice tau of ``sample``, one row per bound
    ((I1, I2) for Merton from the laws of log C1 = tau Re psi0, (I2,) for
    variance gamma from those of log C2) and one column per strike:
    :func:`truncation_points` of the slice's laws, after its guards."""
    # |phi_tau(v - i alpha)| <= phi_tau(-i alpha): the j = 0 sample has
    # the largest Re(tau psi), so tau Re psi0 is the exp() guard of the
    # whole grid, and log C1
    guard_exponent(tau, tau * sample.psi0.real)
    _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
    model, config = sample.model, sample.config
    if isinstance(model, MertonParams):
        laws = merton_trunc_laws(model, tau * sample.psi0.real, tau, config.alpha)
    else:
        log_c2 = vg_log_c2(sample.pair, sample.mmm.mu_star, tau, config.alpha)
        laws = (vg_trunc_law(model, log_c2, tau, config.alpha),)
    return truncation_points(laws, config.eps, strikes, spot, config.alpha)


def _prefix_rows(
    sample: LevySample, taus: Sequence[float], moneyness: np.ndarray, shift: int
) -> np.ndarray:
    """Rows of the layout of n / 2^shift points each moneyness x sums on
    the slice at each tau, one row per tau: every row for variance gamma,
    whose envelope certifies no prefix.  The Merton tail past a row end
    a = (rows * c - 1) eta moves the ratio by x^{1-alpha} e^{G(a)}: below
    rounding once log x >= (G(a) - log ROUNDING) / (alpha - 1), a bound,
    taken over (tau, row end) at once, that falls with the rows."""
    layout_rows = sample.layout_rows[shift]
    if sample._prefix is None:
        return np.full((len(taus), moneyness.size), layout_rows)
    log_a, a2, tables = sample._prefix
    alpha = sample.config.alpha
    tau = np.array(taus, dtype=float)
    tail = merton_prefix_tail(log_a[shift], a2[shift], tau, tau * sample.psi0.real, tables)
    with np.errstate(over="ignore"):
        row_moneyness = np.exp((tail - math.log(ROUNDING)) / (alpha - 1.0))
    first = [np.searchsorted(row, -moneyness) for row in -row_moneyness]
    return np.minimum(np.array(first) + 1, layout_rows)


@dataclass(frozen=True)
class SliceColumns:
    """Results of one strike array on a run of time slices, one row per
    slice and one column per strike.  ``i1`` is None for variance gamma."""

    lrm: np.ndarray
    i1: Optional[np.ndarray]
    i2: np.ndarray
    trunc_a: np.ndarray
    stride: np.ndarray
    mode: str


def _results(columns: SliceColumns, config: FftConfig) -> list[LrmResult]:
    """One ``LrmResult`` per strike of the first slice of ``columns``."""
    lrm_values = columns.lrm[0]
    i1_values = repeat(None) if columns.i1 is None else columns.i1[0].tolist()
    out_of_range = ~((0.0 <= lrm_values) & (lrm_values <= 1.0))
    return list(map(LrmResult._make, zip(
        lrm_values.tolist(), i1_values, columns.i2[0].tolist(), columns.trunc_a[0].tolist(),
        repeat(columns.mode), repeat(config), out_of_range.tolist(), columns.stride[0].tolist(),
    )))


class _SlicePlan(NamedTuple):
    """Per cell, one row per slice and one column per strike: the truncation
    point, stride exponent, rows and last configured-grid index it reads."""

    trunc: np.ndarray
    shifts: np.ndarray
    rows: np.ndarray
    extents: np.ndarray


def plan_slices(
    sample: LevySample, taus: Sequence[float], strikes: np.ndarray, spot: float
) -> _SlicePlan:
    """Plan and check the slices of ``sample`` at a non-empty list of tau
    for one checked, non-empty strike array at the spot; nothing is
    sampled.  Per (tau, strike) cell the table holds the largest truncation
    point over the slice's bounds (:func:`slice_trunc`), the stride
    exponent s (the largest up to ``coarsest_shift`` that the aliasing
    floors at tau and the strike's reach admit) and the rows of the layout
    of n / 2^s points it sums (:func:`_prefix_rows`).  Every slice's guards
    run first; then, in ``curve``'s order, each slice's tail on its largest
    truncation point, and right after the first slice's the range rule
    (module docstring) on its stride-1 strikes."""
    trunc = np.array([slice_trunc(sample, tau, strikes, spot).max(axis=0) for tau in taus])
    moneyness = strikes / spot
    # stride 2^s, s >= 1, needs at every s' <= s log x >= the floor of s' at
    # the cell's tau and every log(x f) the strike reaches inside +-pi/eta_s'
    # (the edges fall with s', the floors taken up to s' rise); a floor can
    # neither raise nor warn, so every slice's is read at once
    log_x = np.log(moneyness)
    lo, hi = sample._log_shift_range
    reach = np.maximum(-(log_x + lo), log_x + hi)
    floors = np.maximum.accumulate(sample.floors(taus), axis=1).T[:, :, None]
    shifts = ((log_x >= floors) & (reach < sample._edges)).sum(axis=0)
    config = sample.config
    for i, (tau, worst) in enumerate(zip(taus, trunc.argmax(axis=1).tolist())):
        a, strike = float(trunc[i, worst]), float(strikes[worst])
        if not tail_condition_check(config, a):
            raise TailConditionError(
                f"grid span N*eta = {config.grid_span:g} does not reach the required "
                f"truncation point {a:g} at K = {strike:g}, tau = {tau:g}; {tail_hint(config, a)}"
            )
        if i == 0 and not shifts[0].all():
            # the range rule: every log(x f) of a stride-1 x inside +-pi/eta
            zero = moneyness[shifts[0] == 0]
            reached = [zero * f for factors in sample.kinds.values() for f in factors]
            log_k = np.log(np.concatenate(reached))
            outside = log_k[~(np.abs(log_k) < math.pi / config.eta)]
            if outside.size:
                raise InvalidParameterError(f"log-strike {outside[0]:g} outside the "
                                            "representable range (-pi/eta, pi/eta)")
    rows = np.empty(shifts.shape, dtype=int)
    # every stride some cell takes
    for s in np.flatnonzero(np.bincount(shifts.ravel())).tolist():
        np.copyto(rows, _prefix_rows(sample, taus, moneyness, s), where=shifts == s)
    # the last configured-grid index each cell's rows reach
    extents = (rows * sample.row_lengths[shifts] - 1) << shifts
    return _SlicePlan(trunc, shifts, rows, extents)


def evaluate_slices(
    sample: LevySample, taus: Sequence[float], strikes: Sequence[float], spot: float,
    mode: Optional[str] = None,
) -> SliceColumns:
    """Hedge ratios, I1 and I2 of the same strikes at one spot on the slice
    of ``sample`` at every tau, as columns, from every kernel kind of
    ``LevySample.kinds``, each at log(K/S); the spot enters here alone.
    Neither ``taus`` nor ``strikes`` may be empty.  Unless ``mode``
    (``MODE_DIRECT_SUM`` or ``MODE_FFT_GRID``; anything else is refused)
    names the path, up to ``_DIRECT_SUM_MAX_STRIKES`` strikes take exact
    direct sums and more the interpolated FFT grids.  Four phases:

    1. :func:`plan_slices` plans and checks every slice, so every error is
       raised before anything is sampled;
    2. one sample, at the finest stride and over the longest span any
       slice reads;
    3. one loop over the slices of each finest stride, in blocks of up to
       ``_BLOCK_POINTS`` FFT points per kind: per block, one strided view
       of the sample and a row of phi_tau times each kernel factor per
       (kind, slice), zero past the slice's own points; then one
       ``carr_madan_grid`` and one interpolation per block, or per slice
       and stride one ``direct_simpson_sum``, each strike exact over its
       own stride and rows, so each cell has the bits of its slice alone;
    4. the assembly of I1, I2 and the ratio.
    """
    _require_positive("spot", spot)
    strikes = _strike_array(strikes)
    _require(strikes.size > 0, "need at least one strike")
    _require(len(taus) > 0, "need at least one time slice")
    if mode is None:
        mode = MODE_DIRECT_SUM if strikes.size <= _DIRECT_SUM_MAX_STRIKES else MODE_FFT_GRID
    _require(mode in (MODE_DIRECT_SUM, MODE_FFT_GRID), f"unknown mode {mode!r}")
    plan = plan_slices(sample, taus, strikes, spot)
    # per slice: finest stride exponent, last grid index and points read
    fine, last = plan.shifts.min(axis=1).tolist(), plan.extents.max(axis=1).tolist()
    points = [(e >> s) + 1 for e, s in zip(last, fine)]

    kinds, config = list(sample.kinds), sample.config
    # one sample, at the finest stride and over the longest span any slice
    # reads; a slice reads every 2^(s - top)-th of its points
    top = min(fine)
    held_psi, held = sample.sample(top, (max(last) >> top) + 1)
    if mode == MODE_FFT_GRID:
        log_x = np.log(strikes / spot)
    else:
        # math.log, not np.log: the two can differ in the last bit, and
        # direct-sum values (single quotes, impact tables) stay bit-stable
        log_x = np.array([math.log(x) for x in (strikes / spot).tolist()])
    # one row per kind, slice and strike
    values = np.empty((len(kinds), len(taus), strikes.size))
    for shift in dict.fromkeys(fine):
        members = [i for i, s in enumerate(fine) if s == shift]
        size = max(1, _BLOCK_POINTS // (config.n >> shift))
        step = 1 << (shift - top)
        for start in range(0, len(members), size):
            block = members[start : start + size]
            width = max(points[i] for i in block)
            view = slice(0, (width - 1) * step + 1, step)
            psi, factors = held_psi[view], [held[kind][view] for kind in kinds]
            # (kind, slice, point) rows; a row past its slice's points stays 0
            samples = np.zeros((len(kinds), len(block), width), dtype=complex)
            by_slice = samples.transpose(1, 0, 2)
            for i, rows in zip(block, by_slice):
                phi = levy_char_fn(psi[: points[i]], taus[i])
                for row, factor in zip(rows, factors):
                    np.multiply(phi, factor[: phi.size], out=row[: phi.size])
            if mode == MODE_FFT_GRID:
                grid = carr_madan_grid(samples.reshape(-1, width), config.alpha,
                                       config.eta * (1 << shift), config.n >> shift)
                values[:, block] = grid.at(log_x).reshape(samples.shape[:2] + (-1,))
                continue
            for i, rows in zip(block, by_slice):
                shifts, extents = plan.shifts[i], plan.extents[i]
                for s in set(shifts.tolist()):
                    group = shifts == s
                    sub = 1 << (s - shift)
                    end = (int(extents[group].max()) >> s) * sub + 1
                    values[:, i, group] = direct_simpson_sum(
                        rows[:, :end:sub], config.alpha, config.eta * (1 << s), log_x[group],
                        config.n >> s, plan.rows[i][group],
                    )
    strides = 1 << plan.shifts
    if mode == MODE_FFT_GRID:
        # a grid slice runs at its finest stride
        strides[:] = strides.min(axis=1, keepdims=True)

    # I1 = K X_indicator(log x), I2 = K X_jump(log x)
    column = dict(zip(kinds, strikes * values))
    i1, i2 = column.get("indicator"), column["jump"]
    numerator = sample.sigma2 * i1 + i2 if i1 is not None else i2
    lrm_values = numerator / (spot * (sample.sigma2 + sample.mmm.quad_exp_moment))
    return SliceColumns(lrm_values, i1, i2, plan.trunc, strides, mode)


def _strike_array(strikes: Sequence[float]) -> np.ndarray:
    """Strikes as a float array, each finite and > 0 (the checks and
    messages of MarketQuery)."""
    strikes = np.asarray(strikes, dtype=float).reshape(-1)
    bad = ~(np.isfinite(strikes) & (strikes > 0.0))
    if bad.any():
        _require_positive("strike", float(strikes[bad][0]))
    return strikes


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


def lrm(query: MarketQuery, model: Model, config: FftConfig) -> LrmResult:
    """Hedge ratio, I1 and I2 for a single (t, K, S) query: one
    direct-sum strike on one slice, through :func:`evaluate_slices` like
    every caller.  The result carries the caller's ``config``."""
    columns = evaluate_slices(levy_sample(model, config), [query.tau], [query.strike], query.spot)
    return _results(columns, config)[0]


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
    sampled arrays (and the per-kind FFT grids on the grid path); the
    results carry the caller's ``config``."""
    _require_positive("spot", spot)
    sample, tau = levy_sample(model, config), time_to_maturity(t, T)
    strikes = _strike_array(strikes)
    if not strikes.size:
        # no cell, but the slice's guards still run
        slice_trunc(sample, tau, strikes, spot)
        return []
    return _results(evaluate_slices(sample, [tau], strikes, spot), config)


def check_moneyness(moneyness: float, tau: float) -> None:
    """Refuse a moneyness K/S that is not finite and > 0, or a tau that is
    not finite and >= TAU_MIN, in that order."""
    _require_positive("moneyness", moneyness)
    _require_finite("tau", tau)
    if tau < TAU_MIN:
        raise InvalidParameterError(f"tau = {tau:g} below the supported minimum {TAU_MIN:g}")


def jump_impact(y: float, moneyness: float, tau: float, model: Model, config: FftConfig) -> float:
    """Hedge-ratio change caused by a log-price jump of size y: the
    moneyness m jumps to m e^{-y}, so the impact is
    LRM(m e^{-y}) - LRM(m), two single-strike quotes on one slice."""
    _require_finite("jump size y", y)
    if y == 0.0:
        raise InvalidParameterError("jump size y must be nonzero")
    check_moneyness(moneyness, tau)
    before, after = impact_quotes([moneyness, jumped_moneyness(moneyness, y)], tau, model, config)
    return after - before


def impact_quotes(
    moneyness: Sequence[float], tau: float, model: Model, config: FftConfig
) -> list[float]:
    """Hedge ratios of the moneyness values K/S on one slice at unit spot,
    each checked first, in order (:func:`check_moneyness`), from one
    direct-sum call that computes phi once, each with the bits of its lone
    quote.  On an error each is evaluated alone, in order, so the error
    raised is the first lone quote's."""
    for m in moneyness:
        check_moneyness(m, tau)
    sample, taus = levy_sample(model, config), [time_to_maturity(0.0, tau)]
    try:
        return evaluate_slices(sample, taus, moneyness, 1.0, mode=MODE_DIRECT_SUM).lrm[0].tolist()
    except LevyHedgeError:
        for m in moneyness:
            evaluate_slices(sample, taus, [m], 1.0)
        raise


def jumped_moneyness(moneyness: float, y: float) -> float:
    """The moneyness m e^{-y} after a log-price jump of size y; a jump
    whose e^{-y} overflows is refused."""
    try:
        return moneyness * math.exp(-y)
    except OverflowError:
        raise InvalidParameterError(
            f"jump size y = {y:g} overflows the jumped moneyness m e^-y"
        ) from None
