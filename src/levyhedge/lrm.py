"""Hedge-ratio assembly.

The local risk-minimization ratio for a call struck at K is

    (sigma^2 I1 + I2) / (S (sigma^2 + int (e^x - 1)^2 nu(dx))),

where I1 is the stock-or-nothing expectation and I2 the jump term, both
taken under the tilted measure and both computed from damped Fourier
transforms of the characteristic function.  For the pure-jump variance
gamma model sigma = 0, so I1 never enters and is skipped entirely.

The models are Levy, so phi_tau = exp(tau Psi).  ``LevySample`` is the
tau-free half of one (model, config, spot): it samples Psi and the
kernel factors on the contour and holds the tau-free half of the
bounds.  ``TransformContext`` is one time slice of it: tau and the rest
of the bounds.  Neither keeps sampled arrays, so no result depends on
the calls before it.  Within a slice the strike enters only through the
e^{-i eta j k} phase, so one evaluator, :func:`evaluate_slices`, takes
one strike array on a list of slices of one sample and returns columns
(one row per slice, one column per strike): ``curve`` calls it with
every slice of its surface, single quotes, strike sweeps and jump
impacts with one slice through ``TransformContext.evaluate`` and
``quotes``, which alone build ``LrmResult``.  Each call samples once,
and each slice costs one exponential plus one multiply per kernel kind,
over the points its strikes read.  Every kind is read at log K: I1 is
K X_indicator(log K) and I2 K X_jump(log K), for Merton the three
shifted-strike terms of ``merton_i2_terms`` moved to log K: the table
``LevySample.kinds`` gives each kind the factors f of the log(K f) its
sum stands for, Merton ``indicator`` (1,) and ``jump`` those of the
terms, variance gamma ``jump`` (1,).  The path
follows the strike count: up to four strikes take exact direct sums of
every kind at once (O(sqrt N) exponentials plus O(N) multiply-adds per
strike), more share one FFT grid per kernel kind and slice, and grid
slices of one stride share each ``np.fft.fft`` call and interpolation
in blocks.  ``LrmResult.mode`` reports which path ran.

Each strike sums every 2^s-th sample of the configured grid: the same
span N eta at spacing 2^s eta over N / 2^s points, with trapezoid
weights.  It takes the largest s whose aliasing bound moves I1 and I2
by at most 2^-53 S and the ratio by at most 2^-53
(``TransformContext.strided_rows``).  The bound has three terms, each
summed over the images that Poisson summation puts 2 pi / eta_s apart
in log-strike:

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

Every log-strike a strike needs, the shifted ones of the Merton terms
included, must also lie inside +-pi/eta_s, or the strike takes a finer
stride; stride 1, the configured grid, needs no certificate.  Strides
depend on the slice and the strike only.  So one range rule serves both
paths: a strike reaching outside +-pi/eta takes stride 1 in every slice,
and one check of the first slice's stride-1 strikes refuses it.

A Merton strike then sums only a prefix of its samples: the Gaussian
envelope certifies how many rows of the direct sum's layout of N / 2^s
points it takes before the dropped tail moves I1, I2 and the ratio by
less than rounding (``merton_prefix_tail``).  The direct path gives each
strike its own stride and rows; the grid path runs one FFT per slice at
its finest stride, over its longest span, zero-padded to that stride's
point count.  Both read strided views of the call's one sample, taken
at the finest stride and over the longest span any slice reads.
Variance gamma, whose polynomial envelope certifies no prefix, sums the
whole span at its stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    TailConditionError,
    _require,
    _require_finite,
    cgm_exp_moment,
    levy_char_fn,
    mmm_quantities,
    time_to_maturity,
)
from .fft_engine import (
    AliasFloors,
    FftConfig,
    carr_madan_grid,
    checked_log_strikes,
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
    """The tau-free half of every time slice of one (model, config, spot).

    :meth:`sample` takes the Levy exponent psi, so a slice's
    characteristic function is exp(tau psi), and the tau-free kernel
    factors: for Merton ``indicator`` e^{i zeta log S} / (i zeta - 1)
    (times phi: psi1, stock-or-nothing), and for both models ``jump``,
    the call factor indicator / (i zeta) (psi2) times the jump weight
    int (e^{i zeta x} - 1)(e^x - 1) nu(dx): for variance gamma the jump
    kernel less ``exp_moment`` = int (e^x - 1) nu(dx).  I2 is the one
    transform of the jump kind.  Every sample is elementwise in zeta, and
    (2^s eta) j rounds the same product as eta (2^s j), so every point
    keeps its bits whatever the stride and the length it was sampled at.
    Nothing sampled is kept.

    ``kinds`` lists the kernel kinds in the row order of
    ``TransformContext.trunc``, each with its strike factors (module
    docstring); ``sigma2`` is sigma^2, 0 for variance gamma.  It also
    holds the tau-free half of every slice's bounds: the direct-sum row
    layout of each stride, the range of the log strike factors, and the
    aliasing bound of each stride (:class:`AliasFloors`), to which a slice
    adds only tau.  One exponent call gives ``psi0``, psi at zeta = -i
    alpha, the point of the contour where Re psi peaks (so tau Re psi0 is
    log C1 and the exp() guard of every slice), and the moment rates Re
    psi(-i(1+beta)) over the beta grid of the model's alias tables
    (``merton_alias_tables`` / ``vg_alias_tables``).
    """

    def __init__(self, model: Model, config: FftConfig, spot: float):
        _require_finite("spot", spot)
        _require(spot > 0.0, "spot must be > 0")
        self.model, self.config, self.spot = model, config, spot
        self.mmm = mmm = mmm_quantities(model)
        # one exponent call: zeta = -i alpha, with the bits of j = 0 of every
        # sample, then the moment points -i(1+beta)
        zeta0 = config.eta * np.arange(1) - 1j * config.alpha
        if isinstance(model, MertonParams):
            beta, log_itms, log_rights = merton_alias_tables(model, mmm, config.alpha)
            # the moments overflow at large beta (inf, or 0 * inf at gamma = 0)
            with np.errstate(over="ignore", invalid="ignore"):
                psi = merton_exponent(np.concatenate((zeta0, -1j * (1.0 + beta))), model, mmm)
            self.sigma2 = model.sigma**2
            jump = tuple(term.strike for term in merton_i2_terms(model))
            self.kinds = {"indicator": (1.0,), "jump": jump}
        else:
            self.exp_moment = cgm_exp_moment(model.C, model.G, model.M)
            self.pair = vg_mmm_measure(model, mmm.h)
            beta, log_itms, log_rights = vg_alias_tables(model, mmm, config.alpha)
            logs = VgContourLogs(np.concatenate((zeta0, -1j * (1.0 + beta))), model.G, model.M)
            psi = logs.exponent(self.pair, mmm.mu_star)
            self.sigma2 = 0.0
            self.kinds = {"jump": (1.0,)}
        self.psi0 = complex(psi[0])
        log_shifts = [math.log(f) for factors in self.kinds.values() for f in factors]
        self._log_shift_range = (min(log_shifts), max(log_shifts))
        top = coarsest_shift(config)
        layouts = [row_layout(config.n >> s) for s in range(top + 1)]
        self.row_lengths = np.array([c for c, _ in layouts])
        self.layout_rows = [r for _, r in layouts]
        etas = [config.eta * (1 << s) for s in range(1, top + 1)]
        # a hair inside +-pi/eta_s, so that the log of a shifted strike
        # cannot round onto the edge
        self._edges = [math.pi / eta * (1.0 - 1e-12) for eta in etas]
        self.floors = AliasFloors(log_itms, log_rights, psi[1:].real, beta, config.alpha, etas)

    def sample(self, shift: int, m: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """psi and the kernel factors at the first m points of every
        2^shift-th point of the configured grid, sampled afresh."""
        model, config = self.model, self.config
        # with the bits of config.zeta_grid(): 2^shift eta is exact
        zeta = (config.eta * (1 << shift)) * np.arange(m) - 1j * config.alpha
        iz = 1j * zeta
        indicator = np.exp(iz * math.log(self.spot)) / (iz - 1.0)
        call = indicator / iz
        if isinstance(model, MertonParams):
            # Psi and the jump weight share the two exponentials
            psi, weight = merton_exponent_and_weight(zeta, model, self.mmm)
            return psi, {"indicator": indicator, "jump": weight * call}
        # Psi and the jump kernel share the two contour logs
        logs = VgContourLogs(zeta, model.G, model.M)
        psi = logs.exponent(self.pair, self.mmm.mu_star)
        return psi, {"jump": (logs.kernel(model.C) - self.exp_moment) * call}

    def reach(self, strikes: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The tau-free half of a stride choice: log(K/S) per strike and,
        per stride s >= 1, whether every log-strike the strike needs lies
        inside +-pi/eta_s."""
        log_k = np.log(strikes)
        lo, hi = self._log_shift_range
        reach = np.maximum(-(log_k + lo), log_k + hi)
        return log_k - math.log(self.spot), [reach < edge for edge in self._edges]

    def check_range(self, strikes: np.ndarray, shifts: np.ndarray) -> None:
        """The one range rule (module docstring) on the first slice's stride
        exponents ``shifts``: every log(K f) of a stride-1 strike must lie
        inside +-pi/eta.  With no stride-1 strike it checks nothing, and a
        caller may skip it."""
        zero = strikes[shifts == 0]
        reached = [zero * f for factors in self.kinds.values() for f in factors]
        checked_log_strikes(np.log(np.concatenate(reached)), self.config.eta)


class TransformContext:
    """One time slice of a :class:`LevySample`: its tau and its bounds,
    for all its strikes at once: the frequency truncation points (I1, I2)
    for Merton or (I2,) for variance gamma (:meth:`trunc`, from the laws
    of log C1 = tau Re psi0 or of log C2), and each strike's grid: a
    stride 2^s over the configured grid and the rows of the direct-sum
    layout of its n / 2^s points it sums (:meth:`strided_rows`).

    A strike takes the largest s up to ``coarsest_shift`` whose aliasing
    bound (``LevySample.floors`` at tau, three terms: the in-the-money
    pole at zeta = -i, the pole at zeta = 0 of the call factor, which the
    same S/K' bound covers, and the right tail) moves I1 and I2 by at
    most 2^-53 S and the ratio by at most 2^-53, and whose
    log-strikes, the Merton shifted ones included, all lie inside
    +-pi/eta_s; the configured grid, s = 0, needs no certificate.  A
    Merton strike then sums the fewest rows whose dropped tail stays
    below rounding; variance gamma sums every row.  Both depend on the
    slice and the strike only, never on the other strikes of a batch.

    :meth:`evaluate` and :meth:`quotes` go through :func:`evaluate_slices`,
    the evaluator of every caller, and build ``LrmResult`` from its
    columns.  A slice keeps no sampled arrays and no memo, so a result does
    not depend on what the slice evaluated before."""

    def __init__(self, sample: LevySample, tau: float):
        self.sample = sample
        self.tau = tau
        # |phi_tau(v - i alpha)| <= phi_tau(-i alpha): the j = 0 sample has
        # the largest Re(tau psi), so this is the exp() guard of the whole
        # grid, and of log C1 = tau Re psi0
        levy_char_fn(sample.psi0, tau)
        _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
        model, mmm, alpha = sample.model, sample.mmm, sample.config.alpha
        if isinstance(model, MertonParams):
            self._log_c1 = tau * sample.psi0.real
            self._laws = merton_trunc_laws(model, self._log_c1, tau, alpha)
        else:
            # no prefix certificate: every strike sums every row
            self._log_c1 = None
            log_c2 = vg_log_c2(model, sample.pair, mmm.mu_star, tau, alpha)
            self._laws = (vg_trunc_law(model, log_c2, tau, alpha),)
        # stride 2^s, s >= 1, needs log(K/S) >= _alias_floors[s - 1]
        self._alias_floors = sample.floors(tau)

    def trunc(self, strikes: np.ndarray) -> np.ndarray:
        """Truncation points, one row per bound ((I1, I2) or (I2,)) and one
        column per strike: :func:`truncation_points` of the slice's laws."""
        sample, config = self.sample, self.sample.config
        return truncation_points(self._laws, config.eps, strikes, sample.spot, config.alpha)

    def rows(self, strikes: np.ndarray) -> np.ndarray:
        """Rows of the configured grid's direct-sum layout each strike sums."""
        return self._rows(strikes, 0)

    def strided_rows(
        self, strikes: np.ndarray, reach: Optional[tuple[np.ndarray, list[np.ndarray]]] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each strike's stride exponent s and the rows of the direct-sum
        layout of n / 2^s points it sums; ``reach`` is
        ``LevySample.reach(strikes)``, taken here when not given."""
        log_moneyness, inside = self.sample.reach(strikes) if reach is None else reach
        shifts = np.zeros(strikes.shape, dtype=int)
        for s, (floor, ok) in enumerate(zip(self._alias_floors, inside), start=1):
            shifts[(shifts == s - 1) & (log_moneyness >= floor) & ok] = s
        rows = np.empty(strikes.shape, dtype=int)
        for s in set(shifts.tolist()):
            group = shifts == s
            rows[group] = self._rows(strikes[group], s)
        return shifts, rows

    def extents(self, shifts: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The last configured-grid index each strike's rows reach."""
        return (rows * self.sample.row_lengths[shifts] - 1) << shifts

    def _rows(self, strikes: np.ndarray, shift: int) -> np.ndarray:
        """Rows of the layout of n / 2^shift points each strike sums.  The
        Merton tail past a row end a = (rows * c - 1) eta is K^{1-alpha}
        e^{G(a)}: below rounding once log K >= (G(a) - log ROUNDING) /
        (alpha - 1), a bound that falls with the rows."""
        sample, config = self.sample, self.sample.config
        layout_rows = sample.layout_rows[shift]
        if self._log_c1 is None:
            return np.full(strikes.shape, layout_rows)
        ends = sample.row_lengths[shift] * np.arange(1, layout_rows + 1) - 1
        tail = merton_prefix_tail(
            (config.eta * (1 << shift)) * ends, self.tau, sample.spot, config.alpha,
            self._log_c1, sample.model, sample.mmm,
        )
        with np.errstate(over="ignore"):
            row_strikes = np.exp((tail - math.log(ROUNDING)) / (config.alpha - 1.0))
        first = np.searchsorted(-row_strikes, -strikes)
        return np.minimum(first + 1, layout_rows)

    def quotes(self, strikes: Sequence[float]) -> list[LrmResult]:
        """Each strike's result as a lone ``evaluate([strike])`` gives it,
        bit for bit, from one direct-sum call at any strike count: a
        direct-sum strike keeps its bits in any batch, and the call
        computes phi once.  On an error the strikes are evaluated alone in
        order, so the error raised is the one lone quotes raise."""
        strikes = list(strikes)
        if not strikes:
            return []
        try:
            return self._results(evaluate_slices([self], strikes, mode=MODE_DIRECT_SUM))
        except LevyHedgeError:
            for strike in strikes:
                self.evaluate([strike])
            raise

    def evaluate(self, strikes: Sequence[float]) -> list[LrmResult]:
        """Hedge ratios, I1 and I2 for every strike of the slice
        (:func:`evaluate_slices` on this slice alone), one ``LrmResult``
        per strike."""
        strikes = _strike_array(strikes)
        if strikes.size == 0:
            return []
        return self._results(evaluate_slices([self], strikes))

    def _results(self, columns: SliceColumns) -> list[LrmResult]:
        config = self.sample.config
        width = columns.lrm.shape[1]
        i1_values = [None] * width if columns.i1 is None else columns.i1[0].tolist()
        return [
            LrmResult(
                lrm=value,
                i1=i1_value,
                i2=i2_value,
                trunc_a=trunc_a,
                mode=columns.mode,
                config=config,
                out_of_range=not (0.0 <= value <= 1.0),
                stride=stride,
            )
            for value, i1_value, i2_value, trunc_a, stride in zip(
                columns.lrm[0].tolist(), i1_values, columns.i2[0].tolist(),
                columns.trunc_a[0].tolist(), columns.stride[0].tolist(),
            )
        ]


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


class _SlicePlan(NamedTuple):
    """What one slice reads: per strike its truncation point, stride
    exponent, rows and last configured-grid index; the finest stride
    exponent, and the points of that stride the slice reads."""

    trunc: np.ndarray
    shifts: np.ndarray
    rows: np.ndarray
    extents: np.ndarray
    fine: int
    points: int


def evaluate_slices(
    slices: Sequence[TransformContext], strikes: Sequence[float], mode: Optional[str] = None,
) -> SliceColumns:
    """Hedge ratios, I1 and I2 of the same strikes on every slice of one
    :class:`LevySample`, as columns, from every kernel kind of
    ``LevySample.kinds``, each at log K.

    Each slice's truncation points, strides and rows are computed once.
    A slice's tail check covers its largest truncation bound over all
    strikes and bounds.  Unless ``mode`` (``MODE_DIRECT_SUM`` or
    ``MODE_FFT_GRID``; anything else is refused) names the path, up to
    ``_DIRECT_SUM_MAX_STRIKES`` strikes take exact direct sums, each over
    its own stride and rows, one ``direct_simpson_sum`` call per stride
    for every kind; more share one interpolated FFT grid per kernel kind
    and slice, at the finest stride of the slice and over its longest
    span.  Grid slices of one stride
    are transformed in blocks of up to ``_BLOCK_POINTS`` FFT points per
    kind, one ``carr_madan_grid`` call and one interpolation per block,
    every row zero past its own slice's span, so each cell has the bits
    of its slice alone.  The call samples once, at the finest stride and
    over the longest span any slice reads, and both paths read strided
    views of that sample.
    Slices are checked in order, each before the next: its tail, and
    after the first slice's the one range rule (module docstring) on its
    stride-1 strikes, so an error is the one the first failing slice
    raises alone.  ``strikes`` must not be empty.
    """
    strikes = _strike_array(strikes)
    _require(strikes.size > 0, "need at least one strike")
    sample = slices[0].sample
    _require(all(ctx.sample is sample for ctx in slices), "slices must share one LevySample")
    config = sample.config
    if mode is None:
        mode = MODE_DIRECT_SUM if strikes.size <= _DIRECT_SUM_MAX_STRIKES else MODE_FFT_GRID
    _require(mode in (MODE_DIRECT_SUM, MODE_FFT_GRID), f"unknown mode {mode!r}")
    kinds = list(sample.kinds)

    reach = sample.reach(strikes)
    plans = []
    for ctx in slices:
        shifts, rows = ctx.strided_rows(strikes, reach)
        extents = ctx.extents(shifts, rows)
        fine = int(shifts.min())
        points = (int(extents.max()) >> fine) + 1
        trunc = ctx.trunc(strikes).max(axis=0)
        plans.append(_SlicePlan(trunc, shifts, rows, extents, fine, points))
    # one sample, at the finest stride and over the longest span any slice
    # reads; a slice reads every 2^(s - top)-th of its points
    top = min(p.fine for p in plans)
    held_psi, held = sample.sample(top, (max(int(p.extents.max()) for p in plans) >> top) + 1)

    def strided(shift: int, m: int) -> tuple[np.ndarray, list[np.ndarray]]:
        step = 1 << (shift - top)
        view = slice(0, (m - 1) * step + 1, step)
        return held_psi[view], [held[kind][view] for kind in kinds]

    # one row per kind, slice and strike
    values = np.empty((len(kinds), len(slices), strikes.size))
    for i, (ctx, plan) in enumerate(zip(slices, plans)):
        worst = int(np.argmax(plan.trunc))
        _check_tail(config, float(plan.trunc[worst]), float(strikes[worst]), ctx.tau)
        if i == 0 and plan.fine == 0:
            sample.check_range(strikes, plan.shifts)
        if mode == MODE_FFT_GRID:
            continue
        psi, factors = strided(plan.fine, plan.points)
        phi = levy_char_fn(psi, ctx.tau)
        samples = np.empty((len(kinds), plan.points), dtype=complex)
        for row, factor in zip(samples, factors):
            np.multiply(phi, factor, out=row)
        # one direct sum of every kind per stride, each strike exact over
        # its own rows
        for s in set(plan.shifts.tolist()):
            group = plan.shifts == s
            # math.log, not np.log: the two can differ in the last bit, and
            # direct-sum values (single quotes, impact tables) stay bit-stable
            log_k = [math.log(x) for x in strikes[group].tolist()]
            step = 1 << (s - plan.fine)
            view = samples[:, : (int(plan.extents[group].max()) >> s) * step + 1 : step]
            values[:, i, group] = direct_simpson_sum(
                view, config.alpha, config.eta * (1 << s), log_k, config.n >> s, plan.rows[group]
            )
    if mode == MODE_FFT_GRID:
        _grid_blocks(slices, plans, np.log(strikes), values, strided)
        strides = np.array([np.full(strikes.size, 1 << p.fine) for p in plans])
    else:
        strides = np.array([1 << p.shifts for p in plans])

    # I1 = K X_indicator(log K), I2 = K X_jump(log K)
    column = dict(zip(kinds, strikes * values))
    i1, i2 = column.get("indicator"), column["jump"]
    numerator = sample.sigma2 * i1 + i2 if i1 is not None else i2
    lrm_values = numerator / (sample.spot * (sample.sigma2 + sample.mmm.quad_exp_moment))
    trunc = np.array([p.trunc for p in plans])
    return SliceColumns(lrm_values, i1, i2, trunc, strides, mode)


def _grid_blocks(
    slices: Sequence[TransformContext], plans: list[_SlicePlan], log_k: np.ndarray,
    values: np.ndarray, strided,
) -> None:
    """Grid-path values of every slice at the log-strikes ``log_k``, into
    ``values[:, i]`` for slice i, one row per kernel kind: the slices of
    one finest stride in blocks of up to ``_BLOCK_POINTS`` FFT points per
    kind, one ``carr_madan_grid`` call and one interpolation per block,
    rows kind-major.  ``strided(shift, m)`` gives psi and the kernel
    factors at the first m points of stride 2^shift."""
    config = slices[0].sample.config
    by_stride: dict[int, list[int]] = {}
    for i, plan in enumerate(plans):
        by_stride.setdefault(plan.fine, []).append(i)
    for fine, members in by_stride.items():
        n = config.n >> fine
        size = max(1, _BLOCK_POINTS // n)
        for start in range(0, len(members), size):
            block = members[start : start + size]
            counts = [plans[i].points for i in block]
            psi, factors = strided(fine, max(counts))
            # a row past its slice's points stays 0
            samples = np.zeros((len(factors), len(block), max(counts)), dtype=complex)
            for i, rows, m in zip(block, samples.transpose(1, 0, 2), counts):
                phi = levy_char_fn(psi[:m], slices[i].tau)
                for row, factor in zip(rows, factors):
                    np.multiply(phi, factor[:m], out=row[:m])
            eta = config.eta * (1 << fine)
            grid = carr_madan_grid(samples.reshape(-1, max(counts)), config.alpha, eta, n)
            values[:, block] = grid.at(log_k).reshape(len(factors), len(block), -1)


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


def lrm(query: MarketQuery, model: Model, config: FftConfig) -> LrmResult:
    """Hedge ratio, I1 and I2 for a single (t, K, S) query: one
    direct-sum strike on a fresh slice, through :func:`evaluate_slices`
    like every caller."""
    ctx = TransformContext(LevySample(model, config, query.spot), query.tau)
    return ctx.evaluate([query.strike])[0]


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
    sample = LevySample(model, config, spot)
    return TransformContext(sample, time_to_maturity(t, T)).evaluate(strikes)


def moneyness_slice(model: Model, config: FftConfig, tau: float) -> TransformContext:
    """The time slice tau at unit spot, where a strike is a moneyness K/S;
    the hedge ratio depends on (t, S, K) only through K/S and tau."""
    return TransformContext(LevySample(model, config, 1.0), time_to_maturity(0.0, tau))


def check_moneyness(moneyness: float, tau: float) -> None:
    """Refuse a moneyness K/S that is not finite and > 0, or a tau that is
    not finite and >= TAU_MIN, in that order."""
    _require_finite("moneyness", moneyness)
    _require(moneyness > 0.0, "moneyness must be > 0")
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
    jumped = jumped_moneyness(moneyness, y)
    check_moneyness(jumped, tau)
    lrm_before, lrm_after = moneyness_slice(model, config, tau).quotes([moneyness, jumped])
    return lrm_after.lrm - lrm_before.lrm


def jumped_moneyness(moneyness: float, y: float) -> float:
    """The moneyness m e^{-y} after a log-price jump of size y; a jump
    whose e^{-y} overflows is refused."""
    try:
        return moneyness * math.exp(-y)
    except OverflowError:
        raise InvalidParameterError(
            f"jump size y = {y:g} overflows the jumped moneyness m e^-y"
        ) from None
