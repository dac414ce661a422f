"""Numerical layer for the damped Fourier transforms.

A target value X(k) = (1/pi) int_0^inf e^{-i(v - i alpha) k} psi(v - i alpha) dv
is approximated by the weighted sum over the frequency grid v_j = eta*j,

    X(k) ~= (e^{-alpha k} / pi) sum_j e^{-i eta j k} psi(eta j - i alpha) w_j,

with trapezoid weights w_0 = eta/2, w_j = eta for j >= 1.  Evaluated for
all grid log-strikes k_l = -pi/eta + 2 pi l / (N eta) at once, the sum is
a plain DFT

    F(l) = sum_j e^{-i 2 pi j l / N} [e^{i pi j} psi_j w_j],

computed here with numpy's FFT.  The grid tables, (-1)^j w_j, the k grid
and e^{-alpha k}/pi, depend only on (n, eta, alpha); ``_grid_tables``
caches them, read-only, for the last few grids.

At exact log-strikes the sum is taken directly, with the phase factored
over j = c h + l (c about sqrt(N), r = ceil(N / c) rows):

    sum_j e^{-i eta j k} a_j = sum_h e^{-i eta k c h} sum_l a_{ch+l} e^{-i eta k l},

so a log-strike costs r + c exponentials and one (r, c) contraction of
multiply-adds, not N exponentials.  Both paths share the same
arithmetic, only the association order differs.

Both paths also take a prefix of an N-point grid: the samples past it
count as zeros.  The grid path zero-pads the prefix to one N-point FFT,
so the k grid and the cached tables stay those of N.  The direct path
keeps the row layout of N and gives each log-strike its own row count:
a log-strike sums rows h < its count, and the sum over h always runs
over r entries, zeros past its rows, so its value does not depend on the
prefix length or on the other log-strikes of the call.  The full grid is
the prefix of length N.

Aliasing.  The sampled function is analytic in a strip around the
contour, so by Poisson summation the infinite trapezoid sum is

    sum_{m in Z} e^{2 pi alpha m / eta} X(k + 2 pi m / eta):

the target plus images spaced 2 pi / eta apart in log-strike.  Every
second sample of the grid, spacing 2 eta over N/2 points, spans the same
N eta and puts the images half as far away.  ``alias_log_factor`` is the
geometric sum over the images on one side, for a function that decays
like e^{-d k} (in K-normalized form) on that side: d = alpha - 1 toward
the in-the-money pole at zeta = -i, d = 1 + beta - alpha toward the
right tail, where a moment E[S_T^{1+beta}] bounds the function.  That
moment is S^{1+beta} e^{tau Psi(-i(1+beta))}, read from the same exponent
Psi the sums sample; the model modules supply the tau-free constants
around it, and :class:`AliasFloors` and ``lrm.plan_slices`` turn them
into the coarsest stride each strike may take.

Truncation.  Each bound of the model modules is a law (log L, p): its
tail past a stays below eps once a^p = L K^{1-alpha} S^alpha / eps,
which ``truncation_points`` solves for every strike at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ROUNDING, FftSizeError, InvalidParameterError, _require, _require_positive


@dataclass(frozen=True)
class FftConfig:
    """Frequency grid: N points spaced eta apart, contour shift alpha,
    allowable tail error eps."""

    n: int
    eta: float
    alpha: float = 1.75
    eps: float = 1e-2

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise FftSizeError(f"n = {self.n!r} is not an integer")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise FftSizeError(f"n = {self.n} is not a power of two >= 2")
        # held as an int: the row layouts take int.bit_length
        object.__setattr__(self, "n", int(self.n))
        _require_positive("eta", self.eta)
        _require(1.0 < self.alpha <= 2.0, "alpha must lie in (1, 2]")
        _require_positive("eps", self.eps)

    @property
    def grid_span(self) -> float:
        """Length N*eta of the discretized frequency interval."""
        return self.n * self.eta

    def zeta_grid(self) -> np.ndarray:
        """Contour samples eta*j - i*alpha, j = 0..N-1."""
        return self.eta * np.arange(self.n) - 1j * self.alpha


def trapezoid_weights(n: int, eta: float) -> np.ndarray:
    """w_0 = eta/2, then w_j = eta: the trapezoid rule on [0, inf) whose
    samples past the grid count as zeros."""
    w = np.full(n, eta)
    w[0] = 0.5 * eta
    return w


def alias_log_factor(distance, eta: float):
    """log sum_{m >= 1} e^{-2 pi m d / eta}: the images, 2 pi / eta apart in
    log-strike, of a K-normalized transform decaying like e^{-d |k|} on one
    side, in logs (d > 0, scalar or array)."""
    x = (2.0 * math.pi / eta) * np.asarray(distance, dtype=float)
    return -x - np.log1p(-np.exp(-x))


# rates d = 1 + beta - alpha at which right-tail bounds are tried: the
# moment E[S_T^{1+beta}] decays the K-normalized transform like e^{-d k}
# past the contour's own e^{-(alpha - 1) k}
ALIAS_RATES = np.geomspace(2.0**-6, 2.0**6, 97)


class AliasFloors:
    """The aliasing bound of every stride, built once per (model, grid):
    per spacing eta of ``etas`` (the strides s = 1, 2, ...) and per bound,
    the image sums A(alpha - 1) and A(1 + beta - alpha) (A =
    :func:`alias_log_factor`) taken with the bound's in-the-money log
    (``log_itms``) and tau-free right-tail log over ``beta`` (one row of
    ``log_rights``), and the moment rates ``rate`` = Re Psi(-i(1+beta)),
    which every term of every bound shares.  Called with the slices' taus,
    it gives per slice and spacing the smallest log(K/S) from which every bound

        e^{log_itm + A(alpha - 1)}
        + e^{tau rate + log_right + A(1 + beta - alpha) - beta log(K/S)}

    (over S) stays at or below 2^-53 for some beta of the grid; inf where
    the in-the-money images alone reach it.  An overflowed moment (inf, or
    NaN from 0 * inf) bounds nothing.  The right-tail images fall with K,
    so every larger strike passes.
    """

    def __init__(self, log_itms, log_rights, rate, beta: np.ndarray, alpha: float, etas):
        self.beta, self.rate = beta, rate
        # axes (spacing, bound, beta)
        etas = np.reshape(etas, (-1, 1, 1))
        itm = np.exp(np.reshape(log_itms, (-1, 1)) + alias_log_factor(alpha - 1.0, etas))
        # -inf where the in-the-money images alone use up 2^-53: no beta passes
        with np.errstate(divide="ignore"):
            log_budgets = np.log(np.maximum(ROUNDING - itm, 0.0))
        self._margins = log_rights + alias_log_factor(1.0 + beta - alpha, etas) - log_budgets
        for table in (beta, rate, self._margins):
            table.flags.writeable = False

    def __call__(self, taus) -> np.ndarray:
        """The floors at every tau, one row per slice and one column per spacing."""
        # axes (slice, spacing, bound, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            margins = np.multiply.outer(taus, self.rate)[:, None, None] + self._margins
        np.copyto(margins, np.inf, where=np.isnan(margins))
        return (margins / self.beta).min(axis=-1).max(axis=-1)


def coarsest_shift(config: FftConfig) -> int:
    """Largest s such that every 2^s-th point of the configured grid (at
    least two points) keeps the in-the-money image of I1,
    S e^{-2 pi (alpha - 1) / eta_s} summed over its images, below
    rounding, 2^-53 S.  That image is strike- and model-free, so no strike
    of any slice takes a coarser stride."""
    shift = 0
    while config.n >> (shift + 1) >= 2 and (
        alias_log_factor(config.alpha - 1.0, config.eta * (2 << shift)) < math.log(ROUNDING)
    ):
        shift += 1
    return shift


@dataclass(frozen=True)
class CarrMadanGrid:
    """Transform values on the log-strike grid k_l = -pi/eta + l * 2pi/(N eta),
    one row per grid for a block of grids."""

    k: np.ndarray
    values: np.ndarray

    def at(self, k) -> np.ndarray:
        """Linear interpolation at the log-strikes k, |k| < pi/eta by
        ``plan_slices``, one np.interp per grid (monotone-preserving: within
        the bracketing grid values), one row per grid of a block."""
        if self.values.ndim == 1:
            return np.interp(k, self.k, self.values)
        return np.array([np.interp(k, self.k, row) for row in self.values])


def carr_madan_grid(
    psi_samples: np.ndarray, alpha: float, eta: float, n: int | None = None
) -> CarrMadanGrid:
    """All grid values in one FFT:

        F(l) = (e^{-alpha k_l} / pi) sum_j e^{-2 pi i jl/N} e^{i pi j} psi_j w_j.

    The alternating e^{i pi j} = (-1)^j factor re-centers the k grid at 0
    (k = 0 lands on index l = N/2).  Values are the real parts of the
    damped sums, the whole transform; the imaginary parts are another
    transform of the same size, not an error term.  The samples may be a
    prefix of an N = n point grid (n defaults to their count); the FFT
    zero-pads them to N.  The samples may also be every 2^s-th point of a
    finer grid, given with its spacing eta and its point count n.  A 2-D
    block of samples, one grid per row, takes one ``np.fft.fft(axis=-1)``
    for all rows; each row has the bits of its own 1-D call.  The name is
    historical: the weights are trapezoid.

    Only finiteness, set by the model's arithmetic, is checked here;
    ``evaluate_slices`` meets the rest: eta = config.eta 2^s and alpha by
    :class:`FftConfig`, n = config.n >> s >= 2 by s <= ``coarsest_shift``,
    at most n samples by extents <= n - 2^s (rows c <= n / 2^s).
    """
    psi = np.asarray(psi_samples, dtype=complex)
    n = psi.shape[-1] if n is None else n
    if not np.all(np.isfinite(psi)):
        raise InvalidParameterError("psi samples must be finite")
    signed_weights, k, damping = _grid_tables(n, eta, alpha)
    f_raw = np.fft.fft(psi * signed_weights[: psi.shape[-1]], n, axis=-1)
    return CarrMadanGrid(k=k, values=damping * f_raw.real)


@functools.lru_cache(maxsize=8)
def _grid_tables(n: int, eta: float, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed weights (-1)^j w_j, log-strikes k_l and damping e^{-alpha k_l}/pi
    of one grid, read-only because every grid of the same (n, eta, alpha)
    shares them.  The sign flip is exact, so psi (-1)^j w_j has the bits of
    ((-1)^j psi) w_j.  The weights are held as complex w + 0i, the value a
    complex product casts a real weight to, so the product keeps its bits
    and skips the cast."""
    j = np.arange(n)
    signed_weights = (((-1.0) ** j) * trapezoid_weights(n, eta)).astype(complex)
    k = -math.pi / eta + (2.0 * math.pi / (n * eta)) * j
    with np.errstate(over="ignore"):
        damping = np.exp(-alpha * k) / math.pi
    for table in (signed_weights, k, damping):
        table.flags.writeable = False
    return signed_weights, k, damping


def row_layout(n: int) -> tuple[int, int]:
    """Row length c = 2^floor(bit_length(n) / 2) and row count r = ceil(n / c)
    of the factored phase j = c h + l over an n-point grid."""
    c = 1 << (n.bit_length() // 2)
    return c, -(-n // c)


def direct_simpson_sum(
    psi_samples: np.ndarray, alpha: float, eta: float, k, n: int | None = None, rows=None
) -> np.ndarray:
    """Damped sums at the exact log-strikes k, no grid snapping:

        (e^{-alpha k} / pi) Re sum_j e^{-i eta j k} psi_j w_j,

    with the trapezoid weights (the name is historical: the sum used
    Simpson weights once).

    The phase is factored as e^{-i eta k c h} e^{-i eta k l} over
    j = c h + l in the row layout of an n-point grid (``row_layout``;
    samples zero-padded to whole rows), so each log-strike takes
    r + c ~ 2 sqrt(N) exponentials plus O(N) multiply-adds, and all
    log-strikes of the call share one weighted copy of the samples.  The
    path for queries of a few strikes.  The contraction is an einsum, not
    a matrix product: BLAS would start threads that cost more than the sum.

    The samples may be a prefix of the n-point grid (n defaults to their
    count).  ``rows`` gives each log-strike's row count (default: every
    row the prefix reaches); a log-strike sums rows h < its count only,
    and the sum over h runs over all r rows of the layout with zeros past
    its count, so the result has the same bits whatever the prefix and
    the other log-strikes.  A 2-D stack of samples, one function per row,
    shares the phase exponentials and gives one row of sums per function,
    each with the bits of its own 1-D call.  Nothing is checked here:
    ``evaluate_slices`` meets the shape as for :func:`carr_madan_grid`,
    |k| < pi/eta by ``plan_slices``' stride (reach < ``_edges``) and range
    rules; rows in [1, held] by ``_prefix_rows``' clip and the view ``end``.
    """
    k = np.asarray(k, dtype=float)
    psi = np.asarray(psi_samples, dtype=complex)
    m = psi.shape[-1]
    n = m if n is None else n
    c, r = row_layout(n)
    held = -(-m // c)
    # one row per function, weighted and zero-padded to whole rows
    terms = np.zeros((psi.size // m, held * c), dtype=complex)
    np.multiply(psi.reshape(-1, m), trapezoid_weights(m, eta), out=terms[:, :m])
    flat = k.reshape(-1)
    lo = np.exp(-1j * np.multiply.outer(eta * flat, np.arange(c)))
    hi = np.exp(-1j * np.multiply.outer(eta * flat, c * np.arange(held)))
    # (function, log-strike, row), zero past the rows the prefix holds
    by_row = np.zeros((len(terms), flat.size, r), dtype=complex)
    partial = np.einsum("hl,sl->sh", terms.reshape(-1, c), lo).reshape(flat.size, -1, held)
    np.multiply(partial.transpose(1, 0, 2), hi, out=by_row[:, :, :held])
    if rows is not None and np.min(rows) < held:
        by_row[:, np.arange(r) >= np.reshape(rows, (-1, 1))] = 0.0
    sums = by_row.sum(axis=2)
    return np.reshape(np.exp(-alpha * flat) / math.pi * sums.real, psi.shape[:-1] + k.shape)


def truncation_points(laws, eps: float, strikes, spot: float, alpha: float) -> np.ndarray:
    """The frequency a past which a bound's tail stays below eps, one row
    per law (log L, p) and one column per strike: a^p = L K^{1-alpha}
    S^alpha / eps, taken in logs so that no factor overflows (log L = -inf
    gives a = 0)."""
    log_l, power = np.asarray(laws, dtype=float).T[:, :, None]
    shared = (1.0 - alpha) * np.log(strikes) + (alpha * math.log(spot) - math.log(eps))
    return np.exp((log_l + shared) / power)


def tail_condition_check(config: FftConfig, trunc_a: float) -> bool:
    """True iff the grid span N*eta covers the eps-sufficient truncation
    point (inclusive boundary, matching the <= in the bound statements)."""
    return config.grid_span >= trunc_a
