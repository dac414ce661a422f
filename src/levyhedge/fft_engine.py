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
right tail, where a moment E[S_T^{1+beta}] bounds the function.  The
model modules supply those constants; ``lrm.SliceBounds`` turns them
into the coarsest stride each strike may take.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ROUNDING, FftSizeError, InvalidParameterError, _require


@dataclass(frozen=True)
class FftConfig:
    """Frequency grid: N points spaced eta apart, contour shift alpha,
    allowable tail error eps."""

    n: int
    eta: float
    alpha: float = 1.75
    eps: float = 1e-2

    def __post_init__(self) -> None:
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise FftSizeError(f"n = {self.n} is not a power of two >= 2")
        _require(self.eta > 0.0, "eta must be > 0")
        _require(1.0 < self.alpha <= 2.0, "alpha must lie in (1, 2]")
        _require(self.eps > 0.0, "eps must be > 0")

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
    _require(n >= 2, "need n >= 2")
    _require(eta > 0.0, "eta must be > 0")
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


def alias_floors(profile, beta: np.ndarray, alpha: float, etas) -> list[float]:
    """Per spacing eta of ``etas``: the smallest log(K/S) from which every
    bound (log_itm, log_right) of ``profile``,

        e^{log_itm + A(alpha - 1)} + e^{log_right(beta) + A(1 + beta - alpha) - beta log(K/S)}

    (over S, A = :func:`alias_log_factor` at eta), stays at or below 2^-53
    for some beta of the grid; inf where the in-the-money images alone
    reach it.  The right-tail images fall with K, so every larger strike
    passes.
    """
    floors = []
    for eta in etas:
        itm = float(alias_log_factor(alpha - 1.0, eta))
        right = alias_log_factor(1.0 + beta - alpha, eta)
        floor = -math.inf
        for log_itm, log_right in profile:
            budget = ROUNDING - math.exp(log_itm + itm)
            if budget <= 0.0:
                floor = math.inf
                break
            floor = max(floor, float(np.min((log_right + right - math.log(budget)) / beta)))
        floors.append(floor)
    return floors


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
    """Transform values on the log-strike grid k_l = -pi/eta + l * 2pi/(N eta)."""

    k: np.ndarray
    values: np.ndarray
    alpha: float
    eta: float

    def at(self, k) -> np.ndarray:
        """Linear interpolation at the log-strikes k, one np.interp for all
        (monotone-preserving: within the bracketing grid values)."""
        return np.interp(_log_strikes(k, self.eta), self.k, self.values)


def _log_strikes(k, eta: float) -> np.ndarray:
    """k as a float array, every entry inside |k| < pi/eta."""
    k = np.asarray(k, dtype=float)
    outside = ~(np.abs(k) < math.pi / eta)
    if outside.any():
        raise InvalidParameterError(
            f"log-strike {k[outside][0]:g} outside the representable range (-pi/eta, pi/eta)"
        )
    return k


def carr_madan_grid(
    psi_samples: np.ndarray, alpha: float, eta: float, n: int | None = None
) -> CarrMadanGrid:
    """All grid values in one FFT:

        F(l) = (e^{-alpha k_l} / pi) sum_j e^{-2 pi i jl/N} e^{i pi j} psi_j w_j.

    The alternating e^{i pi j} = (-1)^j factor re-centers the k grid at 0
    (k = 0 lands on index l = N/2).  Values are the real parts of the
    damped sums; the imaginary residue is discretization noise.  The
    samples may be a prefix of an N = n point grid (n defaults to their
    count); the FFT zero-pads them to N.  The samples may also be every
    2^s-th point of a finer grid, given with its spacing eta and its
    point count n.  The name is historical: the weights are trapezoid.
    """
    psi = np.asarray(psi_samples, dtype=complex)
    n = psi.size if n is None else n
    if psi.ndim != 1 or psi.size == 0 or psi.size > n or (n & (n - 1)) != 0:
        raise FftSizeError(f"sample shape {psi.shape} is not a prefix of one power-of-two axis")
    _require(eta > 0.0, "eta must be > 0")
    _require(1.0 < alpha <= 2.0, "alpha must lie in (1, 2]")
    if not np.all(np.isfinite(psi)):
        raise InvalidParameterError("psi samples must be finite")
    signed_weights, k, damping = _grid_tables(n, eta, alpha)
    f_raw = np.fft.fft(psi * signed_weights[: psi.size], n)
    return CarrMadanGrid(k=k, values=damping * f_raw.real, alpha=alpha, eta=eta)


@functools.lru_cache(maxsize=8)
def _grid_tables(n: int, eta: float, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed weights (-1)^j w_j, log-strikes k_l and damping e^{-alpha k_l}/pi
    of one grid, read-only because every grid of the same (n, eta, alpha)
    shares them.  The sign flip is exact, so psi (-1)^j w_j has the bits of
    ((-1)^j psi) w_j."""
    j = np.arange(n)
    signed_weights = ((-1.0) ** j) * trapezoid_weights(n, eta)
    k = -math.pi / eta + (2.0 * math.pi / (n * eta)) * j
    with np.errstate(over="ignore"):
        damping = np.exp(-alpha * k) / math.pi
    for table in (signed_weights, k, damping):
        table.flags.writeable = False
    return signed_weights, k, damping


def damped_sum_complex(psi_samples: np.ndarray, eta: float, k: float) -> complex:
    """Raw weighted sum sum_j e^{-i eta j k} psi_j w_j (no damping factor),
    with one exponential per sample.

    The naive O(N) reference that tests hold :func:`direct_simpson_sum`
    to; no production path calls it."""
    psi = np.asarray(psi_samples, dtype=complex)
    terms = np.exp(-1j * eta * k * np.arange(psi.size))
    terms *= psi * trapezoid_weights(psi.size, eta)
    return complex(terms.sum())


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
    the other log-strikes.
    """
    k = _log_strikes(k, eta)
    psi = np.asarray(psi_samples, dtype=complex).reshape(-1)
    m = psi.size
    n = m if n is None else n
    _require(m <= n, f"{m} samples exceed the {n}-point grid")
    terms = psi * trapezoid_weights(m, eta)
    c, r = row_layout(n)
    held = -(-m // c)
    if held * c != m:
        terms = np.concatenate((terms, np.zeros(held * c - m, dtype=complex)))
    flat = k.reshape(-1)
    lo = np.exp(-1j * np.multiply.outer(eta * flat, np.arange(c)))
    hi = np.exp(-1j * np.multiply.outer(eta * flat, c * np.arange(held)))
    by_row = np.einsum("hl,sl->sh", terms.reshape(held, c), lo) * hi
    if rows is not None:
        rows = np.asarray(rows).reshape(flat.shape)
        fewest = rows.min()
        _require(fewest >= 1 and rows.max() <= held, "row counts outside the prefix")
        if fewest < held:
            by_row[np.arange(held) >= rows[:, None]] = 0.0
    if held < r:
        by_row = np.concatenate((by_row, np.zeros((flat.size, r - held), dtype=complex)), axis=1)
    sums = by_row.sum(axis=1)
    return np.reshape(np.exp(-alpha * flat) / math.pi * sums.real, k.shape)


def tail_condition_check(config: FftConfig, trunc_a: float) -> bool:
    """True iff the grid span N*eta covers the eps-sufficient truncation
    point (inclusive boundary, matching the <= in the bound statements)."""
    return config.grid_span >= trunc_a
