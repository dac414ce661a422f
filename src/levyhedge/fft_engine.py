"""Numerical layer for the damped Fourier transforms.

A target value X(k) = (1/pi) int_0^inf e^{-i(v - i alpha) k} psi(v - i alpha) dv
is approximated by the weighted sum over the frequency grid v_j = eta*j,

    X(k) ~= (e^{-alpha k} / pi) sum_j e^{-i eta j k} psi(eta j - i alpha) w_j,

with Simpson-style weights w_j = (eta/3)(3 + (-1)^{j+1} - delta_{j0}).
Evaluated for all grid log-strikes k_l = -pi/eta + 2 pi l / (N eta) at once,
the sum is a plain DFT

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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import FftSizeError, InvalidParameterError, _require


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


def simpson_weights(n: int, eta: float) -> np.ndarray:
    """w_j = (eta/3) (3 + (-1)^{j+1} - delta_{j0}); j=0 gets eta/3, then
    the 4/3, 2/3 alternation."""
    _require(n >= 2, "need n >= 2")
    _require(eta > 0.0, "eta must be > 0")
    third = eta / 3.0
    w = np.full(n, 2.0 * third)
    w[1::2] = 4.0 * third
    w[0] = third
    return w


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


def carr_madan_grid(psi_samples: np.ndarray, alpha: float, eta: float) -> CarrMadanGrid:
    """All grid values in one FFT:

        F(l) = (e^{-alpha k_l} / pi) sum_j e^{-2 pi i jl/N} e^{i pi j} psi_j w_j.

    The alternating e^{i pi j} = (-1)^j factor re-centers the k grid at 0
    (k = 0 lands on index l = N/2).  Values are the real parts of the
    damped sums; the imaginary residue is discretization noise.
    """
    psi = np.asarray(psi_samples, dtype=complex)
    n = psi.size
    if psi.ndim != 1 or n == 0 or (n & (n - 1)) != 0:
        raise FftSizeError(f"sample shape {psi.shape} is not one power-of-two axis")
    _require(eta > 0.0, "eta must be > 0")
    _require(1.0 < alpha <= 2.0, "alpha must lie in (1, 2]")
    if not np.all(np.isfinite(psi)):
        raise InvalidParameterError("psi samples must be finite")
    signed_weights, k, damping = _grid_tables(n, eta, alpha)
    f_raw = np.fft.fft(psi * signed_weights)
    return CarrMadanGrid(k=k, values=damping * f_raw.real, alpha=alpha, eta=eta)


@functools.lru_cache(maxsize=8)
def _grid_tables(n: int, eta: float, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed weights (-1)^j w_j, log-strikes k_l and damping e^{-alpha k_l}/pi
    of one grid, read-only because every grid of the same (n, eta, alpha)
    shares them.  The sign flip is exact, so psi (-1)^j w_j has the bits of
    ((-1)^j psi) w_j."""
    j = np.arange(n)
    signed_weights = ((-1.0) ** j) * simpson_weights(n, eta)
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
    terms *= psi * simpson_weights(psi.size, eta)
    return complex(terms.sum())


def direct_simpson_sum(psi_samples: np.ndarray, alpha: float, eta: float, k) -> np.ndarray:
    """Damped sums at the exact log-strikes k, no grid snapping:

        (e^{-alpha k} / pi) Re sum_j e^{-i eta j k} psi_j w_j.

    The phase is factored as e^{-i eta k c h} e^{-i eta k l} over
    j = c h + l (samples zero-padded to r c), so each log-strike takes
    r + c ~ 2 sqrt(N) exponentials plus O(N) multiply-adds, and all
    log-strikes of the call share one weighted copy of the samples.  The
    path for queries of a few strikes.  The contraction is an einsum, not
    a matrix product: BLAS would start threads that cost more than the sum.
    """
    k = _log_strikes(k, eta)
    psi = np.asarray(psi_samples, dtype=complex).reshape(-1)
    n = psi.size
    terms = psi * simpson_weights(n, eta)
    c = 1 << (n.bit_length() // 2)
    r = -(-n // c)
    if r * c != n:
        terms = np.concatenate((terms, np.zeros(r * c - n, dtype=complex)))
    flat = k.reshape(-1)
    lo = np.exp(-1j * np.multiply.outer(eta * flat, np.arange(c)))
    hi = np.exp(-1j * np.multiply.outer(eta * flat, c * np.arange(r)))
    sums = (np.einsum("hl,sl->sh", terms.reshape(r, c), lo) * hi).sum(axis=1)
    return np.reshape(np.exp(-alpha * flat) / math.pi * sums.real, k.shape)


def tail_condition_check(config: FftConfig, trunc_a: float) -> bool:
    """True iff the grid span N*eta covers the eps-sufficient truncation
    point (inclusive boundary, matching the <= in the bound statements)."""
    return config.grid_span >= trunc_a
