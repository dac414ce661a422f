"""Merton jump-diffusion specifics.

Under the minimal martingale measure the Gaussian jump measure turns into
a two-component Gaussian mixture, the characteristic function stays in
closed form, and the jump term of the hedge numerator splits into three
damped Fourier transforms (two of them carrying an extra Gaussian factor
exp(-delta^2 z^2 / 2)).  The module also provides the envelope constant
C1 with |phi_tau(v - i alpha)| <= C1 exp(-sigma^2 v^2 tau / 2) and the
frequency truncation points derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    TAU_MIN,
    InvalidParameterError,
    MertonParams,
    MmmQuantities,
    OverflowGuardError,
    _EXP_GUARD,
    _require,
    levy_char_fn,
)

KERNEL_PLAIN = "plain"
KERNEL_DAMPED = "damped"

ComplexLike = Union[complex, np.ndarray]


@dataclass(frozen=True)
class GaussianJumpComponent:
    """One weighted Gaussian piece of a jump measure."""

    intensity: float
    mean: float
    variance: float

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) ** 2 / (2.0 * self.variance)
        return self.intensity / math.sqrt(2.0 * math.pi * self.variance) * np.exp(-z)


@dataclass(frozen=True)
class GaussianJumpMixture:
    """Jump measure after the martingale measure change."""

    components: tuple[GaussianJumpComponent, ...]

    def density(self, x: np.ndarray) -> np.ndarray:
        return sum(c.density(x) for c in self.components)

    @property
    def total_intensity(self) -> float:
        return sum(c.intensity for c in self.components)


def merton_levy_density(params: MertonParams, x: np.ndarray) -> np.ndarray:
    """Levy density gamma * N(m, delta^2) of the original measure."""
    return GaussianJumpComponent(params.gamma, params.m, params.delta**2).density(x)


def merton_mmm_measure(params: MertonParams, h: float) -> GaussianJumpMixture:
    """Tilted jump measure (1 - h(e^x - 1)) nu(dx) as a Gaussian mixture.

    The e^x reweighting of a Gaussian density is again Gaussian with the
    mean shifted by delta^2 and the mass scaled by e^{m + delta^2/2}, so
    the result has exactly two components:

        ((1+h) gamma, m, delta^2)  and
        (-h gamma e^{m + delta^2/2}, m + delta^2, delta^2).

    Both intensities are nonnegative because h lies in (-1, 0].
    """
    _require(-1.0 < h <= 0.0, f"Girsanov slope h = {h:g} outside (-1, 0]")
    g, m, d2 = params.gamma, params.m, params.delta**2
    return GaussianJumpMixture(
        (
            GaussianJumpComponent((1.0 + h) * g, m, d2),
            GaussianJumpComponent(-h * g * math.exp(m + 0.5 * d2), m + d2, d2),
        )
    )


def _check_contour(zeta: np.ndarray) -> None:
    im = np.imag(zeta)
    if np.any(im > 1e-12) or np.any(im < -2.0 - 1e-12):
        raise InvalidParameterError(
            "characteristic function is evaluated on contours Im(zeta) in [-2, 0]"
        )


def merton_exponent(zeta: ComplexLike, params: MertonParams, mmm: MmmQuantities) -> ComplexLike:
    """Levy exponent Psi of the log price under the minimal martingale
    measure, so that phi_tau = exp(tau Psi):

    Psi(zeta) = i zeta mu* - sigma^2 zeta^2 / 2
        + (1+h) gamma (e^{i m zeta - zeta^2 delta^2/2} - 1 - i m zeta)
        - h gamma e^{m + delta^2/2}
          (e^{i (m+delta^2) zeta - zeta^2 delta^2/2} - 1 - i (m+delta^2) zeta)

    Accepts scalars or arrays for ``zeta`` (contour Im(zeta) in [-2, 0]).
    """
    z = np.asarray(zeta, dtype=complex)
    _check_contour(z)
    g, m, d2, sigma2 = params.gamma, params.m, params.delta**2, params.sigma**2
    h = mmm.h
    z2 = z * z
    m2 = m + d2
    jump1 = np.exp(1j * m * z - 0.5 * d2 * z2) - 1.0 - 1j * m * z
    jump2 = np.exp(1j * m2 * z - 0.5 * d2 * z2) - 1.0 - 1j * m2 * z
    out = (
        1j * z * mmm.mu_star
        - 0.5 * sigma2 * z2
        + (1.0 + h) * g * jump1
        - h * g * math.exp(m + 0.5 * d2) * jump2
    )
    return out if np.ndim(zeta) else complex(out)


def merton_char_fn(
    zeta: ComplexLike, tau: float, params: MertonParams, mmm: MmmQuantities
) -> ComplexLike:
    """Characteristic function exp(tau Psi(zeta)) of the log price over a
    horizon tau, taken under the minimal martingale measure."""
    return levy_char_fn(merton_exponent(zeta, params, mmm), tau)


def gaussian_damping(zeta: ComplexLike, delta: float) -> ComplexLike:
    """Factor exp(-delta^2 zeta^2 / 2) carried by the shifted-strike kernels."""
    z = np.asarray(zeta, dtype=complex)
    out = np.exp(-0.5 * delta * delta * z * z)
    return out if np.ndim(zeta) else complex(out)


def merton_c1(params: MertonParams, mmm: MmmQuantities, tau: float, alpha: float) -> float:
    """Envelope constant: |phi_tau(v - i alpha)| <= C1 e^{-sigma^2 v^2 tau/2}.

    C1 = exp{ tau [ alpha mu* + sigma^2 alpha^2 / 2
                    + int (e^{alpha x} - 1 - alpha x) tilted-nu(dx) ] }.
    """
    if tau < 0.0:
        raise InvalidParameterError("tau must be >= 0")
    g, m, d2, sigma2 = params.gamma, params.m, params.delta**2, params.sigma**2
    h = mmm.h
    m2 = m + d2
    jump1 = math.exp(m * alpha + 0.5 * alpha**2 * d2) - 1.0 - alpha * m
    jump2 = math.exp(m2 * alpha + 0.5 * alpha**2 * d2) - 1.0 - alpha * m2
    exponent = tau * (
        alpha * mmm.mu_star
        + 0.5 * sigma2 * alpha**2
        + (1.0 + h) * g * jump1
        - h * g * math.exp(m + 0.5 * d2) * jump2
    )
    if exponent > _EXP_GUARD:
        raise OverflowGuardError(f"C1 exponent {exponent:.3g} exceeds {_EXP_GUARD:g}")
    return math.exp(exponent)


def merton_trunc_i1(
    eps: float,
    tau: float,
    strike: float,
    spot: float,
    alpha: float,
    c1: float,
    params: MertonParams,
) -> float:
    """Smallest frequency a with the stock-or-nothing tail below eps.

    Closed form of the quartic sufficient condition

        (K/pi (K/S)^{-alpha} C1)^{1/4} / (sigma sqrt(tau) eps^{1/4}) <= a.

    Returned as the exact equality point; rounding up to a grid multiple
    is the caller's job.
    """
    _require(eps > 0.0, "eps must be > 0")
    _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
    lead = strike / math.pi * (strike / spot) ** (-alpha) * c1
    return lead**0.25 / (params.sigma * math.sqrt(tau) * eps**0.25)


def merton_trunc_i2(
    eps: float,
    tau: float,
    strike: float,
    spot: float,
    alpha: float,
    c1: float,
    params: MertonParams,
) -> float:
    """Smallest frequency a with the jump-term tail below eps (quintic law):

        a^5 >= 4 C1 gamma K (K/S)^{-alpha} B / (5 pi sigma^4 tau^2 eps),

    B = e^{(alpha+1)m + (alpha^2/2 + alpha + 1/2) delta^2}
        + e^{m alpha + delta^2 alpha^2 / 2} + |1 - e^{m + delta^2/2}|.
    """
    _require(eps > 0.0, "eps must be > 0")
    _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
    m, d2, a = params.m, params.delta**2, alpha
    bracket = (
        math.exp((a + 1.0) * m + (0.5 * a * a + a + 0.5) * d2)
        + math.exp(m * a + 0.5 * d2 * a * a)
        + abs(1.0 - math.exp(m + 0.5 * d2))
    )
    rhs = (
        4.0
        * c1
        * params.gamma
        * strike
        * (strike / spot) ** (-a)
        * bracket
        / (5.0 * math.pi * params.sigma**4 * tau**2 * eps)
    )
    return rhs ** (1.0 / 5.0)


@dataclass(frozen=True)
class I2Term:
    """One (coefficient, shifted strike, kernel) term of the jump integral."""

    coefficient: float
    strike: float
    kernel: str  # KERNEL_PLAIN -> psi2, KERNEL_DAMPED -> psi2 * gaussian_damping


@dataclass(frozen=True)
class MertonI2Decomposition:
    terms: tuple[I2Term, I2Term, I2Term]

    def __iter__(self):
        return iter(self.terms)


def merton_i2_terms(params: MertonParams, strike: float) -> MertonI2Decomposition:
    """Split the jump term into three damped Fourier transforms:

        gamma e^{2m + 3 delta^2/2} f~(K e^{-m - delta^2})
        - gamma e^{m} f~(K e^{-m})
        + gamma (1 - e^{m + delta^2/2}) f(K),

    where f is the call-price transform built from psi2 and f~ the same
    transform with the Gaussian-damped kernel.
    """
    _require(strike > 0.0, "strike must be > 0")
    g, m, d2 = params.gamma, params.m, params.delta**2
    return MertonI2Decomposition(
        (
            I2Term(g * math.exp(2.0 * m + 1.5 * d2), strike * math.exp(-m - d2), KERNEL_DAMPED),
            I2Term(-g * math.exp(m), strike * math.exp(-m), KERNEL_DAMPED),
            I2Term(g * (1.0 - math.exp(m + 0.5 * d2)), strike, KERNEL_PLAIN),
        )
    )
