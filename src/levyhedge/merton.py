"""Merton jump-diffusion specifics.

Under the minimal martingale measure the Gaussian jump measure turns into
a two-component Gaussian mixture, the characteristic function stays in
closed form, and the jump term of the hedge numerator splits into three
damped Fourier transforms (two of them carrying an extra Gaussian factor
exp(-delta^2 z^2 / 2)).  The module also provides the envelope constant
C1 with |phi_tau(v - i alpha)| <= C1 exp(-sigma^2 v^2 tau / 2), the
frequency truncation points derived from it, and the tail bound that
stops each time slice's sums where the dropped samples fall below
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (  # noqa: F401  (ROUNDING: re-exported next to the prefix tail)
    ROUNDING,
    TAU_MIN,
    InvalidParameterError,
    MertonParams,
    MmmQuantities,
    OverflowGuardError,
    _EXP_GUARD,
    _require,
    levy_char_fn,
)
from .fft_engine import ALIAS_RATES

KERNEL_PLAIN = "plain"
KERNEL_DAMPED = "damped"

ComplexLike = Union[complex, np.ndarray]
FloatLike = Union[float, np.ndarray]


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
    return math.exp(merton_log_c1(params, mmm, tau, alpha))


def merton_log_c1(params: MertonParams, mmm: MmmQuantities, tau: float, alpha: float) -> float:
    """log C1 (see :func:`merton_c1`), refused above the exp() guard."""
    if tau < 0.0:
        raise InvalidParameterError("tau must be >= 0")
    exponent = _log_mgf(params, mmm, tau, alpha, math.exp)
    if exponent > _EXP_GUARD:
        raise OverflowGuardError(f"C1 exponent {exponent:.3g} exceeds {_EXP_GUARD:g}")
    return exponent


def _log_mgf(params: MertonParams, mmm: MmmQuantities, tau: float, p, exp):
    """tau Psi(-i p) = log E[(S_T / S)^p] under the minimal martingale
    measure, unguarded; ``exp`` is math.exp for a scalar p, np.exp for an
    array."""
    g, m, d2, sigma2 = params.gamma, params.m, params.delta**2, params.sigma**2
    h = mmm.h
    m2 = m + d2
    jump1 = exp(m * p + 0.5 * p**2 * d2) - 1.0 - p * m
    jump2 = exp(m2 * p + 0.5 * p**2 * d2) - 1.0 - p * m2
    return tau * (
        p * mmm.mu_star
        + 0.5 * sigma2 * p**2
        + (1.0 + h) * g * jump1
        - h * g * math.exp(m + 0.5 * d2) * jump2
    )


def merton_trunc_i1(
    eps: float,
    tau: float,
    strike: FloatLike,
    spot: float,
    alpha: float,
    c1: float,
    params: MertonParams,
) -> FloatLike:
    """Smallest frequency a with the stock-or-nothing tail below eps.

    Closed form of the quartic sufficient condition

        (K/pi (K/S)^{-alpha} C1)^{1/4} / (sigma sqrt(tau) eps^{1/4}) <= a.

    Returned as the exact equality point; rounding up to a grid multiple
    is the caller's job.  ``strike`` may be an array (one point per strike).
    """
    _require(eps > 0.0, "eps must be > 0")
    _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
    lead = strike / math.pi * (strike / spot) ** (-alpha) * c1
    return lead**0.25 / (params.sigma * math.sqrt(tau) * eps**0.25)


def merton_trunc_i2(
    eps: float,
    tau: float,
    strike: FloatLike,
    spot: float,
    alpha: float,
    c1: float,
    params: MertonParams,
) -> FloatLike:
    """Smallest frequency a with the jump-term tail below eps (quintic law):

        a^5 >= 4 C1 gamma K (K/S)^{-alpha} B / (5 pi sigma^4 tau^2 eps),

    B = e^{(alpha+1)m + (alpha^2/2 + alpha + 1/2) delta^2}
        + e^{m alpha + delta^2 alpha^2 / 2} + |1 - e^{m + delta^2/2}|.

    ``strike`` may be an array (one point per strike).
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


def merton_prefix_tail(
    a: np.ndarray,
    tau: float,
    spot: float,
    alpha: float,
    log_c1: float,
    params: MertonParams,
    mmm: MmmQuantities,
) -> np.ndarray:
    """Strike-free log factor G(a) of the tail a prefix of samples drops.

    Summing only the samples j < m of a slice's damped sums, a = (m-1) eta,
    moves I1 and I2 each by at most S K^{1-alpha} e^{G(a)} and the hedge
    ratio by at most K^{1-alpha} e^{G(a)}.  Each transform enters through
    a kernel f at a shifted strike K' with a coefficient, and dropping its
    samples past a moves its damped sum by at most

        (K'^{-alpha} / pi) int_a^inf C1 e^{-sigma^2 tau v^2/2} |f(v - i alpha)| dv,

    each trapezoid weight past j = 0 being the spacing (the envelope times
    the kernel bound decreases, so the sum over j >= m stays below the
    integral from a, at any spacing).  On the contour |indicator| <=
    S^alpha / v, |call| <= S^alpha / v^2 and |damped| <= S^alpha
    e^{delta^2 alpha^2/2} e^{-delta^2 v^2/2} / v^2, and int_a^inf e^{-b v^2}
    v^{-p} dv <= e^{-b a^2} / (2 b a^{p+1}).  I1 is the indicator term at
    K; I2 the three terms of :func:`merton_i2_terms`, a zero coefficient
    adding no tail; the ratio divides sigma^2 I1 + I2 by S (sigma^2 +
    quad moment).  Works in logs, so a large C1 cannot overflow.
    """
    a = np.asarray(a, dtype=float)
    sigma2, d2 = params.sigma**2, params.delta**2
    b = 0.5 * sigma2 * tau
    log_a = np.log(a)
    a2 = a * a
    # C1 S^alpha / pi, over S
    lead = -math.log(math.pi) + log_c1 + (alpha - 1.0) * math.log(spot)
    i1 = lead - b * a2 - math.log(2.0 * b) - 2.0 * log_a
    i2 = np.full(a.shape, -np.inf)
    for term in merton_i2_terms(params, 1.0):
        if term.coefficient == 0.0:
            continue
        log_coef = math.log(abs(term.coefficient)) + (1.0 - alpha) * math.log(term.strike)
        b_t = b
        if term.kernel == KERNEL_DAMPED:
            log_coef += 0.5 * d2 * alpha * alpha
            b_t += 0.5 * d2
        i2 = np.logaddexp(i2, lead + log_coef - b_t * a2 - math.log(2.0 * b_t) - 3.0 * log_a)
    ratio = np.logaddexp(math.log(sigma2) + i1, i2) - math.log(sigma2 + mmm.quad_exp_moment)
    return np.maximum(np.maximum(i1, i2), ratio)


def merton_alias_profile(
    params: MertonParams, mmm: MmmQuantities, tau: float, alpha: float
) -> tuple[np.ndarray, list[tuple[float, np.ndarray]]]:
    """Constants of the aliasing bound for I1, I2 and the hedge ratio.

    Each transform term (coefficient c, shifted strike K' = K s) moves,
    over S, by at most

        |c| a e^{A(alpha - 1)}
        + |c| b(beta) E[(S_T/S)^{1+beta}] (K'/S)^{-beta} e^{A(1 + beta - alpha)}

    with A = :func:`alias_log_factor` at the spacing.  Its K-normalized
    transform is below S/K' deep in the money (a call is below S) and
    below E[S_T^{1+beta}] K'^{-1-beta} far out (S_T 1{S_T > K} and
    (S_T - K)^+ are below S_T^{1+beta} / K^beta).  The indicator and call
    kinds have a = b = 1; the damped kind convolves the call with a
    N(0, delta^2) log-strike shift, so a = e^{delta^2/2} and b(beta) =
    e^{(1+beta)^2 delta^2/2}.  The moment is :func:`merton_log_c1` at
    1 + beta without its guard.  Returns the beta grid and, for I1, I2
    and the ratio, log of sum |c| a and log of sum |c| b(beta)
    E[(S_T/S)^{1+beta}] s^{-beta} over their terms.
    """
    beta = alpha - 1.0 + ALIAS_RATES
    with np.errstate(over="ignore", invalid="ignore"):
        log_mgf = _log_mgf(params, mmm, tau, 1.0 + beta, np.exp)
    # an overflowed moment (inf, or 0 * inf at gamma = 0) bounds nothing
    log_mgf = np.where(np.isnan(log_mgf), np.inf, log_mgf)
    d2 = params.delta**2
    i2 = []
    for term in merton_i2_terms(params, 1.0):
        if term.coefficient == 0.0:
            continue
        log_coef = math.log(abs(term.coefficient))
        right = log_coef + log_mgf - beta * math.log(term.strike)
        if term.kernel == KERNEL_DAMPED:
            i2.append((log_coef + 0.5 * d2, right + 0.5 * d2 * (1.0 + beta) ** 2))
        else:
            i2.append((log_coef, right))
    i1 = (0.0, log_mgf)
    if i2:
        itm, right = zip(*i2)
        i2 = (float(np.logaddexp.reduce(itm)), np.logaddexp.reduce(right))
    else:
        i2 = (-math.inf, np.full(beta.shape, -np.inf))
    # the ratio divides sigma^2 I1 + I2 by sigma^2 + quad moment
    log_sigma2 = 2.0 * math.log(params.sigma)
    log_denom = math.log(params.sigma**2 + mmm.quad_exp_moment)
    ratio = tuple(np.logaddexp(log_sigma2 + a, b) - log_denom for a, b in zip(i1, i2))
    return beta, [i1, i2, ratio]


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
