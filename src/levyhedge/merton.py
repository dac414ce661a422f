"""Merton jump-diffusion specifics on the production path.

Under the minimal martingale measure the Gaussian jump measure turns into
a two-component Gaussian mixture, the Levy exponent Psi stays in closed
form (a slice's characteristic function is exp(tau Psi)), and the jump
term of the hedge numerator is one damped Fourier transform at log(K/S), of
the call factor times a jump weight that shares Psi's two exponentials
(``merton_exponent_and_weight``).  It equals three transforms at shifted
strikes, two carrying a Gaussian factor exp(-delta^2 z^2 / 2)
(``merton_i2_terms``), which the bounds take one by one.  Every bound
reads Psi itself: the envelope constant C1 = e^{tau Psi(-i alpha)} with
|phi_tau(v - i alpha)| <= C1 exp(-sigma^2 v^2 tau / 2) and the moments
E[(S_T/S)^{1+beta}] = e^{tau Psi(-i(1+beta))} of the aliasing bound.  The
module provides the truncation laws derived from C1 (the frequency
truncation points are ``fft_engine.truncation_points`` of those laws),
the tau-free tables of the aliasing bound (``merton_alias_tables``), and
the tail bound that stops each time slice's sums where the dropped
samples fall below rounding.  The mixture's density and the
characteristic function of a horizon tau live in ``levyhedge.oracle``,
which checks them against quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .core import MertonParams, MmmQuantities
from .fft_engine import ALIAS_RATES

KERNEL_PLAIN = "call"
KERNEL_DAMPED = "damped"

ComplexLike = Union[complex, np.ndarray]


def merton_exponent(zeta: ComplexLike, params: MertonParams, mmm: MmmQuantities) -> ComplexLike:
    """Levy exponent Psi of the log price under the minimal martingale
    measure, so that phi_tau = exp(tau Psi):

    Psi(zeta) = i zeta mu* - sigma^2 zeta^2 / 2
        + (1+h) gamma (e^{i m zeta - zeta^2 delta^2/2} - 1 - i m zeta)
        - h gamma e^{m + delta^2/2}
          (e^{i (m+delta^2) zeta - zeta^2 delta^2/2} - 1 - i (m+delta^2) zeta)

    Psi is entire, so ``zeta`` (scalar or array) may be any complex point:
    the contour, and the imaginary axis, where tau Psi(-i p) = log
    E[(S_T / S)^p] gives the moments of the bounds.
    """
    out = merton_exponent_and_weight(zeta, params, mmm)[0]
    return out if np.ndim(zeta) else complex(out)


def merton_exponent_and_weight(
    zeta: ComplexLike, params: MertonParams, mmm: MmmQuantities
) -> tuple[np.ndarray, np.ndarray]:
    """Psi (:func:`merton_exponent`) and the jump weight of the original
    measure, as arrays, from Psi's two exponentials E1 = e^{i m zeta -
    delta^2 zeta^2/2} and E2 = e^{i (m+delta^2) zeta - delta^2 zeta^2/2}:

        w(zeta) = int (e^{i zeta x} - 1)(e^x - 1) nu(dx)
                = gamma [e^{m + delta^2/2} E2 - E1 + 1 - e^{m + delta^2/2}].

    w times the call factor is the three terms of :func:`merton_i2_terms`
    moved to log x, x = K/S: c s^{1 - i zeta} times a term's Gaussian factor is
    gamma e^{m + delta^2/2} E2, -gamma E1 and gamma (1 - e^{m + delta^2/2})."""
    z = np.asarray(zeta, dtype=complex)
    g, m, d2, sigma2 = params.gamma, params.m, params.delta**2, params.sigma**2
    h = mmm.h
    z2 = z * z
    m2 = m + d2
    e1 = np.exp(1j * m * z - 0.5 * d2 * z2)
    e2 = np.exp(1j * m2 * z - 0.5 * d2 * z2)
    lift = math.exp(m + 0.5 * d2)
    psi = (
        1j * z * mmm.mu_star
        - 0.5 * sigma2 * z2
        + (1.0 + h) * g * (e1 - 1.0 - 1j * m * z)
        - h * g * lift * (e2 - 1.0 - 1j * m2 * z)
    )
    return psi, g * (lift * e2 - e1 + (1.0 - lift))


def merton_trunc_laws(
    params: MertonParams, log_c1: float, tau: float, alpha: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Truncation laws (log L, p) of I1 and I2 for
    :func:`levyhedge.fft_engine.truncation_points`, from the envelope
    |phi_tau(v - i alpha)| <= C1 e^{-sigma^2 v^2 tau/2}, log C1 = tau Re
    Psi(-i alpha): I1 has L = C1 / (pi sigma^4 tau^2) and p = 4, I2 has
    L = 4 C1 gamma B / (5 pi sigma^4 tau^2) and p = 5 (log L = -inf at
    gamma = 0), where

        B = e^{(alpha+1)m + (alpha^2/2 + alpha + 1/2) delta^2}
            + e^{m alpha + delta^2 alpha^2 / 2} + |1 - e^{m + delta^2/2}|.
    """
    m, d2, a = params.m, params.delta**2, alpha
    bracket = (
        math.exp((a + 1.0) * m + (0.5 * a * a + a + 0.5) * d2)
        + math.exp(m * a + 0.5 * d2 * a * a)
        + abs(1.0 - math.exp(m + 0.5 * d2))
    )
    log_i1 = log_c1 - math.log(math.pi) - 4.0 * math.log(params.sigma) - 2.0 * math.log(tau)
    log_i2 = log_i1 + math.log(0.8 * params.gamma * bracket) if params.gamma > 0.0 else -math.inf
    return (log_i1, 4.0), (log_i2, 5.0)


def merton_prefix_tail(log_a: np.ndarray, a2: np.ndarray, tau, log_c1, tables: tuple) -> np.ndarray:
    """Strike- and spot-free log factor G(a) of the tail a prefix of samples
    drops, at the frequencies a given as log a and a^2, with ``tables`` =
    :func:`merton_prefix_tables`; tau and log C1 are scalars, or arrays of
    one entry per slice that give one row per slice.

    Summing only the samples j < m of a slice's damped sums, a = (m-1) eta,
    moves I1 and I2 each by at most S x^{1-alpha} e^{G(a)} and the hedge
    ratio by at most x^{1-alpha} e^{G(a)}, at moneyness x = K/S.  The sums
    run in moneyness, so each transform enters through a kernel f at a
    shifted moneyness x' = x s with a coefficient, and dropping its samples
    past a moves its damped sum by at most

        (x'^{-alpha} / pi) int_a^inf C1 e^{-sigma^2 tau v^2/2} |f(v - i alpha)| dv,

    each trapezoid weight past j = 0 being the spacing (the envelope times
    the kernel bound decreases, so the sum over j >= m stays below the
    integral from a, at any spacing).  On the contour |indicator| <= 1 / v,
    |call| <= 1 / v^2 and |damped| <= e^{delta^2 alpha^2/2}
    e^{-delta^2 v^2/2} / v^2, and int_a^inf e^{-b v^2} v^{-p} dv <= e^{-b
    a^2} / (2 b a^{p+1}).  I1 is K times the indicator term at x; I2 the
    three terms of :func:`merton_i2_terms`, a zero coefficient adding no
    tail; the ratio divides sigma^2 I1 + I2 by S (sigma^2 + quad moment).
    The jump transform is the sum of the three term transforms, so their
    bounds cover it unchanged.  Works in logs, so a large C1 cannot
    overflow.
    """
    sigma2, log_sigma2, log_denom, (log_coef, rate, power) = tables
    # axes (slice, bound, row end): b plus the kernel's rate, and C1 / pi
    # times the coefficient
    b = (0.5 * sigma2 * np.asarray(tau))[..., None, None] + rate
    lead = (-math.log(math.pi) + np.asarray(log_c1))[..., None, None] + log_coef
    logs = lead - b * a2 - np.log(2.0 * b) - power * log_a
    i1, i2 = logs[..., 0, :], np.logaddexp.reduce(logs[..., 1:, :], axis=-2)
    ratio = np.logaddexp(log_sigma2 + i1, i2) - log_denom
    return np.maximum(np.maximum(i1, i2), ratio)


def merton_prefix_tables(params: MertonParams, mmm: MmmQuantities, alpha: float) -> tuple:
    """The tau-free constants of :func:`merton_prefix_tail`: sigma^2, log
    sigma^2, log(sigma^2 + quad moment), and the rows (log coefficient,
    rate r its kernel adds to the Gaussian's b, power of 1/a) over the
    bounds, I1 (0, 0, 2) and then each term of :func:`merton_i2_terms`
    with a nonzero coefficient c and strike factor s: log |c| s^{1-alpha}
    + r alpha^2, r = delta^2 / 2 damped or 0 plain, and 3."""
    sigma2, d2 = params.sigma**2, params.delta**2
    bounds = [(0.0, 0.0, 2.0)]
    for term in merton_i2_terms(params):
        if term.coefficient != 0.0:
            log_coef = math.log(abs(term.coefficient)) + (1.0 - alpha) * math.log(term.strike)
            rate = 0.5 * d2 if term.kernel == KERNEL_DAMPED else 0.0
            bounds.append((log_coef + rate * alpha * alpha, rate, 3.0))
    columns = np.array(bounds).T[..., None]
    return sigma2, math.log(sigma2), math.log(sigma2 + mmm.quad_exp_moment), columns


def merton_alias_tables(
    params: MertonParams, mmm: MmmQuantities, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tau-free constants of the aliasing bound for I1, I2 and the
    hedge ratio (:class:`levyhedge.fft_engine.AliasFloors`): the beta
    grid, and per bound its in-the-money log and its right-tail log over
    beta.

    Each transform term (coefficient c, shifted strike K' = K s) moves,
    over S, by at most

        |c| a e^{A(alpha - 1)}
        + |c| b(beta) E[(S_T/S)^{1+beta}] (K'/S)^{-beta} e^{A(1 + beta - alpha)}

    with A = :func:`alias_log_factor` at the spacing.  Its K-normalized
    transform is below S/K' deep in the money (a call is below S) and
    below E[S_T^{1+beta}] K'^{-1-beta} far out (S_T 1{S_T > K} and
    (S_T - K)^+ are below S_T^{1+beta} / K^beta).  The indicator and call
    kinds have a = b = 1; the damped kind convolves the call with a
    N(0, delta^2) log-strike shift, so b(beta) = e^{(1+beta)^2 delta^2/2}
    and a = b(0).  The jump transform is the sum of the three term
    transforms, so their bounds, which I2's adds, cover it.

    Every term shares the moment e^{tau Psi(-i(1+beta))}, which the
    caller adds: a bound's right-tail log is the log of sum |c| b(beta)
    s^{-beta} over its terms, and its in-the-money log the same sum at
    beta = 0 (I1 has the one term c = s = 1; the ratio divides sigma^2 I1
    + I2 by sigma^2 + quad moment).
    """
    beta = alpha - 1.0 + ALIAS_RATES
    # beta = 0, the in-the-money constants, then the grid
    b = np.concatenate(([0.0], beta))
    d2 = params.delta**2
    terms = [
        math.log(abs(t.coefficient)) - b * math.log(t.strike)
        + (0.5 * d2 * (1.0 + b) ** 2 if t.kernel == KERNEL_DAMPED else 0.0)
        for t in merton_i2_terms(params)
        if t.coefficient != 0.0
    ]
    i2 = np.logaddexp.reduce(terms) if terms else np.full(b.shape, -np.inf)
    log_denom = math.log(params.sigma**2 + mmm.quad_exp_moment)
    ratio = np.logaddexp(2.0 * math.log(params.sigma), i2) - log_denom
    tables = np.array([np.zeros(b.shape), i2, ratio])
    return beta, tables[:, 0], tables[:, 1:]


class I2Term(NamedTuple):
    """One (coefficient, shifted strike, kernel) term of the jump integral:
    ``kernel`` KERNEL_PLAIN transforms the call factor psi2, KERNEL_DAMPED
    psi2 times exp(-delta^2 zeta^2 / 2).  The bounds take the terms one by
    one; the production path transforms their sum at log(K/S)."""

    coefficient: float
    strike: float
    kernel: str


def merton_i2_terms(params: MertonParams) -> tuple[I2Term, I2Term, I2Term]:
    """Split the jump term into three damped Fourier transforms:

        gamma e^{2m + 3 delta^2/2} f~(K e^{-m - delta^2})
        - gamma e^{m} f~(K e^{-m})
        + gamma (1 - e^{m + delta^2/2}) f(K),

    where f is the call-price transform built from psi2 and f~ the same
    transform with the Gaussian-damped kernel.  Each ``strike`` is the
    term's strike factor, its shifted strike at K = 1.
    """
    g, m, d2 = params.gamma, params.m, params.delta**2
    return (
        I2Term(g * math.exp(2.0 * m + 1.5 * d2), math.exp(-m - d2), KERNEL_DAMPED),
        I2Term(-g * math.exp(m), math.exp(-m), KERNEL_DAMPED),
        I2Term(g * (1.0 - math.exp(m + 0.5 * d2)), 1.0, KERNEL_PLAIN),
    )
