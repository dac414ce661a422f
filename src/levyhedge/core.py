"""Shared domain types and minimal-martingale-measure quantities.

Two exponential Levy models of the log price are supported:

* Merton jump diffusion: Brownian component with volatility ``sigma``
  plus compound Poisson jumps of intensity ``gamma`` and N(m, delta^2)
  jump sizes.
* Variance gamma: Brownian motion with drift ``m`` and volatility
  ``delta`` time-changed by a gamma subordinator of variance rate
  ``kappa``.  Equivalently a pure-jump process with Levy density
  C (1_{x<0} e^{G x} + 1_{x>0} e^{-M x}) / |x|.

The change to the minimal martingale measure is driven by the Girsanov
slope

    h = mu_S / (sigma^2 + int (e^x - 1)^2 nu(dx)),

where mu_S is the drift of the price SDE.  Everything needed here (mu_S,
the quadratic exponential moment, h and the transformed log-price drift
mu_star) has a closed form for both models; the quadrature module
re-derives the same numbers independently for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

# Queries closer to expiry than this are rejected: every frequency
# truncation bound in this package diverges as tau -> 0.
TAU_MIN = 1e-6

# Guard band for the mu_S <= 0 boundary of the drift condition, so
# parametrizations sitting exactly on it (mu_S == 0 up to roundoff of
# O(1) sums) validate and yield h == 0.
_DRIFT_TOL = 1e-12

# exp() overflows just above exp(709); clamp with headroom so a poisoned
# sample array can never reach the FFT
_EXP_GUARD = 700.0

# one unit in the last place of 1: the error a certified shortcut (a
# shorter prefix, a coarser stride) may add to a transform over S
ROUNDING = 2.0**-53


class LevyHedgeError(Exception):
    """Base class for errors raised by this package."""


class InvalidParameterError(LevyHedgeError, ValueError):
    """A parameter violates a hard domain constraint (positivity, range)."""


class AssumptionError(LevyHedgeError, ValueError):
    """Model parameters fail the drift or moment conditions required for
    the measure change to exist."""


class ModelMismatchError(LevyHedgeError, TypeError):
    """An operation was called with a model family it does not support."""


class TailConditionError(LevyHedgeError, RuntimeError):
    """The configured grid span N*eta does not cover the frequency
    truncation point required for the allowable error."""


class OverflowGuardError(LevyHedgeError, FloatingPointError):
    """A characteristic-function exponent exceeded the safe range for
    double precision exp()."""


class BranchCutError(LevyHedgeError, ArithmeticError):
    """A complex power base left the right half-plane, so the principal
    branch would be discontinuous along the integration contour."""


class FftSizeError(LevyHedgeError, ValueError):
    """Transform input length is not a power of two."""


class QuadratureConvergenceError(LevyHedgeError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def time_to_maturity(t: float, T: float) -> float:
    """tau = T - t for a finite evaluation time t >= 0 and maturity T > 0,
    refusing tau below TAU_MIN."""
    for name, value in (("t", t), ("T", T)):
        _require_finite(name, value)
    _require(T > 0.0, "maturity T must be > 0")
    _require(t >= 0.0, "evaluation time t must be >= 0")
    if T - t < TAU_MIN:
        raise InvalidParameterError(
            f"time to maturity {T - t:g} is below the supported "
            f"minimum {TAU_MIN:g}; truncation bounds diverge at expiry"
        )
    return T - t


def levy_char_fn(psi, tau: float):
    """phi_tau = exp(tau * Psi) from the Levy exponent Psi (scalar or
    array), refusing any exponent whose real part would overflow exp()."""
    if tau < 0.0:
        raise InvalidParameterError("tau must be >= 0")
    exponent = tau * np.asarray(psi, dtype=complex)
    peak = float(np.max(exponent.real)) if exponent.size else 0.0
    if peak > _EXP_GUARD:
        raise OverflowGuardError(
            f"characteristic exponent real part {peak:.3g} exceeds {_EXP_GUARD:g}"
        )
    out = np.exp(exponent)
    return out if np.ndim(psi) else complex(out)


@dataclass(frozen=True)
class MertonParams:
    """Merton jump-diffusion parameters.

    mu     drift of the log price per unit time
    sigma  diffusion volatility, > 0
    gamma  jump intensity per unit time, >= 0 (0 degenerates to pure
           Black-Scholes, useful as a control case)
    m      mean jump size
    delta  jump-size standard deviation, > 0
    """

    mu: float
    sigma: float
    gamma: float
    m: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "gamma", "m", "delta"):
            _require_finite(name, getattr(self, name))
        _require(self.sigma > 0.0, "sigma must be > 0")
        _require(self.gamma >= 0.0, "gamma must be >= 0")
        _require(self.delta > 0.0, "delta must be > 0")


@dataclass(frozen=True)
class VgParams:
    """Variance gamma parameters in the time-changed representation.

    kappa  variance rate of the gamma subordinator, > 0
    m      drift of the time-changed Brownian motion
    delta  volatility of the time-changed Brownian motion, > 0

    The equivalent CGM parametrization is exposed through the ``C``,
    ``G`` and ``M`` properties.  The log-price drift is not a free knob:
    it equals the Levy-measure mean ``C (G - M) / (G M)``, which is what
    makes the log price a pure-jump process.
    """

    kappa: float
    m: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("kappa", "m", "delta"):
            _require_finite(name, getattr(self, name))
        _require(self.kappa > 0.0, "kappa must be > 0")
        _require(self.delta > 0.0, "delta must be > 0")

    @property
    def C(self) -> float:
        return 1.0 / self.kappa

    @property
    def G(self) -> float:
        d2 = self.delta * self.delta
        return math.sqrt(self.m * self.m + 2.0 * d2 / self.kappa) / d2 + self.m / d2

    @property
    def M(self) -> float:
        d2 = self.delta * self.delta
        return math.sqrt(self.m * self.m + 2.0 * d2 / self.kappa) / d2 - self.m / d2

    @property
    def g_minus_m(self) -> float:
        """G - M computed without cancellation (equals 2 m / delta^2)."""
        return 2.0 * self.m / (self.delta * self.delta)

    @classmethod
    def from_cgm(cls, C: float, G: float, M: float) -> "VgParams":
        """Build from the CGM parametrization (exact inversion)."""
        _require(C > 0.0 and G > 0.0 and M > 0.0, "C, G, M must all be > 0")
        delta2 = 2.0 * C / (G * M)
        return cls(kappa=1.0 / C, m=C * (G - M) / (G * M), delta=math.sqrt(delta2))


Model = Union[MertonParams, VgParams]


@dataclass(frozen=True)
class MmmQuantities:
    """Scalar quantities of the minimal-martingale-measure change.

    mu_s             drift of the price SDE
    quad_exp_moment  int (e^x - 1)^2 nu(dx)
    h                Girsanov slope mu_s / (sigma^2 + quad_exp_moment);
                     the Brownian tilt is h*sigma and the jump tilt at
                     size x is h*(e^x - 1)
    mu_star          drift of the log price under the new measure
    """

    mu_s: float
    quad_exp_moment: float
    h: float
    mu_star: float


@dataclass(frozen=True)
class MarketQuery:
    """Inputs of a single hedge-ratio evaluation."""

    t: float
    T: float
    spot: float
    strike: float

    def __post_init__(self) -> None:
        time_to_maturity(self.t, self.T)
        for name in ("spot", "strike"):
            _require_finite(name, getattr(self, name))
            _require(getattr(self, name) > 0.0, f"{name} must be > 0")

    @property
    def tau(self) -> float:
        return self.T - self.t

    @property
    def moneyness(self) -> float:
        return self.strike / self.spot

    @property
    def log_strike(self) -> float:
        return math.log(self.strike)


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    slack: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the model admissibility checks.

    Reported as data rather than raised, so callers (in particular the
    CLI) can show every violated condition at once.
    """

    kind: str
    conditions: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.conditions if not c.passed)


# ---------------------------------------------------------------------------
# closed-form Levy moments
# ---------------------------------------------------------------------------

def cgm_linear_moment(c: float, g: float, m: float) -> float:
    """int x nu(dx) for the CGM density: c (g - m) / (g m)."""
    return c * (g - m) / (g * m)


def cgm_exp_moment(c: float, g: float, m: float) -> float:
    """int (e^x - 1) nu(dx) for the CGM density: c log(g m / ((g+1)(m-1))).

    Finite only for m > 1 (right tail must beat e^x).
    """
    _require(m > 1.0, f"first exponential moment diverges for M = {m:g} <= 1")
    return c * math.log(g * m / ((g + 1.0) * (m - 1.0)))


def martingale_drift(model: Model) -> float:
    """Drift mu_S of dS = S_-(mu_S dt + sigma dW + jump martingale).

    Merton: mu + sigma^2/2 + gamma (e^{m + delta^2/2} - 1 - m).
    Variance gamma: the log-price drift equals the Levy-measure mean, so
    mu_S collapses to the first exponential moment int (e^x - 1) nu(dx).
    """
    if isinstance(model, MertonParams):
        jump = model.gamma * (
            math.exp(model.m + 0.5 * model.delta**2) - 1.0 - model.m
        )
        return model.mu + 0.5 * model.sigma**2 + jump
    if isinstance(model, VgParams):
        return cgm_exp_moment(model.C, model.G, model.M)
    raise ModelMismatchError(f"unsupported model type {type(model).__name__}")


def quadratic_exp_moment(model: Model) -> float:
    """int (e^x - 1)^2 nu(dx), the jump part of the hedge denominator.

    Merton: gamma (e^{2m + 2 delta^2} - 2 e^{m + delta^2/2} + 1).
    Variance gamma: expand (e^x - 1)^2 and evaluate the exponential-tilt
    moments, giving C log((G+1)^2 (M-1)^2 / (G M (G+2)(M-2))); needs M > 2.
    """
    if isinstance(model, MertonParams):
        m, d2 = model.m, model.delta**2
        return model.gamma * (
            math.exp(2.0 * m + 2.0 * d2) - 2.0 * math.exp(m + 0.5 * d2) + 1.0
        )
    if isinstance(model, VgParams):
        g, mm = model.G, model.M
        _require(mm > 2.0, f"quadratic exponential moment diverges for M = {mm:g} <= 2")
        ratio = (g + 1.0) ** 2 * (mm - 1.0) ** 2 / (g * mm * (g + 2.0) * (mm - 2.0))
        return model.C * math.log(ratio)
    raise ModelMismatchError(f"unsupported model type {type(model).__name__}")


def validate_assumptions(model: Model) -> ValidationReport:
    """Check integrability and drift conditions; never raises.

    The drift condition is 0 >= mu_S > -(sigma^2 + int (e^x-1)^2 nu),
    which keeps the jump tilt h (e^x - 1) below 1 and the slope h in
    (-1, 0].  For variance gamma it reduces to -3 < G - M <= -1, and the
    moment condition to M > 4.
    """
    if isinstance(model, MertonParams):
        mu_s = martingale_drift(model)
        quad = quadratic_exp_moment(model)
        lower = mu_s + model.sigma**2 + quad
        conditions = (
            ConditionCheck(
                "exponential moments finite",
                True,
                math.inf,
                "Gaussian jump sizes have all exponential moments",
            ),
            ConditionCheck(
                "martingale drift nonpositive",
                mu_s <= _DRIFT_TOL,
                -mu_s,
                f"mu_S = {mu_s:.6g} must be <= 0",
            ),
            ConditionCheck(
                "drift above lower bound",
                lower > 0.0,
                lower,
                f"mu_S + sigma^2 + int (e^x-1)^2 nu = {lower:.6g} must be > 0",
            ),
        )
        return ValidationReport("merton", conditions)
    if isinstance(model, VgParams):
        d = model.g_minus_m
        conditions = (
            ConditionCheck(
                "fourth exponential moment finite (M > 4)",
                model.M > 4.0,
                model.M - 4.0,
                f"M = {model.M:.6g} must be > 4",
            ),
            ConditionCheck(
                "martingale drift nonpositive (G - M <= -1)",
                d <= -1.0 + _DRIFT_TOL,
                -1.0 - d,
                f"G - M = {d:.6g} must be <= -1",
            ),
            ConditionCheck(
                "drift above lower bound (G - M > -3)",
                d > -3.0,
                d + 3.0,
                f"G - M = {d:.6g} must be > -3",
            ),
        )
        return ValidationReport("vg", conditions)
    raise ModelMismatchError(f"unsupported model type {type(model).__name__}")


def mmm_quantities(model: Model, *, validate: bool = True) -> MmmQuantities:
    """Compute the measure-change quantities for a valid model.

    Raises AssumptionError when ``validate`` is set and the model fails
    :func:`validate_assumptions`.
    """
    if validate:
        report = validate_assumptions(model)
        if not report.passed:
            failed = "; ".join(c.detail or c.name for c in report.failures())
            raise AssumptionError(f"model fails admissibility conditions: {failed}")

    mu_s = martingale_drift(model)
    quad = quadratic_exp_moment(model)
    if 0.0 < mu_s <= _DRIFT_TOL:
        mu_s = 0.0  # exact boundary up to roundoff

    if isinstance(model, MertonParams):
        sigma2 = model.sigma**2
        h = mu_s / (sigma2 + quad)
        g, m, d2 = model.gamma, model.m, model.delta**2
        e_half = math.exp(m + 0.5 * d2)
        # int (x - e^x + 1)(1 - h(e^x - 1)) nu(dx), assembled from the two
        # Gaussian components of the tilted measure
        jump_part = (1.0 + h) * g * (m + 1.0 - e_half) - h * g * e_half * (
            m + d2 + 1.0 - math.exp(m + 1.5 * d2)
        )
        mu_star = -0.5 * sigma2 + jump_part
        return MmmQuantities(mu_s, quad, h, mu_star)

    if isinstance(model, VgParams):
        h = mu_s / quad
        c, g, mm = model.C, model.G, model.M
        mu_star = 0.0
        for w, gg, mmm in (
            ((1.0 + h) * c, g, mm),
            (-h * c, g + 1.0, mm - 1.0),
        ):
            mu_star += cgm_linear_moment(w, gg, mmm) - cgm_exp_moment(w, gg, mmm)
        return MmmQuantities(mu_s, quad, h, mu_star)

    raise ModelMismatchError(f"unsupported model type {type(model).__name__}")


def vg_cgm_from_kmd(kappa: float, m: float, delta: float) -> tuple[float, float, float]:
    """Map the time-changed-BM parameters to (C, G, M)."""
    _require(kappa > 0.0, "kappa must be > 0")
    _require(delta > 0.0, "delta must be > 0")
    p = VgParams(kappa=kappa, m=m, delta=delta)
    return p.C, p.G, p.M
