"""Variance gamma specifics.

The tilted jump measure is a pair of CGM densities, the characteristic
function is a product of two complex-power factors times a linear drift
factor, and the jump term of the hedge numerator needs only two damped
Fourier transforms: one with the kernel-weighted samples, one plain.
The decay envelope here is polynomial, C2 |v|^{-2 C tau}, which drives
the truncation solver.

All complex powers are taken on the principal branch.  For contours
Im(zeta) = -alpha with alpha in (1, 2] and M > 4 every base factor stays
in the right half-plane; this is asserted at evaluation time rather than
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    TAU_MIN,
    BranchCutError,
    InvalidParameterError,
    VgParams,
    _require,
    cgm_exp_moment,
    cgm_linear_moment,
    levy_char_fn,
)

ComplexLike = Union[complex, np.ndarray]


@dataclass(frozen=True)
class CgmComponent:
    """One CGM density C (1_{x<0} e^{Gx} + 1_{x>0} e^{-Mx}) / |x|.

    After the measure change the second component is a raw CGM density
    only; it need not correspond to any variance gamma process, so it is
    never re-wrapped as VgParams.
    """

    C: float
    G: float
    M: float

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        neg = x < 0.0
        pos = x > 0.0
        out[neg] = self.C * np.exp(self.G * x[neg]) / (-x[neg])
        out[pos] = self.C * np.exp(-self.M * x[pos]) / x[pos]
        return out

    def linear_moment(self) -> float:
        return cgm_linear_moment(self.C, self.G, self.M)

    def exp_moment(self) -> float:
        return cgm_exp_moment(self.C, self.G, self.M)


@dataclass(frozen=True)
class CgmComponentPair:
    """Tilted jump measure: ((1+h)C, G, M) plus (-hC, G+1, M-1)."""

    first: CgmComponent
    second: CgmComponent

    @property
    def components(self) -> tuple[CgmComponent, CgmComponent]:
        return (self.first, self.second)

    def density(self, x: np.ndarray) -> np.ndarray:
        return self.first.density(x) + self.second.density(x)


def vg_levy_density(params: VgParams, x: np.ndarray) -> np.ndarray:
    return CgmComponent(params.C, params.G, params.M).density(x)


def vg_mmm_measure(params: VgParams, h: float) -> CgmComponentPair:
    """Tilted measure (1 - h(e^x - 1)) nu = (1+h) nu - h e^x nu.

    e^x times a CGM density shifts (G, M) to (G+1, M-1); with h in
    (-1, 0] both weights are nonnegative.
    """
    _require(-1.0 < h <= 0.0, f"Girsanov slope h = {h:g} outside (-1, 0]")
    _require(params.M > 4.0, f"M = {params.M:g} must be > 4")
    c, g, m = params.C, params.G, params.M
    return CgmComponentPair(
        CgmComponent((1.0 + h) * c, g, m),
        CgmComponent(-h * c, g + 1.0, m - 1.0),
    )


def _principal_log(base: np.ndarray, what: str) -> np.ndarray:
    """log on the principal branch, rejecting bases outside Re > 0."""
    if not np.all(np.isfinite(base)):
        raise BranchCutError(f"{what}: non-finite base")
    if np.any(base.real <= 0.0):
        raise BranchCutError(
            f"{what}: base left the right half-plane; the principal branch "
            "would jump along the contour"
        )
    return np.log(base)


class VgContourLogs:
    """Principal logs of the four right-half-plane bases M - i zeta,
    M - 1 - i zeta, G + i zeta and G + 1 + i zeta, each taken once with
    its branch-cut check.  The jump kernel and the Levy exponent are both
    sums of these logs, so a contour sample needs four logs, not eight."""

    def __init__(self, zeta: ComplexLike, G: float, M: float):
        self.iz = 1j * np.asarray(zeta, dtype=complex)
        iz = self.iz
        self.log_m = _principal_log(M - iz, "factor M - i*zeta")
        self.log_m1 = _principal_log(M - 1.0 - iz, "factor M - 1 - i*zeta")
        self.log_g = _principal_log(G + iz, "factor G + i*zeta")
        self.log_g1 = _principal_log(G + 1.0 + iz, "factor G + 1 + i*zeta")

    def kernel(self, C: float) -> np.ndarray:
        """C [log(M - i zeta) - log(M-1-i zeta) + log(G + i zeta) - log(G+1+i zeta)]."""
        return C * (self.log_m - self.log_m1 + self.log_g - self.log_g1)

    def exponent(self, mmm: CgmComponentPair, mu_star: float) -> np.ndarray:
        """Psi of the tilted pair, whose components sit at (G, M) and
        (G+1, M-1), through log(1 + i zeta/G) = log(G + i zeta) - log G and
        log(1 - i zeta/M) = log(M - i zeta) - log M (G, M > 0, so the real
        logs shift no argument)."""
        first, second = mmm.components
        out = -first.C * (self.log_g + self.log_m - math.log(first.G * first.M))
        out = out - second.C * (self.log_g1 + self.log_m1 - math.log(second.G * second.M))
        # compensators of the components: -int x nu_comp(dx)
        drift = mu_star - first.linear_moment() - second.linear_moment()
        return out + self.iz * drift


def vg_kernel(zeta: ComplexLike, C: float, G: float, M: float) -> ComplexLike:
    """int e^{i zeta x} (e^x - 1) nu_{C,G,M}(dx) as the Frullani log

        C log( (M - i zeta) (G + i zeta) / ((M-1-i zeta)(G+1+i zeta)) ),

    computed as a sum of principal logs of right-half-plane factors so no
    argument wrapping can occur.
    """
    out = VgContourLogs(zeta, G, M).kernel(C)
    return out if np.ndim(zeta) else complex(out)


def vg_kernel_bound(C: float, G: float, M: float, alpha: float) -> float:
    """Uniform modulus bound C (1/(G+alpha) + 1/(M-alpha-1)) of the kernel
    along the contour Im(zeta) = -alpha."""
    _require(M - alpha - 1.0 > 0.0, "need M > alpha + 1")
    return C * (1.0 / (G + alpha) + 1.0 / (M - alpha - 1.0))


def vg_exponent(
    zeta: ComplexLike, params: VgParams, mmm: CgmComponentPair, mu_star: float
) -> ComplexLike:
    """Levy exponent Psi of the log price under the tilted measure, so
    that phi_tau = exp(tau Psi):

        Psi(z) = -w1 log[(1 + i z/G)(1 - i z/M)] - w2 log[(1 + i z/(G+1))(1 - i z/(M-1))]
                 + i z (mu* + sum of component means)

    with w1 = (1+h)C and w2 = -hC read off the component pair.
    """
    out = VgContourLogs(zeta, mmm.first.G, mmm.first.M).exponent(mmm, mu_star)
    return out if np.ndim(zeta) else complex(out)


def vg_char_fn(
    zeta: ComplexLike,
    tau: float,
    params: VgParams,
    mmm: CgmComponentPair,
    mu_star: float,
) -> ComplexLike:
    """Characteristic function exp(tau Psi(zeta)) of the log price over
    tau under the tilted measure."""
    return levy_char_fn(vg_exponent(zeta, params, mmm, mu_star), tau)


def vg_c2(
    params: VgParams,
    mmm: CgmComponentPair,
    mu_star: float,
    tau: float,
    alpha: float,
) -> float:
    """Envelope constant of the polynomial decay bound

        |phi_tau(v - i alpha)| <= C2 |v|^{-2 C tau}.

    C2 = prod (G_j M_j)^{w_j tau} * exp{tau alpha (mu* + sum of means)}.
    """
    if tau < 0.0:
        raise InvalidParameterError("tau must be >= 0")
    log_c2 = 0.0
    drift = mu_star
    for comp in mmm.components:
        log_c2 += tau * comp.C * math.log(comp.G * comp.M)
        drift -= comp.linear_moment()
    log_c2 += tau * alpha * drift
    return math.exp(log_c2)


@dataclass(frozen=True)
class VgI2Weights:
    """Recipe for the two-transform jump term.

    The kernel-weighted transform uses psi2 samples multiplied by
    :meth:`kernel_factor`; the plain call transform f(K) is then scaled
    by ``constant`` (the first exponential moment of the original
    measure) and subtracted.
    """

    constant: float
    C: float
    G: float
    M: float

    def kernel_factor(self, zeta: ComplexLike) -> ComplexLike:
        return vg_kernel(zeta, self.C, self.G, self.M)


def vg_i2_weights(params: VgParams) -> VgI2Weights:
    """I2 = (1/pi) int K^{-i zeta + 1} kernel(zeta) psi2(zeta) dv - constant * f(K)."""
    return VgI2Weights(
        constant=cgm_exp_moment(params.C, params.G, params.M),
        C=params.C,
        G=params.G,
        M=params.M,
    )


def vg_trunc(
    eps: float,
    tau: float,
    strike: float,
    spot: float,
    alpha: float,
    c2: float,
    params: VgParams,
) -> float:
    """Smallest frequency a with the jump-term tail below eps:

        a^{2 C tau + 1} >= C C2 K^{1-alpha} S^alpha
                           [1/(G+alpha) + 1/(M-alpha-1) + |log(MG/((M-1)(G+1)))|]
                           / (pi eps (2 C tau + 1)).
    """
    _require(eps > 0.0, "eps must be > 0")
    _require(tau >= TAU_MIN, f"tau must be >= {TAU_MIN:g}")
    c, g, m = params.C, params.G, params.M
    _require(m - alpha - 1.0 > 0.0, "need M > alpha + 1")
    p = 2.0 * c * tau + 1.0
    bracket = (
        1.0 / (g + alpha)
        + 1.0 / (m - alpha - 1.0)
        + abs(cgm_exp_moment(c, g, m)) / c
    )
    rhs = (
        c
        * c2
        * strike ** (1.0 - alpha)
        * spot**alpha
        * bracket
        / (math.pi * eps * p)
    )
    return rhs ** (1.0 / p)
