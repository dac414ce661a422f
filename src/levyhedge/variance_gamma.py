"""Variance gamma specifics on the production path.

The tilted jump measure is a pair of CGM densities, the Levy exponent is
a sum of principal logs plus a linear drift term, and the jump term of
the hedge numerator is one damped Fourier transform: of the call factor
times the jump kernel less the first exponential moment, since the
transform is linear.  ``VgContourLogs`` takes the exponent and the
kernel from the logs of two products of bases, two complex logs per
contour point.  The decay envelope here is polynomial,
C2 |v|^{-2 C tau}, which gives the truncation law (``vg_trunc_law``; the
points are ``fft_engine.truncation_points`` of it).  The aliasing bound
reads the same exponent on the imaginary axis, E[(S_T/S)^{1+beta}] =
e^{tau Psi(-i(1+beta))}, beside the tau-free tables of
``vg_alias_tables``.  The densities,
the kernel at arbitrary zeta and the characteristic function of a
horizon tau live in ``levyhedge.oracle``, which checks them against
quadrature.

All complex powers are taken on the principal branch.  For contours
Im(zeta) = -alpha with alpha in (1, 2] and M > 4 every base factor stays
in the right half-plane, and so it does at the imaginary-axis points
zeta = -i(1+beta) of the aliasing bound while 1 + beta < M - 1; this is
asserted at evaluation time rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    BranchCutError,
    MmmQuantities,
    OverflowGuardError,
    VgParams,
    _EXP_GUARD,
    _require,
    cgm_exp_moment,
    cgm_linear_moment,
)
from .fft_engine import ALIAS_RATES

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

    def linear_moment(self) -> float:
        return cgm_linear_moment(self.C, self.G, self.M)


@dataclass(frozen=True)
class CgmComponentPair:
    """Tilted jump measure: ((1+h)C, G, M) plus (-hC, G+1, M-1)."""

    first: CgmComponent
    second: CgmComponent

    @property
    def components(self) -> tuple[CgmComponent, CgmComponent]:
        return (self.first, self.second)

    def drift(self, mu_star: float) -> float:
        """mu* less both components' means: the drift of Psi once each
        component's compensator -int x nu_comp(dx) is taken out."""
        return mu_star - self.first.linear_moment() - self.second.linear_moment()


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


def _check_contour_bases(zeta: np.ndarray, G: float, M: float) -> None:
    """Refuse a non-finite zeta, or one where a base M - i zeta,
    M-1-i zeta, G + i zeta or G+1+i zeta leaves Re > 0: there the
    principal branch of its log would jump along the contour.  Re(M - i
    zeta) = M + Im zeta and Re(G + i zeta) = G - Im zeta, so each base's
    least real part sits at an extreme of Im zeta."""
    if not np.all(np.isfinite(zeta)):
        raise BranchCutError("factor M - i*zeta: non-finite base")
    lo, hi = float(zeta.imag.min()), float(zeta.imag.max())
    for what, least in (
        ("M - i*zeta", M + lo), ("M - 1 - i*zeta", M - 1.0 + lo),
        ("G + i*zeta", G - hi), ("G + 1 + i*zeta", G + 1.0 - hi),
    ):
        if least <= 0.0:
            raise BranchCutError(
                f"factor {what}: base left the right half-plane; the principal branch "
                "would jump along the contour"
            )


def _log(z: np.ndarray) -> np.ndarray:
    """Principal log of complex z as log(|z|^2) / 2 + i arg z, taken on its
    real parts: np.log's values to rounding in about a third of its time."""
    return 0.5 * np.log(z.real * z.real + z.imag * z.imag) + 1j * np.arctan2(z.imag, z.real)


def _log1p(w: np.ndarray) -> np.ndarray:
    """Principal log(1 + w), accurate for small complex w:
    log|1 + w| = log1p(2 Re w + |w|^2) / 2 and arg(1 + w)."""
    return 0.5 * np.log1p(w.real * (2.0 + w.real) + w.imag * w.imag) + 1j * np.arctan2(
        w.imag, 1.0 + w.real
    )


class VgContourLogs:
    """Principal logs of the two products P1 = (G + i zeta)(M - i zeta)
    and P2 = (G+1+i zeta)(M-1-i zeta).  Each of the four bases is checked
    to lie in the right half-plane, so each factor's argument is in
    (-pi/2, pi/2) and the log of a product is the sum of its factors'
    logs: the Levy exponent reads log P1 and log P2, and the jump kernel
    is C log(P1 / P2), so a contour sample takes two complex logs."""

    def __init__(self, zeta: ComplexLike, G: float, M: float):
        zeta = np.asarray(zeta, dtype=complex)
        _check_contour_bases(zeta, G, M)
        self.iz = iz = 1j * zeta
        self.G, self.M = G, M
        self.p2 = (G + 1.0 + iz) * (M - 1.0 - iz)
        self.log_p1 = _log((G + iz) * (M - iz))
        self.log_p2 = _log(self.p2)

    def kernel(self, C: float) -> np.ndarray:
        """C [log(M - i zeta) - log(M-1-i zeta) + log(G + i zeta) - log(G+1+i zeta)]
        as C log(1 + (P1 - P2) / P2), where P1 - P2 = G + 1 - M + 2 i zeta.

        P1 / P2 tends to 1 along the contour, so :func:`_log1p` keeps the
        kernel's rounding error proportional to the kernel, not to the
        logs, whose difference would cancel."""
        return C * _log1p((self.G + 1.0 - self.M + 2.0 * self.iz) / self.p2)

    def exponent(self, mmm: CgmComponentPair, mu_star: float) -> np.ndarray:
        """Psi of the tilted pair, whose components sit at (G, M) and
        (G+1, M-1), through log[(1 + i zeta/G)(1 - i zeta/M)] = log P1 - log GM
        and the same for P2 (G, M > 0, so the real logs shift no argument)."""
        first, second = mmm.components
        out = -first.C * (self.log_p1 - math.log(first.G * first.M))
        out = out - second.C * (self.log_p2 - math.log(second.G * second.M))
        return out + self.iz * mmm.drift(mu_star)


def vg_log_c2(mmm: CgmComponentPair, mu_star: float, tau: float, alpha: float) -> float:
    """log C2 of the polynomial decay bound |phi_tau(v - i alpha)| <= C2
    |v|^{-2 C tau}, C2 = prod (G_j M_j)^{w_j tau} * exp{tau alpha (mu* + sum
    of means)}, refused above the exp() guard (tau >= 0: ``slice_trunc``'s
    guard refuses a negative tau first)."""
    log_c2 = 0.0
    for comp in mmm.components:
        log_c2 += tau * comp.C * math.log(comp.G * comp.M)
    log_c2 += tau * alpha * mmm.drift(mu_star)
    if log_c2 > _EXP_GUARD:
        raise OverflowGuardError(f"C2 exponent {log_c2:.3g} exceeds {_EXP_GUARD:g}")
    return log_c2


def vg_trunc_law(params: VgParams, log_c2: float, tau: float, alpha: float) -> tuple[float, float]:
    """Truncation law (log L, p) of I2 for
    :func:`levyhedge.fft_engine.truncation_points`, from log C2
    (:func:`vg_log_c2`): p = 2 C tau + 1 and

        L = C C2 [1/(G+alpha) + 1/(M-alpha-1) + |log(MG/((M-1)(G+1)))|] / (pi p),

    where M > 4 (:func:`vg_mmm_measure`) keeps M - alpha - 1 > 1."""
    c, g, m = params.C, params.G, params.M
    p = 2.0 * c * tau + 1.0
    bracket = 1.0 / (g + alpha) + 1.0 / (m - alpha - 1.0) + abs(cgm_exp_moment(c, g, m)) / c
    return log_c2 + math.log(c * bracket / (math.pi * p)), p


def vg_alias_tables(
    params: VgParams, mmm: MmmQuantities, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tau-free constants of the aliasing bound for I2 and the hedge
    ratio, in the form of :func:`levyhedge.merton.merton_alias_tables`:
    the beta grid, and per bound its in-the-money log and its right-tail
    log over beta, to which the caller adds tau Psi(-i(1+beta)).

    I2 = K X_jump(log K) = K X_kernel(log K) - c K X_call(log K), c the
    first exponential moment: one transform of the jump kind, whose
    aliasing is below the sum of the two bounds below, and so below the
    bound, which adds them.  X_kernel is the call transform convolved with
    (e^x - 1) nu(dx), so its K-normalized transform is below
    (S/K) int |e^x - 1| e^x nu(dx) deep in the money and below
    E[S_T^{1+beta}] K^{-1-beta} int |e^x - 1| e^{(1+beta) x} nu(dx) far
    out; by Frullani both integrals are C [log((M-1-beta)/(M-2-beta)) +
    log((G+2+beta)/(G+1+beta))], at beta = 0 for the first.  X_call has
    the constants of the Merton call kind.  The moment
    E[(S_T/S)^{1+beta}] = e^{tau Psi(-i(1+beta))} needs 1 + beta < M - 1
    (the tilted pair's second component), which also keeps the kernel
    integral finite, so the grid stops there.
    """
    C, G, M = params.C, params.G, params.M
    beta = alpha - 1.0 + ALIAS_RATES[ALIAS_RATES < M - 1.0 - alpha]
    # beta = 0, the in-the-money constants, then the grid
    b = np.concatenate(([0.0], beta))
    kernel = math.log(C) + np.log(
        np.log((M - 1.0 - b) / (M - 2.0 - b)) + np.log((G + 2.0 + b) / (G + 1.0 + b))
    )
    constant = abs(cgm_exp_moment(C, G, M))
    i2 = np.logaddexp(kernel, math.log(constant) if constant > 0.0 else -math.inf)
    tables = np.array([i2, i2 - math.log(mmm.quad_exp_moment)])
    return beta, tables[:, 0], tables[:, 1:]
