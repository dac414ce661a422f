"""Independent reference implementations used by the test suite.

Everything here recomputes a production quantity by a different route:
adaptive quadrature (QUADPACK via scipy) instead of the weighted Fourier
sums, a literal O(N^2) DFT instead of numpy's FFT, and direct
numerical integration of the jump measure instead of the closed-form
characteristic exponents.  Nothing on the production path imports this
module.

Infinite jump-measure domains are mapped to (0, 1) before the adaptive
rule runs: the full line through x = log(u / (1-u)) and half lines
through x = -log(u); the densities decay exponentially, so the
substituted integrands are well conditioned.  The oscillatory frequency
integrals are instead truncated where a decay envelope certifies the
remainder negligible, and tail masses are accumulated over doubling
segments so slow polynomial decay cannot exhaust the subdivision budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.interpolate import CubicSpline

from .core import (
    MarketQuery,
    MertonParams,
    Model,
    ModelMismatchError,
    QuadratureConvergenceError,
    VgParams,
    cgm_exp_moment,
    mmm_quantities,
)
from .merton import (
    GaussianJumpMixture,
    merton_c1,
    merton_char_fn,
    merton_levy_density,
)
from .variance_gamma import (
    CgmComponent,
    CgmComponentPair,
    vg_c2,
    vg_char_fn,
    vg_kernel,
    vg_levy_density,
    vg_mmm_measure,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for the adaptive rules.

    Keep these roughly 10x tighter than whatever test tolerance they
    back, so oracle error never decides a verdict.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 500


DEFAULT_SPEC = QuadratureSpec()


def _quad(
    fn: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec,
    points=None,
) -> float:
    out = quad(
        fn,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        points=points,
        full_output=True,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3:
        # QUADPACK flagged trouble; accept only if its own error estimate
        # still meets a relaxed version of the requested tolerance
        if abserr > 10.0 * max(spec.abs_tol, abs(value) * spec.rel_tol):
            raise QuadratureConvergenceError(f"quadrature did not converge: {out[3]}")
    return value


def quad_full_line(fn: Callable[[float], float], spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate over the real line via x = log(u/(1-u))."""

    def g(u: float) -> float:
        x = math.log(u / (1.0 - u))
        return fn(x) / (u * (1.0 - u))

    return _quad(g, 0.0, 1.0, spec)


def quad_half_line(fn: Callable[[float], float], spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integrate over (0, inf) via x = -log(u)."""

    def g(u: float) -> float:
        x = -math.log(u)
        return fn(x) / u

    return _quad(g, 0.0, 1.0, spec)


def _quad_complex(fn, a: float, b: float, spec: QuadratureSpec) -> complex:
    re = _quad(lambda v: fn(v).real, a, b, spec)
    im = _quad(lambda v: fn(v).imag, a, b, spec)
    return complex(re, im)


# ---------------------------------------------------------------------------
# jump-measure integrals
# ---------------------------------------------------------------------------

def _density_of(measure) -> Callable[[float], float]:
    if isinstance(measure, MertonParams):
        return lambda x: float(merton_levy_density(measure, np.asarray(x)))
    if isinstance(measure, VgParams):
        return lambda x: float(vg_levy_density(measure, np.asarray(x)))
    if isinstance(measure, (GaussianJumpMixture, CgmComponentPair, CgmComponent)):
        return lambda x: float(measure.density(np.asarray(x)))
    raise ModelMismatchError(f"no density for {type(measure).__name__}")


def _is_cgm(measure) -> bool:
    return isinstance(measure, (VgParams, CgmComponentPair, CgmComponent))


def levy_moment(
    measure,
    fn: Callable[[float], float],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """int fn(x) nu(dx) by adaptive quadrature.

    ``fn`` must vanish at least linearly at 0 when the measure has the
    CGM 1/|x| singularity; every integrand used in the tests is O(x^2)
    there.
    """
    density = _density_of(measure)
    if _is_cgm(measure):
        pos = quad_half_line(lambda x: fn(x) * density(x), spec)
        neg = quad_half_line(lambda x: fn(-x) * density(-x), spec)
        return pos + neg
    return quad_full_line(lambda x: fn(x) * density(x), spec)


def lk_char_fn(
    zeta: complex,
    tau: float,
    transformed_measure,
    mu_star: float,
    sigma: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> complex:
    """Characteristic function assembled from its integral definition:

        exp{ tau [ i zeta mu* - sigma^2 zeta^2 / 2
                   + int (e^{i zeta x} - 1 - i zeta x) nu~(dx) ] }

    with the jump integral evaluated numerically against the tilted
    measure.  Cross-validates the closed-form characteristic functions.
    """
    z = complex(zeta)
    density = _density_of(transformed_measure)

    def integrand(x: float) -> complex:
        return (np.exp(1j * z * x) - 1.0 - 1j * z * x) * density(x)

    if _is_cgm(transformed_measure):
        jump = _quad_complex(lambda u: integrand(-math.log(u)) / u, 0.0, 1.0, spec)
        jump += _quad_complex(lambda u: integrand(math.log(u)) / u, 0.0, 1.0, spec)
    else:
        jump = _quad_complex(
            lambda u: integrand(math.log(u / (1.0 - u))) / (u * (1.0 - u)),
            0.0,
            1.0,
            spec,
        )
    return complex(np.exp(tau * (1j * z * mu_star - 0.5 * sigma**2 * z * z + jump)))


# ---------------------------------------------------------------------------
# damped-transform integrals
# ---------------------------------------------------------------------------

def _char_fn_of(model: Model, tau: float):
    mmm = mmm_quantities(model)
    if isinstance(model, MertonParams):
        return lambda z: merton_char_fn(z, tau, model, mmm)
    pair = vg_mmm_measure(model, mmm.h)
    return lambda z: vg_char_fn(z, tau, model, pair, mmm.mu_star)


def _v_cutoff(model: Model, tau: float, alpha: float, scale: float, tol: float) -> float:
    """Frequency beyond which |scale * psi-type integrand| < tol holds by
    the model's decay envelope."""
    mmm = mmm_quantities(model)
    if isinstance(model, MertonParams):
        c1 = merton_c1(model, mmm, tau, alpha)
        arg = max(math.log(max(scale * c1 / tol, 1.0)), 0.0)
        return max(50.0, 1.1 * math.sqrt(2.0 * arg / (model.sigma**2 * tau)))
    pair = vg_mmm_measure(model, mmm.h)
    c2 = vg_c2(model, pair, mmm.mu_star, tau, alpha)
    p = 2.0 * model.C * tau + 1.0
    # tail of scale * C2 * v^{-p-1} beyond A is scale * C2 * A^{-p} / p
    a = (max(scale * c2 / (tol * p), 1.0)) ** (1.0 / p)
    return max(50.0, 1.1 * a)


def quad_i1(
    query: MarketQuery,
    model: MertonParams,
    alpha: float = 1.75,
    spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-11),
) -> float:
    """Stock-or-nothing expectation by adaptive quadrature:

        (1/pi) int_0^inf Re[ K^{-iv-alpha+1} phi_tau(v - i alpha)
                              S^{alpha+iv} / (alpha - 1 + i v) ] dv.

    The domain is truncated where the Gaussian decay envelope puts the
    remaining mass below a fraction of abs_tol.
    """
    if not isinstance(model, MertonParams):
        raise ModelMismatchError("the stock-or-nothing leg exists only for the diffusive model")
    phi = _char_fn_of(model, query.tau)
    k = query.log_strike
    log_s = math.log(query.spot)
    lead = query.strike ** (1.0 - alpha) * query.spot**alpha / math.pi
    cutoff = _v_cutoff(model, query.tau, alpha, lead, 0.1 * spec.abs_tol)

    def integrand(v: float) -> float:
        z = complex(v, -alpha)
        val = np.exp(1j * v * (log_s - k)) * phi(z) / complex(alpha - 1.0, v)
        return float(val.real)

    return lead * _quad(integrand, 0.0, cutoff, spec)


def call_price_quad(
    strikes,
    tau: float,
    spot: float,
    model: Model,
    alpha: float = 1.75,
    spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11),
) -> np.ndarray:
    """Undiscounted call prices E[(S_T - K)^+] under the tilted measure,
    by adaptive quadrature of the damped transform, vectorized over
    strikes with quad_vec.

    The truncation point balances the envelope tail against the price
    scale: the certified remainder is below 1e-7 of the leading factor,
    far inside every tolerance these values back.
    """
    strikes = np.atleast_1d(np.asarray(strikes, dtype=float))
    phi = _char_fn_of(model, tau)
    k = np.log(strikes)
    log_s = math.log(spot)
    lead = strikes ** (1.0 - alpha) * spot**alpha / math.pi
    scale = float(np.max(lead))
    cutoff = _v_cutoff(model, tau, alpha, scale, max(spec.abs_tol, 1e-7 * scale))

    def integrand(v: float) -> np.ndarray:
        z = complex(v, -alpha)
        common = phi(z) / (complex(alpha - 1.0, v) * complex(alpha, v))
        return (np.exp(1j * v * (log_s - k)) * common).real

    val, err, info = quad_vec(
        integrand,
        0.0,
        cutoff,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=max(spec.max_subdivisions, 2000),
        full_output=True,
    )
    if not info.success and err > 10.0 * max(spec.abs_tol, spec.rel_tol * float(np.linalg.norm(val))):
        raise QuadratureConvergenceError(
            f"call-price quadrature did not converge (err {err:.3g})"
        )
    return lead * val


def quad_i2_definition(
    query: MarketQuery,
    model: Model,
    alpha: float = 1.75,
    spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10),
) -> float:
    """Jump term of the hedge numerator straight from its definition:

        int { e^x f(K e^{-x}) - f(K) } (e^x - 1) nu(dx),

    with the inner call price f evaluated by quadrature on a dense
    log-strike grid and interpolated with a cubic spline.  This checks
    the Fubini interchange and the model-specific decompositions in one
    shot.
    """
    k = query.log_strike
    if isinstance(model, MertonParams):
        if model.gamma == 0.0:
            return 0.0
        x_lo = model.m - 12.0 * model.delta
        x_hi = model.m + 12.0 * model.delta
    elif isinstance(model, VgParams):
        x_lo = -60.0 / model.G
        x_hi = 60.0 / (model.M - 2.0)
    else:
        raise ModelMismatchError(f"unsupported model type {type(model).__name__}")

    pad = 0.05
    lo, hi = k - x_hi - pad, k - x_lo + pad
    n_nodes = max(301, int(math.ceil((hi - lo) / 0.02)) + 1)
    nodes = np.linspace(lo, hi, n_nodes)
    # vector tolerance is taken on the 2-norm across strikes; the spline
    # bias this leaves is orders of magnitude below the outer tolerance
    f_spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=2000)
    f_nodes = call_price_quad(np.exp(nodes), query.tau, query.spot, model, alpha, f_spec)
    f_interp = CubicSpline(nodes, f_nodes)
    f_at_k = float(call_price_quad(query.strike, query.tau, query.spot, model, alpha)[0])
    density = _density_of(model)

    def integrand(x: float) -> float:
        inner = math.exp(x) * float(f_interp(k - x)) - f_at_k
        return inner * (math.exp(x) - 1.0) * density(x)

    if isinstance(model, VgParams):
        # split at the 1/|x| singularity; the integrand itself is O(x) there
        return _quad(integrand, x_lo, 0.0, spec) + _quad(integrand, 0.0, x_hi, spec)
    return _quad(integrand, x_lo, x_hi, spec, points=[model.m])


def oracle_lrm(
    query: MarketQuery,
    model: Model,
    alpha: float = 1.75,
    spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10),
) -> float:
    """Hedge ratio assembled purely from quadrature results."""
    mmm = mmm_quantities(model)
    if isinstance(model, MertonParams):
        sigma2 = model.sigma**2
        num = sigma2 * quad_i1(query, model, alpha) + quad_i2_definition(
            query, model, alpha, spec
        )
    else:
        sigma2 = 0.0
        num = quad_i2_definition(query, model, alpha, spec)
    return num / (query.spot * (sigma2 + mmm.quad_exp_moment))


# ---------------------------------------------------------------------------
# tail mass beyond a truncation point
# ---------------------------------------------------------------------------

def _i2_frequency_weight(model: Model, zeta: complex) -> complex:
    """int (e^{i zeta x} - 1)(e^x - 1) nu(dx) against the original measure."""
    if isinstance(model, MertonParams):
        g, m, d2 = model.gamma, model.m, model.delta**2
        iz1 = 1j * zeta + 1.0
        return g * (
            np.exp(iz1 * m + 0.5 * d2 * iz1 * iz1)
            - np.exp(1j * zeta * m - 0.5 * d2 * zeta * zeta)
            + (1.0 - math.exp(m + 0.5 * d2))
        )
    if isinstance(model, VgParams):
        return vg_kernel(zeta, model.C, model.G, model.M) - cgm_exp_moment(
            model.C, model.G, model.M
        )
    raise ModelMismatchError(f"unsupported model type {type(model).__name__}")


def _tail_complex(
    integrand,
    a: float,
    spec: QuadratureSpec,
    max_doublings: int = 26,
) -> complex:
    """Integrate over (a, inf) as doubling segments [a, 2a], [2a, 4a], ...

    Stops once two consecutive segments contribute relatively nothing;
    keeps each QUADPACK call down to a few hundred oscillations.
    """
    total = 0j
    lo = a
    quiet = 0
    for _ in range(max_doublings):
        hi = 2.0 * lo
        piece = _quad_complex(integrand, lo, hi, spec)
        total += piece
        if abs(piece) < max(1e-4 * abs(total), 1e-15):
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        lo = hi
    return total


def i1_tail_mass(
    a: float,
    query: MarketQuery,
    model: MertonParams,
    alpha: float = 1.75,
    spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-13),
) -> float:
    """| (1/pi) int_a^inf ... dv | of the stock-or-nothing integrand."""
    phi = _char_fn_of(model, query.tau)
    k = query.log_strike
    log_s = math.log(query.spot)
    lead = query.strike ** (1.0 - alpha) * query.spot**alpha / math.pi

    def integrand(v: float) -> complex:
        z = complex(v, -alpha)
        return np.exp(1j * v * (log_s - k)) * phi(z) / complex(alpha - 1.0, v)

    return abs(lead * _tail_complex(integrand, a, spec))


def i2_tail_mass(
    a: float,
    query: MarketQuery,
    model: Model,
    alpha: float = 1.75,
    spec: QuadratureSpec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-13),
) -> float:
    """| (1/pi) int_a^inf K^{-i zeta + 1} w(zeta) psi2(zeta) dv | where w is
    the frequency weight of the jump term."""
    phi = _char_fn_of(model, query.tau)
    k = query.log_strike
    log_s = math.log(query.spot)
    lead = query.strike ** (1.0 - alpha) * query.spot**alpha / math.pi

    def integrand(v: float) -> complex:
        z = complex(v, -alpha)
        iz = 1j * z
        psi2 = phi(z) / ((iz - 1.0) * iz)
        return np.exp(1j * v * (log_s - k)) * _i2_frequency_weight(model, z) * psi2

    return abs(lead * _tail_complex(integrand, a, spec))


# ---------------------------------------------------------------------------
# literal DFT
# ---------------------------------------------------------------------------

def naive_dft(x) -> np.ndarray:
    """O(N^2) evaluation of F(l) = sum_j e^{-i 2 pi j l / N} x_j.

    The phase index j*l is reduced mod N in exact integer arithmetic
    before the complex exponential, so the literal sum does not lose
    precision to large sin/cos arguments.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    j = np.arange(n)
    w = np.exp(-2j * math.pi * (np.outer(j, j) % n) / n)
    return w @ x
