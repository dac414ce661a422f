"""Independent reference implementations used by the test suite.

Everything here recomputes a production quantity by a different route:
adaptive quadrature (QUADPACK via scipy) instead of the weighted Fourier
sums, a literal O(N^2) DFT instead of numpy's FFT, and direct
numerical integration of the jump measure instead of the closed-form
characteristic exponents.  It also holds the closed forms that only
these checks use: the tilted Merton mixture and both models' jump
densities, the characteristic functions of a horizon tau and their
envelope constants C1 and C2, the variance gamma exponent and kernel at
any zeta, and the naive weighted sum the direct sums are held to.
Nothing on the production path imports this module.

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
    MmmQuantities,
    Model,
    ModelMismatchError,
    QuadratureConvergenceError,
    VgParams,
    _require,
    cgm_exp_moment,
    levy_char_fn,
    mmm_quantities,
)
from .fft_engine import trapezoid_weights
from .merton import ComplexLike, merton_exponent
from .variance_gamma import (
    CgmComponent,
    CgmComponentPair,
    _check_contour_bases,
    vg_log_c2,
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
# closed forms off the production path
# ---------------------------------------------------------------------------

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


def merton_char_fn(
    zeta: ComplexLike, tau: float, params: MertonParams, mmm: MmmQuantities
) -> ComplexLike:
    """Characteristic function exp(tau Psi(zeta)) of the log price over a
    horizon tau, taken under the minimal martingale measure."""
    return levy_char_fn(merton_exponent(zeta, params, mmm), tau)


def merton_c1(params: MertonParams, mmm: MmmQuantities, tau: float, alpha: float) -> float:
    """Envelope constant: |phi_tau(v - i alpha)| <= C1 e^{-sigma^2 v^2 tau/2}.

    C1 = |phi_tau(-i alpha)| = e^{tau Psi(-i alpha)} = E[(S_T / S)^alpha],
    refused above the exp() guard (:func:`levyhedge.core.levy_char_fn`).
    """
    return abs(levy_char_fn(merton_exponent(-1j * alpha, params, mmm), tau))


def cgm_density(measure, x: np.ndarray) -> np.ndarray:
    """Density C (1_{x<0} e^{Gx} + 1_{x>0} e^{-Mx}) / |x| of a
    :class:`CgmComponent`, or the sum over a :class:`CgmComponentPair`."""
    if isinstance(measure, CgmComponentPair):
        return cgm_density(measure.first, x) + cgm_density(measure.second, x)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    neg = x < 0.0
    pos = x > 0.0
    out[neg] = measure.C * np.exp(measure.G * x[neg]) / (-x[neg])
    out[pos] = measure.C * np.exp(-measure.M * x[pos]) / x[pos]
    return out


def vg_levy_density(params: VgParams, x: np.ndarray) -> np.ndarray:
    return cgm_density(CgmComponent(params.C, params.G, params.M), x)


def _vg_logs(zeta: ComplexLike, G: float, M: float) -> tuple[np.ndarray, ...]:
    """i zeta and the principal logs of M - i zeta, M-1-i zeta, G + i zeta
    and G+1+i zeta, each base first checked to lie in Re > 0."""
    zeta = np.asarray(zeta, dtype=complex)
    _check_contour_bases(zeta, G, M)
    iz = 1j * zeta
    return iz, np.log(M - iz), np.log(M - 1.0 - iz), np.log(G + iz), np.log(G + 1.0 + iz)


def vg_kernel(zeta: ComplexLike, C: float, G: float, M: float) -> ComplexLike:
    """int e^{i zeta x} (e^x - 1) nu_{C,G,M}(dx) as the Frullani log

        C log( (M - i zeta) (G + i zeta) / ((M-1-i zeta)(G+1+i zeta)) ),

    computed as a sum of principal logs of right-half-plane factors so no
    argument wrapping can occur.  (Contour samples take the kernel as
    :func:`levyhedge.variance_gamma.vg_jump_kernel`, one log of the ratio
    of the two products.)
    """
    _, log_m, log_m1, log_g, log_g1 = _vg_logs(zeta, G, M)
    out = C * (log_m - log_m1 + log_g - log_g1)
    return out if np.ndim(zeta) else complex(out)


def vg_exponent(
    zeta: ComplexLike, params: VgParams, mmm: CgmComponentPair, mu_star: float
) -> ComplexLike:
    """Levy exponent Psi of the log price under the tilted measure, so
    that phi_tau = exp(tau Psi):

        Psi(z) = -w1 log[(1 + i z/G)(1 - i z/M)] - w2 log[(1 + i z/(G+1))(1 - i z/(M-1))]
                 + i z (mu* + sum of component means)

    with w1 = (1+h)C and w2 = -hC read off the component pair, each
    product taken as the sum of its factors' principal logs.
    """
    first, second = mmm.components
    iz, log_m, log_m1, log_g, log_g1 = _vg_logs(zeta, first.G, first.M)
    out = -first.C * (log_g + log_m - math.log(first.G * first.M))
    out = out - second.C * (log_g1 + log_m1 - math.log(second.G * second.M))
    # compensators of the components: -int x nu_comp(dx)
    out = out + iz * (mu_star - first.linear_moment() - second.linear_moment())
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


def vg_c2(mmm: CgmComponentPair, mu_star: float, tau: float, alpha: float) -> float:
    """Envelope constant of the polynomial decay bound

        |phi_tau(v - i alpha)| <= C2 |v|^{-2 C tau},

    C2 = prod (G_j M_j)^{w_j tau} * exp{tau alpha (mu* + sum of means)};
    :func:`vg_log_c2` refuses it above the exp() guard.
    """
    return math.exp(vg_log_c2(mmm, mu_star, tau, alpha))


def damped_sum_complex(psi_samples: np.ndarray, eta: float, k: float) -> complex:
    """Raw weighted sum sum_j e^{-i eta j k} psi_j w_j (no damping factor),
    with one exponential per sample: the naive O(N) reference that the
    factored :func:`levyhedge.fft_engine.direct_simpson_sum` is held to."""
    psi = np.asarray(psi_samples, dtype=complex)
    terms = np.exp(-1j * eta * k * np.arange(psi.size))
    terms *= psi * trapezoid_weights(psi.size, eta)
    return complex(terms.sum())


# ---------------------------------------------------------------------------
# jump-measure integrals
# ---------------------------------------------------------------------------

def _density_of(measure) -> Callable[[float], float]:
    if isinstance(measure, MertonParams):
        return lambda x: float(merton_levy_density(measure, np.asarray(x)))
    if isinstance(measure, VgParams):
        return lambda x: float(vg_levy_density(measure, np.asarray(x)))
    if isinstance(measure, GaussianJumpMixture):
        return lambda x: float(measure.density(np.asarray(x)))
    if isinstance(measure, (CgmComponentPair, CgmComponent)):
        return lambda x: float(cgm_density(measure, np.asarray(x)))
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
    c2 = vg_c2(pair, mmm.mu_star, tau, alpha)
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
    lead, integrand = _damped_integrand(query, model, alpha)
    cutoff = _v_cutoff(model, query.tau, alpha, lead, 0.1 * spec.abs_tol)
    return lead * _quad(lambda v: float(integrand(v).real), 0.0, cutoff, spec)


def _damped_integrand(
    query: MarketQuery, model: Model, alpha: float, weight=lambda z: 1.0 / (1j * z - 1.0)
):
    """The lead factor K^{1-alpha} S^alpha / pi of a damped transform at
    the query and its integrand e^{i v (log S - k)} phi_tau(z) weight(z)
    at z = v - i alpha; the default weight 1 / (i z - 1) is the
    stock-or-nothing one."""
    phi = _char_fn_of(model, query.tau)
    shift = math.log(query.spot) - query.log_strike

    def integrand(v: float) -> complex:
        z = complex(v, -alpha)
        return np.exp(1j * v * shift) * phi(z) * weight(z)

    return query.strike ** (1.0 - alpha) * query.spot**alpha / math.pi, integrand


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
    lead, integrand = _damped_integrand(query, model, alpha)
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
    def weight(z: complex) -> complex:
        return _i2_frequency_weight(model, z) / ((1j * z - 1.0) * (1j * z))

    lead, integrand = _damped_integrand(query, model, alpha, weight)
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
