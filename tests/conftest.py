import math

import numpy as np
import pytest

from levyhedge import FftConfig, MertonParams, VgParams, levy_sample
from levyhedge.lrm import slice_trunc

# the two benchmark parameter sets plus the index-calibrated CGM triple
MERTON_BENCH = dict(mu=-0.7, sigma=0.2, gamma=1.0, m=0.0, delta=1.0)
VG_BENCH = dict(kappa=0.15, m=-0.2, delta=0.45)
NIKKEI_CGM = (2.469395026815120, 23.743109051760964, 24.903251787154687)
NIKKEI_SPOT = 14841.07


@pytest.fixture(scope="session")
def merton_bench() -> MertonParams:
    return MertonParams(**MERTON_BENCH)


@pytest.fixture(scope="session")
def vg_bench() -> VgParams:
    return VgParams(**VG_BENCH)


@pytest.fixture(scope="session")
def nikkei() -> VgParams:
    return VgParams.from_cgm(*NIKKEI_CGM)


@pytest.fixture(scope="session")
def fft_bench() -> FftConfig:
    return FftConfig(n=2**14, eta=0.025, alpha=1.75, eps=1e-2)


def trunc_points(model, tau: float, strike: float, spot: float = 1.0, eps: float = 1e-2):
    """The truncation points of one strike on the slice tau of the
    fft_bench grid at tail error eps: (I1, I2) for Merton, (I2,) for
    variance gamma."""
    config = FftConfig(n=2**14, eta=0.025, alpha=1.75, eps=eps)
    return tuple(slice_trunc(levy_sample(model, config), tau, [strike], spot)[:, 0])


def sample_merton(rng: np.random.Generator) -> MertonParams:
    """Random parameters valid by construction: the drift is back-solved
    from a target slope h = -u in (-0.95, -0.02)."""
    sigma = rng.uniform(0.1, 0.4)
    gamma = rng.uniform(0.05, 2.0)
    m = rng.uniform(-0.5, 0.5)
    delta = rng.uniform(0.1, 1.2)
    jump_drift = math.exp(m + 0.5 * delta**2) - 1.0 - m
    quad = gamma * (
        math.exp(2.0 * m + 2.0 * delta**2) - 2.0 * math.exp(m + 0.5 * delta**2) + 1.0
    )
    target_mu_s = -rng.uniform(0.02, 0.95) * (sigma**2 + quad)
    mu = target_mu_s - 0.5 * sigma**2 - gamma * jump_drift
    return MertonParams(mu=mu, sigma=sigma, gamma=gamma, m=m, delta=delta)


def sample_vg(rng: np.random.Generator) -> VgParams:
    """Random CGM triples with M > 4 and G - M strictly inside (-3, -1)."""
    big_m = rng.uniform(4.3, 25.0)
    big_g = big_m + rng.uniform(-2.9, -1.02)
    c = rng.uniform(0.5, 8.0)
    return VgParams.from_cgm(c, big_g, big_m)


@pytest.fixture(scope="session")
def random_merton_models() -> list:
    rng = np.random.default_rng(20240211)
    return [sample_merton(rng) for _ in range(25)]


@pytest.fixture(scope="session")
def random_vg_models() -> list:
    rng = np.random.default_rng(20240212)
    return [sample_vg(rng) for _ in range(25)]
