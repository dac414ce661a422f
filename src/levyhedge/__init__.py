"""Quadratic-hedging (local risk minimization) ratios for European calls
under exponential Levy models, computed with damped Fourier transforms
(numpy FFT grid or direct sums) over a Levy exponent sampled once per
model, and validated against adaptive-quadrature oracles.
"""

import ctypes
import platform

from .core import (
    TAU_MIN,
    AssumptionError,
    BranchCutError,
    ConditionCheck,
    FftSizeError,
    InvalidParameterError,
    LevyHedgeError,
    MarketQuery,
    MertonParams,
    MmmQuantities,
    Model,
    ModelMismatchError,
    OverflowGuardError,
    QuadratureConvergenceError,
    TailConditionError,
    ValidationReport,
    VgParams,
    martingale_drift,
    mmm_quantities,
    quadratic_exp_moment,
    validate_assumptions,
)
from .fft_engine import FftConfig
from .lrm import (
    LrmResult,
    jump_impact,
    levy_sample,
    lrm,
    lrm_strike_sweep,
)

__version__ = "0.1.0"

if platform.libc_ver()[0] == "glibc":
    # A transform frees MBs of N-point arrays on return.  With glibc's adaptive thresholds the
    # heap layout decides whether that memory is trimmed and faulted in again by the next call
    # (~1250 page faults per Merton sweep in some processes, none in others).  Fix the mmap and
    # trim thresholds at the ceiling of glibc's own adaptive rule, so every process reuses it.
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD; setting it ends the adaptive rule for both
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
