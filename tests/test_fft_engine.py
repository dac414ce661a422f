import math
import re

import numpy as np
import pytest

from levyhedge import (
    FftConfig,
    FftSizeError,
    InvalidParameterError,
    MarketQuery,
    lrm,
    mmm_quantities,
)
from levyhedge.fft_engine import (
    carr_madan_grid,
    direct_simpson_sum,
    row_layout,
    tail_condition_check,
    trapezoid_weights,
)
from levyhedge.oracle import damped_sum_complex, merton_char_fn, naive_dft


def test_fft_matches_naive_small():
    rng = np.random.default_rng(3)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    assert np.max(np.abs(np.fft.fft(x) - naive_dft(x))) < 1e-12


def test_fft_matches_naive_all_sizes():
    rng = np.random.default_rng(5)
    n = 2
    while n <= 1024:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.max(np.abs(np.fft.fft(x) - naive_dft(x))) < 1e-12
        n *= 2


def test_trapezoid_weights_values():
    eta = 0.025
    w = trapezoid_weights(4, eta)
    assert w == pytest.approx([eta / 2, eta, eta, eta])
    for n in (2, 8, 64):
        assert trapezoid_weights(n, eta)[0] == pytest.approx(eta / 2, rel=1e-15)


def test_trapezoid_weights_total_measure():
    # the weights sum to n*eta - eta/2
    n, eta = 4096, 0.025
    total = trapezoid_weights(n, eta).sum()
    assert total == pytest.approx(n * eta - eta / 2.0, rel=1e-12)
    assert abs(total - n * eta) <= eta


def test_grid_center_index_is_zero_log_strike(fft_bench):
    psi = np.exp(-0.5 * (fft_bench.eta * np.arange(fft_bench.n)) ** 2)
    grid = carr_madan_grid(psi, fft_bench.alpha, fft_bench.eta)
    center = fft_bench.n // 2
    assert grid.k[center] == pytest.approx(0.0, abs=1e-12)


def test_grid_matches_direct_sum_on_model_samples(merton_bench, fft_bench):
    mm = mmm_quantities(merton_bench)
    zeta = fft_bench.zeta_grid()
    iz = 1j * zeta
    psi2 = merton_char_fn(zeta, 0.5, merton_bench, mm) / ((iz - 1.0) * iz)
    grid = carr_madan_grid(psi2, fft_bench.alpha, fft_bench.eta)
    at_zero = grid.at(0.0)
    direct = direct_simpson_sum(psi2, fft_bench.alpha, fft_bench.eta, 0.0)
    assert abs(at_zero - direct) < 1e-9


def test_grid_zero_samples(fft_bench):
    grid = carr_madan_grid(np.zeros(64), fft_bench.alpha, 0.25)
    assert np.all(grid.values == 0.0)


def test_grid_equals_direct_at_every_node():
    rng = np.random.default_rng(17)
    n, eta, alpha = 256, 0.25, 1.75
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    grid = carr_madan_grid(psi, alpha, eta)
    scale = np.sum(np.abs(psi * trapezoid_weights(n, eta)))
    # skip index 0: its node sits exactly on the -pi/eta boundary that
    # direct queries must stay strictly inside
    for idx in range(1, n, 7):
        k = grid.k[idx]
        direct = direct_simpson_sum(psi, alpha, eta, k)
        tol = 1e-10 * scale * math.exp(-alpha * k) / math.pi
        assert abs(grid.values[idx] - direct) <= tol


def test_grid_bit_identical_to_formula():
    # the cached tables change the grouping of no product, so the grid
    # has the bits of the docstring formula; the shared k grid is read-only
    rng = np.random.default_rng(23)
    cases = ((2, 0.25, 1.75), (64, 0.1, 1.1), (4096, 0.025, 2.0), (16384, 0.025, 1.75))
    for n, eta, alpha in cases:
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        j = np.arange(n)
        f_raw = np.fft.fft(((-1.0) ** j) * psi * trapezoid_weights(n, eta))
        k = -math.pi / eta + (2.0 * math.pi / (n * eta)) * j
        for _ in range(2):  # fresh tables, then cached ones
            grid = carr_madan_grid(psi, alpha, eta)
            assert np.all(grid.k == k)
            assert np.all(grid.values == np.exp(-alpha * k) / math.pi * f_raw.real)
        with pytest.raises(ValueError):
            grid.k[0] = 0.0


def test_direct_sum_matches_naive_reference():
    # factored-phase sums against one exponential per sample, at sizes that
    # need no padding, one that does (12), and log-strikes at both ends of
    # the representable range, several strikes per call
    rng = np.random.default_rng(29)
    alpha, eta = 1.75, 0.25
    edge = np.nextafter(math.pi / eta, 0.0)
    k = np.array([-edge, -3.7, 0.0, 0.41, 9.9, edge])
    for n in [2**p for p in range(1, 15)] + [12]:
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = direct_simpson_sum(psi, alpha, eta, k)
        assert got.shape == k.shape
        scale = np.sum(np.abs(psi * trapezoid_weights(n, eta)))
        for x, value in zip(k, got):
            naive = math.exp(-alpha * x) / math.pi * damped_sum_complex(psi, eta, x).real
            assert abs(value - naive) <= 1e-12 * scale * math.exp(-alpha * x) / math.pi
    assert direct_simpson_sum(np.ones(12), alpha, eta, 0.3).shape == ()


def test_direct_sum_rows_match_naive_prefix():
    # per-strike row counts over a prefix of an n-point layout: each
    # log-strike against the naive sum over its own rows, and with the
    # bits it has alone over the shortest prefix holding them
    rng = np.random.default_rng(31)
    alpha, eta = 1.75, 0.25
    k = np.array([-3.7, 0.0, 0.41, 9.9])
    for n in [4, 12, 64, 2**10, 2**14]:
        c, r = row_layout(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        rows = rng.integers(1, r + 1, size=k.size)
        rows[0] = 1
        m = min(int(rows.max()) * c, n)
        got = direct_simpson_sum(psi[:m], alpha, eta, k, n, rows)
        for x, count, value in zip(k, rows, got):
            own = psi[: min(int(count) * c, n)]
            naive = math.exp(-alpha * x) / math.pi * damped_sum_complex(own, eta, x).real
            scale = np.sum(np.abs(own * trapezoid_weights(own.size, eta)))
            assert abs(value - naive) <= 1e-12 * scale * math.exp(-alpha * x) / math.pi
            assert direct_simpson_sum(own, alpha, eta, [x], n, [count])[0] == value
        # the full grid is the prefix of length n
        full = direct_simpson_sum(psi, alpha, eta, k)
        assert np.array_equal(direct_simpson_sum(psi, alpha, eta, k, n, np.full(k.size, r)), full)


def test_direct_sum_stack_rows_equal_single_sums():
    # a stack of sample rows shares the phase exponentials; each row of
    # its sums has the bits of its own 1-D call, at any prefix and rows
    rng = np.random.default_rng(43)
    alpha, eta = 1.75, 0.25
    k = np.array([-3.7, 0.0, 0.41, 9.9])
    for n in [4, 12, 64, 2**10, 2**14]:
        c, r = row_layout(n)
        for depth in (1, 2, 3):
            psi = rng.normal(size=(depth, n)) + 1j * rng.normal(size=(depth, n))
            rows = rng.integers(1, r + 1, size=k.size)
            m = min(int(rows.max()) * c, n) - (n > 4)
            for args in ((psi, alpha, eta, k), (psi[:, :m], alpha, eta, k, n, rows)):
                stacked = direct_simpson_sum(*args)
                assert stacked.shape == (depth, k.size)
                for row, values in zip(args[0], stacked):
                    assert np.array_equal(direct_simpson_sum(row, *args[1:]), values)
    assert direct_simpson_sum(np.ones((2, 12)), alpha, eta, 0.3).shape == (2,)


def test_grid_prefix_equals_zero_padded():
    # a prefix is zero-padded to the n-point FFT: the bits of the padded grid
    rng = np.random.default_rng(37)
    n, m = 1024, 320
    psi = rng.normal(size=m) + 1j * rng.normal(size=m)
    padded = np.concatenate((psi, np.zeros(n - m, dtype=complex)))
    grid = carr_madan_grid(psi, 1.75, 0.1, n)
    assert np.array_equal(grid.values, carr_madan_grid(padded, 1.75, 0.1).values)


def test_grid_block_rows_equal_single_grids():
    # a block of prefixes, each row zero past its own prefix, gives every
    # row the bits of its own zero-padded 1-D grid, values and interpolation
    rng = np.random.default_rng(41)
    n, sizes = 1024, (320, 1024, 17, 700)
    rows = [rng.normal(size=m) + 1j * rng.normal(size=m) for m in sizes]
    block = np.zeros((len(rows), max(sizes)), dtype=complex)
    for out, row in zip(block, rows):
        out[: row.size] = row
    grid = carr_madan_grid(block, 1.75, 0.1, n)
    k = np.linspace(-3.0, 3.0, 11)
    values = grid.at(k)
    for i, row in enumerate(rows):
        alone = carr_madan_grid(row, 1.75, 0.1, n)
        assert np.array_equal(grid.values[i], alone.values)
        assert np.array_equal(values[i], alone.at(k))
    # its rows keep the finiteness check
    block[2, 5] = np.inf
    with pytest.raises(InvalidParameterError):
        carr_madan_grid(block, 1.75, 0.1, n)


def test_direct_sum_real_for_real_symmetric_samples():
    eta = 0.1
    v = eta * np.arange(128)
    psi = np.exp(-0.5 * v**2)  # real damped Gaussian
    raw = damped_sum_complex(psi, eta, 0.0)
    assert abs(raw.imag) < 1e-12


def test_offgrid_interpolation_second_order():
    # halving the grid step should shrink the mean interpolation error ~4x
    alpha, eta = 1.75, 0.1
    targets = np.linspace(0.11, 0.93, 13)

    def interp_error(n: int) -> float:
        v = eta * np.arange(n)
        psi = np.exp(-0.125 * v**2) * (1.0 + 0.3j)
        grid = carr_madan_grid(psi, alpha, eta)
        errs = [
            abs(grid.at(k) - direct_simpson_sum(psi, alpha, eta, k)) for k in targets
        ]
        return float(np.mean(errs))

    e1, e2 = interp_error(512), interp_error(1024)
    assert e2 < e1 / 2.0
    assert e1 < 5e-3


def test_grid_refuses_non_finite_samples():
    # finiteness is set by the model's arithmetic, so the grid checks it
    with pytest.raises(InvalidParameterError):
        carr_madan_grid(np.array([1.0, np.inf]), 1.75, 0.25)
    with pytest.raises(InvalidParameterError):
        carr_madan_grid(np.array([1.0, 1j * np.nan]), 1.75, 0.25)


def test_tail_condition(fft_bench, merton_bench, vg_bench):
    assert fft_bench.grid_span == pytest.approx(409.6)
    assert tail_condition_check(fft_bench, 409.6)  # inclusive boundary
    assert not tail_condition_check(fft_bench, 500.0)
    assert tail_condition_check(fft_bench, 23.6)


@pytest.mark.parametrize("n", [16384.0, 16384.5, "16384"])
def test_fft_config_refuses_non_integer_n(n):
    # the library's own error, naming n, where `n & (n - 1)` raised TypeError
    with pytest.raises(FftSizeError, match=rf"^n = {re.escape(repr(n))} is not an integer$"):
        FftConfig(n=n, eta=0.025)


def test_fft_config_takes_numpy_integer_n(merton_bench):
    # a numpy integer n is held as an int, so quotes run on it, with the bits
    # of the int config; a numpy n that is no power of two keeps its message
    config = FftConfig(n=np.int64(16384), eta=0.025)
    assert type(config.n) is int and config == FftConfig(n=16384, eta=0.025)
    query = MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.13)
    assert lrm(query, merton_bench, config) == lrm(query, merton_bench, FftConfig(16384, 0.025))
    with pytest.raises(FftSizeError, match=r"^n = 1000 is not a power of two >= 2$"):
        FftConfig(n=np.int64(1000), eta=0.025)


def test_fft_config_validation():
    with pytest.raises(FftSizeError):
        FftConfig(n=1000, eta=0.025)
    with pytest.raises(InvalidParameterError):
        FftConfig(n=64, eta=-1.0)
    with pytest.raises(InvalidParameterError):
        FftConfig(n=64, eta=0.1, alpha=0.5)
    with pytest.raises(InvalidParameterError):
        FftConfig(n=64, eta=0.1, alpha=1.75, eps=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="eta must be finite"):
            FftConfig(n=64, eta=bad)
        with pytest.raises(InvalidParameterError, match="eps must be finite"):
            FftConfig(n=64, eta=0.1, eps=bad)
