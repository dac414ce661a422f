"""Benchmark inputs: the named models, the random-model pool, the (t, K)
lattices whose oracle references are stored in ``refs.json``, and the
seeded operation mix of each workload.

Every hedge ratio the benchmark can request is either a lattice cell (so
its oracle reference is stored) or sits inside a strike range whose two
end points are lattice cells.  The (t, K) ranges stay inside the region
where the default grid (n = 2^14, eta = 0.025) passes its tail check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"

MATURITY = 1.0
FFT = dict(n=2**14, eta=0.025, alpha=1.75, eps=1e-2)

# the three named parameter sets of the test suite (tests/conftest.py)
NIKKEI_SPOT = 14841.07
NAMED = {
    "merton_bench": ("merton", dict(mu=-0.7, sigma=0.2, gamma=1.0, m=0.0, delta=1.0), 1.0),
    "vg_bench": ("vg", dict(kappa=0.15, m=-0.2, delta=0.45), 1.0),
    "nikkei": (
        "vg-cgm",
        dict(C=2.469395026815120, G=23.743109051760964, M=24.903251787154687),
        NIKKEI_SPOT,
    ),
}

# lattices: t values x strikes.  Nikkei stops at t = 0.6 because the
# polynomial VG envelope at spot 14841 needs a span beyond N*eta = 409.6
# for tau < 0.4; that refused region belongs to grid sizing, not here.
_BENCH_T = tuple(i / 10 for i in range(10))
_BENCH_K = tuple((6 + i) / 10 for i in range(11))
_NIKKEI_T = tuple(i / 10 for i in range(7))
_NIKKEI_K = tuple(10000.0 + 1000.0 * i for i in range(11))
POOL_T = (0.0, 0.25, 0.5, 0.75)
POOL_K = (0.7, 0.85, 1.0, 1.15, 1.3)
# random pool models must pass the tail check on every curve slice
# t = 0, 0.05, ..., 0.95 at the lowest pool strike (bounds fall with K)
POOL_SCREEN_T = tuple(0.05 * i for i in range(20))
POOL_SIZE = 12

# fixed north-star operations (ROADMAP aim 1)
SWEEP29_K = tuple(1.0 + 0.25 * i for i in range(29))
SWEEP1000_K = tuple(1.0 + 0.007 * i for i in range(1000))
CURVE_T_GRID = "0:0.95:0.05"
CURVE_T = tuple(0.05 * i for i in range(20))
NIKKEI_T_GRID = "0:0.6:0.1"

# extra reference cells beyond the lattices, on the fixed operations
EXTRA_REF_CELLS = (
    [("merton_bench", 0.5, k) for k in SWEEP29_K]
    + [("merton_bench", 0.5, SWEEP1000_K[i]) for i in range(0, 1000, 111)]
    + [
        ("merton_bench", t, SWEEP29_K[i])
        for t in (0.0, 0.25, 0.5, 0.75, 0.95)
        for i in range(0, 29, 4)
    ]
)

# distinct seeded cycles per run; the run iterates them in turn
VARIANTS = 8


def ref_key(model_id: str, t: float, strike: float) -> str:
    return f"{model_id}|{t:.9g}|{strike:.9g}"


def lattice(model_id: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if model_id == "nikkei":
        return _NIKKEI_T, _NIKKEI_K
    if model_id in NAMED:
        return _BENCH_T, _BENCH_K
    return POOL_T, POOL_K


def sample_merton(rng: np.random.Generator) -> dict:
    """Random Merton parameters drawn as tests/conftest.py draws them."""
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
    return dict(mu=mu, sigma=sigma, gamma=gamma, m=m, delta=delta)


def sample_vg(rng: np.random.Generator) -> dict:
    """Random CGM triple drawn as tests/conftest.py draws it."""
    big_m = rng.uniform(4.3, 25.0)
    big_g = big_m + rng.uniform(-2.9, -1.02)
    c = rng.uniform(0.5, 8.0)
    return dict(C=c, G=big_g, M=big_m)


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def model_specs(refs: dict) -> dict[str, tuple[str, dict, float]]:
    """model id -> (kind, parameters, spot) for the named sets and the pool."""
    specs = dict(NAMED)
    for entry in refs["pool"]:
        specs[entry["id"]] = (entry["kind"], entry["params"], 1.0)
    return specs


def build_model(kind: str, params: dict):
    from levyhedge import MertonParams, VgParams

    if kind == "merton":
        return MertonParams(**params)
    if kind == "vg":
        return VgParams(**params)
    return VgParams.from_cgm(params["C"], params["G"], params["M"])


def reference_cells(specs: dict) -> list[tuple[str, float, float]]:
    cells = []
    for model_id in specs:
        ts, ks = lattice(model_id)
        cells += [(model_id, t, k) for t in ts for k in ks]
    return cells + list(EXTRA_REF_CELLS)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a single quote, a strike sweep on one
    slice, or one ``levyhedge curve`` call on a (t, K) surface."""

    label: str
    kind: str  # "quote" | "sweep" | "curve"
    model_id: str
    t_values: tuple[float, ...]
    strikes: tuple[float, ...]
    t_grid: str = ""  # curve only: the query.t_grid spec given to the CLI
    strike_grid: str = ""  # curve only: the query.strike_grid spec

    @property
    def cells(self) -> int:
        return len(self.t_values) * len(self.strikes)

    @property
    def key(self) -> str:
        return f"{self.label}|{self.model_id}|{self.t_values[0]!r}|{len(self.t_values)}|" + (
            f"{self.strikes[0]!r}|{self.strikes[-1]!r}|{len(self.strikes)}"
        )


def _pool_ids(specs: dict, kind: str) -> list[str]:
    return sorted(m for m, spec in specs.items() if m not in NAMED and spec[0] == kind)


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(len(seq)))]


def _quote(rng, label, model_id) -> Op:
    ts, ks = lattice(model_id)
    return Op(label, "quote", model_id, (_pick(rng, ts),), (_pick(rng, ks),))


def _sweep(rng, label, model_id, n) -> Op:
    ts, ks = lattice(model_id)
    lo, hi = sorted(rng.choice(len(ks), size=2, replace=False))
    strikes = tuple(float(k) for k in np.linspace(ks[lo], ks[hi], n))
    return Op(label, "sweep", model_id, (_pick(rng, ts),), strikes)


def _fixed_sweep(label, model_id, t, strikes) -> Op:
    return Op(label, "sweep", model_id, (t,), tuple(strikes))


def _pool_surface(rng, model_id) -> Op:
    lo, hi = sorted(rng.choice(len(POOL_K), size=2, replace=False))
    strikes = tuple(float(k) for k in np.linspace(POOL_K[lo], POOL_K[hi], 29))
    return Op(
        "pool_curve580", "curve", model_id, CURVE_T, strikes,
        t_grid=CURVE_T_GRID, strike_grid=",".join(repr(k) for k in strikes),
    )


def curve_config(op: Op, spec: tuple[str, dict, float]) -> str:
    """The ``levyhedge curve`` run configuration of one surface."""
    kind, params, spot = spec
    lines = [f"model.kind = {kind}"]
    lines += [f"model.{name} = {value!r}" for name, value in params.items()]
    lines += [f"fft.{name} = {value!r}" for name, value in FFT.items()]
    lines += [
        f"query.T = {MATURITY!r}",
        f"query.spot = {spot!r}",
        f"query.t_grid = {op.t_grid}",
        f"query.strike_grid = {op.strike_grid}",
    ]
    return "\n".join(lines) + "\n"


MERTON_CURVE = Op(
    "merton_curve580", "curve", "merton_bench", CURVE_T, SWEEP29_K,
    t_grid=CURVE_T_GRID, strike_grid="1:8:0.25",
)
NIKKEI_CURVE = Op(
    "nikkei_curve77", "curve", "nikkei", _NIKKEI_T, _NIKKEI_K,
    t_grid=NIKKEI_T_GRID, strike_grid="10000:20000:1000",
)

# the first operation every set-up makes, fixed per workload so that
# set-up time does not depend on the seed
WARMUP = {
    "single_quote": Op("merton_quote", "quote", "merton_bench", (0.5,), (1.0,)),
    "strike_sweep": _fixed_sweep("merton_sweep29", "merton_bench", 0.5, SWEEP29_K),
    "curve_cli": NIKKEI_CURVE,
}

# the tail percentile reported per workload: fixed, so that it does not
# move when the program gets faster, and chosen so that at least ten
# operations of a 30 s run lie beyond it
TAIL_PERCENTILE = {"single_quote": 95.0, "strike_sweep": 99.0, "curve_cli": 90.0}


def _cycle(workload: str, rng: np.random.Generator, specs: dict) -> list[Op]:
    """One cycle of a workload.  The mix per cycle is fixed; the seed picks
    models from the pool and points from the lattices.  In the quote and
    curve mixes the largest class holds more than half the operations, so
    the median operation time stays inside one class whatever the seed."""
    pool_m, pool_v = _pool_ids(specs, "merton"), _pool_ids(specs, "vg-cgm")
    if workload == "single_quote":
        ops = (
            [_quote(rng, "merton_quote", "merton_bench") for _ in range(4)]
            + [_quote(rng, "pool_merton_quote", _pick(rng, pool_m)) for _ in range(3)]
            + [_quote(rng, "nikkei_quote", "nikkei") for _ in range(2)]
            + [_quote(rng, "vg_quote", "vg_bench")]
            + [_quote(rng, "pool_vg_quote", _pick(rng, pool_v)) for _ in range(2)]
        )
    elif workload == "strike_sweep":
        ops = [
            _fixed_sweep("merton_sweep29", "merton_bench", 0.5, SWEEP29_K),
            _fixed_sweep("nikkei_sweep11", "nikkei", 0.5, _NIKKEI_K),
            _fixed_sweep("merton_sweep1000", "merton_bench", 0.5, SWEEP1000_K),
            _sweep(rng, "vg_sweep", "vg_bench", 5),
            _sweep(rng, "merton_sweep", "merton_bench", 100),
            _sweep(rng, "pool_merton_sweep", _pick(rng, pool_m), 50),
            _sweep(rng, "pool_merton_sweep", _pick(rng, pool_m), 300),
            _sweep(rng, "pool_vg_sweep", _pick(rng, pool_v), 11),
            _sweep(rng, "pool_vg_sweep", _pick(rng, pool_v), 200),
        ]
    elif workload == "curve_cli":
        ops = [
            MERTON_CURVE,
            NIKKEI_CURVE,
            _pool_surface(rng, _pick(rng, pool_m)),
            _pool_surface(rng, _pick(rng, pool_v)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


WORKLOADS = ("single_quote", "strike_sweep", "curve_cli")


def build_cycles(workload: str, seed: int, specs: dict) -> list[list[Op]]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [_cycle(workload, rng, specs) for _ in range(VARIANTS)]
