"""Time this checkout's ``levyhedge`` against another tree's, in one
process: both packages are imported, each under its own module set, and
every round runs each labelled operation once per tree, all in random
order, on warm shared samples unless the label says ``cold``:

* ``merton_quote``, ``nikkei_quote``: one ``lrm`` quote (t = 0.5; K = 1 on
  ``merton_bench``, K = 15000 on the Nikkei triple at its spot);
* ``merton_quote_cold``, ``nikkei_quote_cold``: the same quote through
  ``evaluate_slices`` on a new ``LevySample`` of the pair, so that the
  first call's tables and sample are timed too;
* ``merton_sweep29``, ``nikkei_sweep11``, ``merton_sweep1000``: one
  ``lrm_strike_sweep`` at t = 0.5 over the benchmark's strikes;
* ``merton_curve580_plan``, ``merton_curve580_eval``: ``plan_slices`` and
  ``evaluate_slices`` of the 20 x 29 Merton ``curve`` surface.

An operation shorter than 2 ms is repeated within its timing, the same
number of times on both trees.  Per label it prints the median time on
each tree, the median over rounds of the change/parent ratio, the ratio
of the two trees' 10th percentiles of round times (``p10``: the
fastest rounds, which a busy host disturbs least), and the rounds the
change won; ``--every`` also prints each round's ratios.  The
parameter sets are those of ``tests/conftest.py`` and ``bench/inputs.py``.
Nothing is written.  Set the BLAS thread count (``OPENBLAS_NUM_THREADS=1``)
in the environment; the header echoes it.

    python tools/ab.py PARENT_SRC [--rounds 40] [--seed 0] [--every]

PARENT_SRC is the directory holding the other tree's ``levyhedge``
package (its ``src``), e.g. of ``git archive HEAD~1 | tar -x -C DIR``.
"""

import argparse
import importlib
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

MERTON_BENCH = dict(mu=-0.7, sigma=0.2, gamma=1.0, m=0.0, delta=1.0)
NIKKEI_CGM = (2.469395026815120, 23.743109051760964, 24.903251787154687)
NIKKEI_SPOT = 14841.07
FFT = dict(n=2**14, eta=0.025, alpha=1.75, eps=1e-2)
SWEEP29_K = [1.0 + 0.25 * i for i in range(29)]
SWEEP1000_K = [1.0 + 0.007 * i for i in range(1000)]
NIKKEI_K = [10000.0 + 1000.0 * i for i in range(11)]
CURVE_T = [0.05 * i for i in range(20)]
# the shortest timed span; shorter operations are repeated within it
MIN_SPAN_S = 2e-3


def load(src: Path):
    """The ``levyhedge`` package under src and its ``lrm`` module, as a
    module set of their own: the one loaded before stays intact."""
    for name in [n for n in sys.modules if n == "levyhedge" or n.startswith("levyhedge.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("levyhedge"), importlib.import_module("levyhedge.lrm")
    finally:
        sys.path.remove(str(src))


def operations(package, module) -> dict:
    """label -> a call of one tree's operation."""
    config = package.FftConfig(**FFT)
    merton = package.MertonParams(**MERTON_BENCH)
    nikkei = package.VgParams.from_cgm(*NIKKEI_CGM)
    merton_query = package.MarketQuery(t=0.5, T=1.0, spot=1.0, strike=1.0)
    nikkei_query = package.MarketQuery(t=0.5, T=1.0, spot=NIKKEI_SPOT, strike=15000.0)

    def cold(model, query):
        return lambda: module.evaluate_slices(module.LevySample(model, config), [query.tau],
                                              [query.strike], query.spot)

    sample = module.levy_sample(merton, config)
    taus = [module.time_to_maturity(t, 1.0) for t in CURVE_T]
    strikes = module._strike_array(SWEEP29_K)

    def sweep(model, spot, strikes):
        return lambda: package.lrm_strike_sweep(model, config, t=0.5, T=1.0, spot=spot,
                                                strikes=strikes)

    return {
        "merton_quote": lambda: package.lrm(merton_query, merton, config),
        "nikkei_quote": lambda: package.lrm(nikkei_query, nikkei, config),
        "merton_quote_cold": cold(merton, merton_query),
        "nikkei_quote_cold": cold(nikkei, nikkei_query),
        "merton_sweep29": sweep(merton, 1.0, SWEEP29_K),
        "nikkei_sweep11": sweep(nikkei, NIKKEI_SPOT, NIKKEI_K),
        "merton_sweep1000": sweep(merton, 1.0, SWEEP1000_K),
        "merton_curve580_plan": lambda: module.plan_slices(sample, taus, strikes, 1.0),
        "merton_curve580_eval": lambda: module.evaluate_slices(sample, taus, strikes, 1.0),
    }


def timed(call, repeats: int) -> float:
    """Seconds per call over repeats calls."""
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats


def main() -> None:
    parser = argparse.ArgumentParser(description="in-process A/B against another tree")
    parser.add_argument("parent_src", type=Path, help="directory of the other levyhedge")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--every", action="store_true", help="print every round's ratios")
    args = parser.parse_args()
    if not (args.parent_src / "levyhedge" / "__init__.py").is_file():
        parser.error(f"no levyhedge package under {args.parent_src}")

    trees = {"parent": operations(*load(args.parent_src.resolve())),
             "change": operations(*load(ROOT / "src"))}
    labels = list(trees["change"])
    repeats = {}
    for label in labels:
        for ops in trees.values():
            ops[label]()  # warm: shared samples and cached tables
        once = min(timed(trees["change"][label], 1) for _ in range(3))
        repeats[label] = max(1, math.ceil(MIN_SPAN_S / once))

    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}, "
          f"{args.rounds} rounds, seed {args.seed}")
    rng = random.Random(args.seed)
    times = {(tree, label): [] for tree in trees for label in labels}
    for index in range(args.rounds):
        order = [(tree, label) for tree in trees for label in labels]
        rng.shuffle(order)
        for tree, label in order:
            times[tree, label].append(timed(trees[tree][label], repeats[label]))
        if args.every:
            ratios = (times["change", x][-1] / times["parent", x][-1] for x in labels)
            print(f"round {index + 1:3d}  " + "  ".join(f"{r:.3f}" for r in ratios))

    if args.every:
        print("columns: " + ", ".join(labels))
    print(f"{'label':22s} {'parent_ms':>10s} {'change_ms':>10s} {'ratio':>7s} {'p10':>7s} "
          f"{'won':>7s}")
    for label in labels:
        parent, change = times["parent", label], times["change", label]
        ratio = statistics.median(c / p for c, p in zip(change, parent))
        p10 = np.quantile(change, 0.1) / np.quantile(parent, 0.1)
        won = sum(c < p for c, p in zip(change, parent))
        print(f"{label:22s} {1e3 * statistics.median(parent):10.4f} "
              f"{1e3 * statistics.median(change):10.4f} {ratio:7.3f} {p10:7.3f} "
              f"{won:3d}/{args.rounds}")


if __name__ == "__main__":
    main()
