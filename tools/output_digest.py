"""Print one sha256 over what this checkout computes: ``lrm_strike_sweep``
(t in {0.05, 0.5, 0.9}; 1, 3, 29 and 1000 strikes, and strikes near the
+-pi/eta edge), single ``lrm`` quotes (one ``quote`` record per model, t
and strike), ``jump_impact``, and the exit code, stdout
and error lines of ``levyhedge curve``, ``validate`` and ``impact``
(timing lines dropped), on the named parameter sets and seeded samplers
of ``tests/conftest.py``.  An error counts as its type and message.  Two
checkouts that print the same digest give the same bits.  ``--dump PATH``
also writes each hashed record to PATH as one ``label repr`` line, so two
checkouts' dumps can be diffed to see which records moved.

    python tools/output_digest.py [--dump PATH]
"""

import argparse
import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import conftest  # noqa: E402
from levyhedge import FftConfig, LevyHedgeError, MarketQuery, MertonParams, VgParams  # noqa: E402
from levyhedge import jump_impact, lrm, lrm_strike_sweep  # noqa: E402
from levyhedge.cli import main  # noqa: E402

CONFIG = FftConfig(n=2**14, eta=0.025, alpha=1.75, eps=1e-2)  # the fft_bench fixture
# strikes whose log lies 0.05, 0.5 and 1.5 inside +-pi/eta
EDGE = [math.exp(s * (math.pi / CONFIG.eta - d)) for s in (1, -1) for d in (0.05, 0.5, 1.5)]
MONEYNESS = [[1.0], [0.8, 1.0, 1.25], np.linspace(0.6, 1.4, 29), np.linspace(0.5, 2.0, 1000)]
digest = hashlib.sha256()
lines = []


def record(label, call):
    try:
        out = call()
    except LevyHedgeError as exc:
        out = f"{type(exc).__name__}: {exc}"
    lines.append(f"{label} {out!r}\n")
    digest.update(lines[-1].encode())


def cli(text):
    """Exit code, stdout and error lines of ``levyhedge`` run with the
    command of text's first word and ``--set`` for each further word."""
    command, *pairs = text.split()
    argv = [command] + [flag for pair in pairs for flag in ("--set", pair)]
    if command == "impact":
        argv += ["--y", "0.1,-0.2"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), [x for x in err.getvalue().splitlines() if x.startswith("error:")]


parser = argparse.ArgumentParser(description="sha256 over this checkout's outputs")
parser.add_argument("--dump", metavar="PATH", help="also write each hashed record to PATH")
args = parser.parse_args()

rngs = np.random.default_rng(20240211), np.random.default_rng(20240212)
models = [
    ("merton_bench", MertonParams(**conftest.MERTON_BENCH), 1.0),
    ("vg_bench", VgParams(**conftest.VG_BENCH), 1.0),
    ("nikkei", VgParams.from_cgm(*conftest.NIKKEI_CGM), conftest.NIKKEI_SPOT),
] + [(f"merton{i}", conftest.sample_merton(rngs[0]), 1.0) for i in range(25)]
models += [(f"vg{i}", conftest.sample_vg(rngs[1]), 1.0) for i in range(25)]
for name, model, spot in models:
    for t in (0.05, 0.5, 0.9):
        sweeps = [[spot * k for k in ks] for ks in MONEYNESS] + [EDGE[:1] + [spot] * 4, EDGE]
        for ks in sweeps:
            record(f"{name} sweep {t} {len(ks)}",
                   lambda: lrm_strike_sweep(model, CONFIG, t=t, T=1.0, spot=spot, strikes=ks))
        for k in sweeps[1] + EDGE:
            record(f"{name} quote {t} {k}",
                   lambda: lrm(MarketQuery(t, 1.0, spot, k), model, CONFIG))
    for y in (0.1, -0.1, 0.5):
        for m in (0.8, 1.0, 1.25):
            record(f"{name} impact {y} {m}", lambda: jump_impact(y, m, 0.5, model, CONFIG))

# merton_bench, vg_bench, the Nikkei triple, and a Merton model whose I2
# terms shift log K up by 0.26 and 0.3
CLI_MODELS = [
    "model.kind=merton model.mu=-0.7 model.sigma=0.2 model.gamma=1 model.m=0 model.delta=1",
    "model.kind=vg model.kappa=0.15 model.m=-0.2 model.delta=0.45",
    "model.kind=vg-cgm model.C=2.46939502681512 model.G=23.743109051760964 "
    "model.M=24.903251787154687",
    "model.kind=merton model.mu=-0.1 model.sigma=0.2 model.gamma=1 model.m=-0.3 model.delta=0.2",
]
GRID = "query.T=1 query.t_grid=0:0.95:0.05 query.strike_grid=0.6:1.4:0.0285714285714"
EXTRA = ["", "fft.n=64", "fft.n=abc", "fft.eta=x", "bogus.key=1", "query.T=50",
         f"query.strike_grid=1,{EDGE[0]!r}", f"query.strike_grid=1,1.1,1.2,1.3,{EDGE[0]!r}"]
for keys in CLI_MODELS:
    # model.kind and its first key alone: a missing key
    record(f"{keys} missing", lambda: cli("validate " + " ".join(keys.split()[:2])))
    for extra in EXTRA:
        record(f"{keys} {extra}", lambda: [
            cli(f"curve {keys} {GRID} {extra}"), cli(f"validate {keys} {GRID} {extra}"),
            cli(f"impact {keys} query.t=0.5 query.strike=1.1 {extra}"),
        ])
record("bad kind", lambda: cli("validate model.kind=unknown"))
if args.dump:
    Path(args.dump).write_text("".join(lines), encoding="utf-8")
print(digest.hexdigest())
