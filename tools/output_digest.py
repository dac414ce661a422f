"""Print one sha256 over what this checkout computes: ``lrm_strike_sweep``
(t in {0.05, 0.5, 0.9}; 1, 3, 29 and 1000 strikes, and strikes near the
+-pi/eta edge, and an empty sweep at T = 300), single ``lrm`` quotes
(one ``quote`` record per model, t and strike), ``jump_impact``, and the
exit code, stdout and error lines of ``levyhedge curve``, ``validate``
and ``impact`` (timing lines dropped), on the named parameter sets and
seeded samplers of ``tests/conftest.py``, and of ``curve`` and
``validate`` on four parameter edges (a sigma or delta whose square
leaves a double, a hedge denominator that rounds to 0).  An error counts
as its type and message, an exception that is not a ``LevyHedgeError``
(a traceback of ``levyhedge``) too.  Two checkouts that print the same
digest give the same bits.  Every record
is computed twice in one process, the second time on the shared
``LevySample`` of each (model, config) that the first pass cached; when a
record differs between the two passes, the script names the first such
record and exits 1.  ``--dump PATH`` also writes each hashed record to
PATH as one ``label repr`` line, so two checkouts' dumps can be diffed to
see which records moved.  ``--compare OLD_DUMP`` reads such a dump of
another checkout and, after the digest, prints per record group (the
label with its first number, the t of a model record, as ``*``) the
number of records that moved and the largest absolute move of each
numeric field (``lrm=``, ``i2=`` ...; ``value`` for an unnamed number,
``text`` for a record whose non-numeric text changed).  ``--expect HEX``
exits 1, naming both digests, when this checkout's digest is not HEX, so
a refactor's byte identity is one command.

    python tools/output_digest.py [--dump PATH] [--compare OLD_DUMP] [--expect HEX]
"""

import argparse
import contextlib
import hashlib
import io
import math
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import conftest  # noqa: E402
from levyhedge import FftConfig, MarketQuery, MertonParams, VgParams  # noqa: E402
from levyhedge import jump_impact, lrm, lrm_strike_sweep  # noqa: E402
from levyhedge.cli import main  # noqa: E402

CONFIG = FftConfig(n=2**14, eta=0.025, alpha=1.75, eps=1e-2)  # the fft_bench fixture
# strikes whose log lies 0.05, 0.5 and 1.5 inside +-pi/eta
EDGE = [math.exp(s * (math.pi / CONFIG.eta - d)) for s in (1, -1) for d in (0.05, 0.5, 1.5)]
MONEYNESS = [[1.0], [0.8, 1.0, 1.25], np.linspace(0.6, 1.4, 29), np.linspace(0.5, 2.0, 1000)]
lines = []


def record(label, call):
    try:
        out = call()
    except Exception as exc:  # a checkout that crashes where another refuses moves a record
        out = f"{type(exc).__name__}: {exc}"
    lines.append((label, f"{label} {out!r}\n"))


def cli(text):
    """Exit code, stdout and error lines of ``levyhedge`` run with the
    command of text's first word and ``--set`` for each further word."""
    command, *pairs = text.split()
    argv = [command] + [flag for pair in pairs for flag in ("--set", pair)]
    if command == "impact":
        # seven quotes, past the four strikes that auto mode sums directly
        argv += ["--y", "0.1,-0.2,0.3,-0.5,0.05,-1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), [x for x in err.getvalue().splitlines() if x.startswith("error:")]


parser = argparse.ArgumentParser(description="sha256 over this checkout's outputs")
parser.add_argument("--dump", metavar="PATH", help="also write each hashed record to PATH")
parser.add_argument("--compare", metavar="OLD_DUMP",
                    help="print the records that moved against another checkout's --dump")
parser.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest is HEX")
args = parser.parse_args()

rngs = np.random.default_rng(20240211), np.random.default_rng(20240212)
models = [
    ("merton_bench", MertonParams(**conftest.MERTON_BENCH), 1.0),
    ("vg_bench", VgParams(**conftest.VG_BENCH), 1.0),
    ("nikkei", VgParams.from_cgm(*conftest.NIKKEI_CGM), conftest.NIKKEI_SPOT),
] + [(f"merton{i}", conftest.sample_merton(rngs[0]), 1.0) for i in range(25)]
models += [(f"vg{i}", conftest.sample_vg(rngs[1]), 1.0) for i in range(25)]

# merton_bench, vg_bench, the Nikkei triple, and a Merton model whose I2
# terms shift log K up by 0.26 and 0.3
CLI_MODELS = [
    "model.kind=merton model.mu=-0.7 model.sigma=0.2 model.gamma=1 model.m=0 model.delta=1",
    "model.kind=vg model.kappa=0.15 model.m=-0.2 model.delta=0.45",
    "model.kind=vg-cgm model.C=2.46939502681512 model.G=23.743109051760964 "
    "model.M=24.903251787154687",
    "model.kind=merton model.mu=-0.1 model.sigma=0.2 model.gamma=1 model.m=-0.3 model.delta=0.2",
]
# a Merton sigma whose square overflows or rounds to 0, a variance-gamma
# delta whose square rounds to 0, and a variance-gamma kappa whose
# int (e^x - 1)^2 nu(dx) rounds to 0
EDGE_MODELS = [
    "model.kind=merton model.mu=-0.7 model.sigma=1e200 model.gamma=1 model.m=0 model.delta=1",
    "model.kind=merton model.mu=-0.7 model.sigma=1e-170 model.gamma=1 model.m=0 model.delta=1",
    "model.kind=vg model.kappa=0.15 model.m=-0.2 model.delta=1e-170",
    "model.kind=vg model.kappa=1e-20 model.m=-0.04 model.delta=0.2",
]
GRID = "query.T=1 query.t_grid=0:0.95:0.05 query.strike_grid=0.6:1.4:0.0285714285714"
EXTRA = ["", "fft.n=64", "fft.n=abc", "fft.eta=x", "bogus.key=1", "query.T=50",
         f"query.strike_grid=1,{EDGE[0]!r}", f"query.strike_grid=1,1.1,1.2,1.3,{EDGE[0]!r}"]


def records() -> list:
    """Every (label, line) record, in order."""
    lines.clear()
    for name, model, spot in models:
        for t in (0.05, 0.5, 0.9):
            sweeps = [[spot * k for k in ks] for ks in MONEYNESS] + [EDGE[:1] + [spot] * 4, EDGE]
            for ks in sweeps:
                record(f"{name} sweep {t} {len(ks)}",
                       lambda: lrm_strike_sweep(model, CONFIG, t=t, T=1.0, spot=spot, strikes=ks))
            for k in sweeps[1] + EDGE:
                record(f"{name} quote {t} {k}",
                       lambda: lrm(MarketQuery(t, 1.0, spot, k), model, CONFIG))
        record(f"{name} empty sweep 300",
               lambda: lrm_strike_sweep(model, CONFIG, t=0.0, T=300.0, spot=spot, strikes=[]))
        for y in (0.1, -0.1, 0.5):
            for m in (0.8, 1.0, 1.25):
                record(f"{name} impact {y} {m}", lambda: jump_impact(y, m, 0.5, model, CONFIG))
    for keys in CLI_MODELS:
        # model.kind and its first key alone: a missing key
        record(f"{keys} missing", lambda: cli("validate " + " ".join(keys.split()[:2])))
        for extra in EXTRA:
            record(f"{keys} {extra}", lambda: [
                cli(f"curve {keys} {GRID} {extra}"), cli(f"validate {keys} {GRID} {extra}"),
                cli(f"impact {keys} query.t=0.5 query.strike=1.1 {extra}"),
            ])
    for keys in EDGE_MODELS:
        record(f"edge {keys}", lambda: [cli(f"curve {keys} {GRID}"), cli(f"validate {keys} {GRID}")])
    record("bad kind", lambda: cli("validate model.kind=unknown"))
    return list(lines)


cold, warm = records(), records()
for (label, first), (_, second) in zip(cold, warm):
    if first != second:
        sys.exit(f"error: record {label!r} differs on the warm shared samples")
hashed = "".join(line for _, line in cold)
if args.dump:
    Path(args.dump).write_text(hashed, encoding="utf-8")
digest = hashlib.sha256(hashed.encode()).hexdigest()
print(digest)

# a number or bool not inside a name (i1, i2), with the field name before its '='
NUMBER = re.compile(r"(?<![\w.])(?:(\w+)=)?(-?(?:inf|nan|\d+\.?\d*(?:e[-+]?\d+)?)|True|False)")


def fields(line: str) -> tuple[str, list[tuple[str, float]]]:
    """A record line's text with its numbers cut out, and its (field, number)
    pairs in order, a bool as 0 or 1."""
    pairs = []
    for m in NUMBER.finditer(line):
        text = m.group(2)
        pairs.append((m.group(1) or "value", float(text == "True" if text[0] in "TF" else text)))
    return NUMBER.sub(lambda m: f"{m.group(1) or ''}#", line), pairs


def compare(old_lines: list[str]) -> None:
    """Per record group, the count of moved records and the largest
    absolute move of each numeric field against ``old_lines``."""
    if len(old_lines) != len(cold):
        sys.exit(f"error: {len(old_lines)} records in the old dump, {len(cold)} here")
    groups: dict[str, dict] = {}
    for (label, new), old in zip(cold, old_lines):
        if not old.startswith(label + " "):
            sys.exit(f"error: record {label!r} is not the old dump's {old[:60]!r}")
        if old == new:
            continue
        words = label.split()
        first = next((i for i, w in enumerate(words) if NUMBER.fullmatch(w)), None)
        if first is not None:
            words[first] = "*"
        moves = groups.setdefault(" ".join(words), {"moved": 0})
        moves["moved"] += 1
        (old_text, old_pairs), (new_text, new_pairs) = fields(old), fields(new)
        if old_text != new_text:
            moves["text"] = math.inf
            continue
        for (name, a), (_, b) in zip(old_pairs, new_pairs):
            if a != b and not (math.isnan(a) and math.isnan(b)):
                moves[name] = max(moves.get(name, 0.0), abs(b - a))
    moved = sum(g["moved"] for g in groups.values())
    print(f"{moved} of {len(cold)} records moved")
    for key, moves in groups.items():
        largest = ", ".join(f"{name} {move:.3g}" for name, move in moves.items() if name != "moved")
        print(f"{key}: {moves['moved']} moved; {largest}")


if args.compare:
    compare(Path(args.compare).read_text(encoding="utf-8").splitlines(keepends=True))
if args.expect is not None and digest != args.expect:
    sys.exit(f"error: digest {digest} is not the expected {args.expect}")
