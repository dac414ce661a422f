"""Regenerate ``refs.json``: the random-model pool and the oracle
reference hedge ratio of every lattice cell the benchmark may request.

    python3 bench/make_refs.py          # from the repository root; a few minutes

The pool is drawn the way tests/conftest.py draws its random models, from
the same generator seeds.  A draw is kept only if the default grid passes
its tail check on every pool (t, K) the benchmark uses and the oracle
converges on every lattice cell; the counts of discarded draws are stored
with the pool.  References come from ``levyhedge.oracle.oracle_lrm``, the
QUADPACK route that never touches the production transforms.  The file
also records the sha256 of the two fixed ``curve`` CSVs as the current
code writes them, so later changes can show byte-identical output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from levyhedge import FftConfig, LevyHedgeError, MarketQuery  # noqa: E402
from levyhedge.lrm import TransformContext  # noqa: E402
from levyhedge.oracle import oracle_lrm  # noqa: E402

# generator seeds of the random model fixtures in tests/conftest.py
POOL_SEEDS = {"merton": 20240211, "vg-cgm": 20240212}
# screen with headroom below the span so a slightly looser bound in a
# later change does not turn a pool model into a refused query
SCREEN_SHARE = 0.8


def _passes_tail(model, config: FftConfig) -> bool:
    k_low = min(inputs.POOL_K)
    for t in inputs.POOL_SCREEN_T:
        try:
            ctx = TransformContext(model, config, inputs.MATURITY - t, 1.0)
            need = max(ctx.trunc_bounds(k_low))
        except LevyHedgeError:
            return False
        if need > SCREEN_SHARE * config.grid_span:
            return False
    return True


def _oracle(model, spot: float, t: float, strike: float) -> float:
    return oracle_lrm(MarketQuery(t=t, T=inputs.MATURITY, spot=spot, strike=strike), model)


def _draw_pool(config: FftConfig) -> tuple[list[dict], dict, dict]:
    pool, refs, discarded = [], {}, {}
    for kind, seed in POOL_SEEDS.items():
        rng = np.random.default_rng(seed)
        sample = inputs.sample_merton if kind == "merton" else inputs.sample_vg
        prefix = "pool_m" if kind == "merton" else "pool_v"
        counts = {"tail": 0, "oracle": 0}
        kept = 0
        while kept < inputs.POOL_SIZE:
            params = sample(rng)
            model = inputs.build_model(kind, params)
            if not _passes_tail(model, config):
                counts["tail"] += 1
                continue
            model_id = f"{prefix}{kept:02d}"
            cells = {}
            try:
                for t in inputs.POOL_T:
                    for k in inputs.POOL_K:
                        cells[inputs.ref_key(model_id, t, k)] = _oracle(model, 1.0, t, k)
            except LevyHedgeError:
                counts["oracle"] += 1
                continue
            pool.append({"id": model_id, "kind": kind, "params": params})
            refs.update(cells)
            kept += 1
        discarded[kind] = counts
    return pool, refs, discarded


def _curve_sha256(op, spec, workdir: Path) -> str:
    from levyhedge.cli import main

    cfg = workdir / f"{op.label}.cfg"
    out = workdir / f"{op.label}.csv"
    cfg.write_text(inputs.curve_config(op, spec), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["curve", "--config", str(cfg), "--set", f"output={out}"])
    if code != 0:
        raise SystemExit(f"curve {op.label} exited with {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> None:
    started = time.perf_counter()
    config = FftConfig(**inputs.FFT)
    pool, refs, discarded = _draw_pool(config)
    specs = inputs.model_specs({"pool": pool})
    models = {m: inputs.build_model(kind, params) for m, (kind, params, _) in specs.items()}
    for model_id, t, k in inputs.reference_cells(inputs.NAMED):
        key = inputs.ref_key(model_id, t, k)
        if key not in refs:
            refs[key] = _oracle(models[model_id], specs[model_id][2], t, k)
    scratch = BENCH_DIR.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        sha = {
            op.label: _curve_sha256(op, specs[op.model_id], Path(tmp))
            for op in (inputs.MERTON_CURVE, inputs.NIKKEI_CURVE)
        }
    out = {
        "generated_by": "bench/make_refs.py",
        "fft": inputs.FFT,
        "pool_seeds": POOL_SEEDS,
        "pool_discarded": discarded,
        "pool": pool,
        "curve_sha256": sha,
        "refs": dict(sorted(refs.items())),
    }
    inputs.REFS_PATH.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(
        f"wrote {len(refs)} references, {len(pool)} pool models "
        f"(discarded {discarded}) in {time.perf_counter() - started:.0f} s"
    )


if __name__ == "__main__":
    main()
