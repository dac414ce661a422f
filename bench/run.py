#!/usr/bin/env python3
"""levyhedge benchmark: closed-loop workloads timed end to end, checked
against stored oracle references, and traced layer by layer.

    python3 bench/run.py --workload single_quote --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The line before the last is a JSON record with the environment,
sample counts, failing cells and CSV digests; the last line is the
result object.  Scratch files go to ``.bench_out/``.  RATIONALE.md in
this directory explains the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("single_quote", "strike_sweep", "curve_cli")
SETUP_PROBES = 9
# untimed operations before any timed loop, so that first calls and the
# start of the BLAS threads are not timed as steady state
WARMUP_S = 1.0
CHILD_TIMEOUT_S = 150
# ROADMAP north-star rows reproduced per workload, default and single-threaded
TABLE_LABELS = (
    "merton_quote",
    "nikkei_quote",
    "merton_sweep29",
    "nikkei_sweep11",
    "merton_sweep1000",
    "merton_curve580",
)
MERTON_QUOTES = ("merton_quote", "pool_merton_quote")

E2E_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import levyhedge from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import levyhedge

    if Path(levyhedge.__file__).resolve().parent != SRC / "levyhedge":
        raise SystemExit(f"error: imported levyhedge from {levyhedge.__file__}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    blas: dict = {}
    with contextlib.suppress(TypeError, AttributeError):
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "numpy": numpy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LRM_WORKERS"):
        env[var] = os.environ.get(var, "unset")
    env.update(
        cpu_count=os.cpu_count(), python=platform.python_version(), git_commit=_git_commit()
    )
    return env


class Phase:
    """Everything one timed loop observed."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds; inf for a failed op
        self.cycle_rates: list[float] = []  # completed cells / op time, per cycle
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.by_key: dict[str, list[float]] = defaultdict(list)
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.cells = 0
        self.failed_cells = 0
        self.checked = 0
        self.err_max = 0.0
        self.trunc_max = 0.0
        self.failures: list[str] = []
        self.op_spans: list[tuple[int, str]] = []

    @property
    def ok_cells(self) -> int:
        return self.cells - self.failed_cells

    def fail(self, n_cells: int, why: str) -> None:
        self.failed_cells += n_cells
        if len(self.failures) < 20:
            self.failures.append(why)


class Runner:
    """Builds a workload's inputs from the seed and runs its operations."""

    def __init__(self, workload: str, seed: int):
        import inputs
        import levyhedge
        from levyhedge.cli import main as cli_main

        self.lh, self.cli_main = levyhedge, cli_main
        refs = inputs.load_refs()
        self.refs = refs["refs"]
        self.curve_sha_at_refs = refs["curve_sha256"]
        self.specs = inputs.model_specs(refs)
        self.models = {m: inputs.build_model(k, p) for m, (k, p, _) in self.specs.items()}
        self.config = levyhedge.FftConfig(**inputs.FFT)
        self.cycles = inputs.build_cycles(workload, seed, self.specs)
        self.warmup = inputs.WARMUP[workload]
        self.tail_pct = inputs.TAIL_PERCENTILE[workload]
        ops = {op.key: op for cycle in self.cycles for op in cycle}
        ops[self.warmup.key] = self.warmup
        self.checks = {key: self._check_cells(op, inputs.ref_key) for key, op in ops.items()}
        self.workdir = OUT_DIR / f"{workload}-{os.getpid()}"
        self.curve_files = {}
        curve_ops = [op for op in ops.values() if op.kind == "curve"]
        if curve_ops:
            self.workdir.mkdir(parents=True, exist_ok=True)
        for op in curve_ops:
            self.curve_files[op.key] = self._write_curve_config(op, len(self.curve_files))
        self.curve_sha: dict[str, str] = {}

    def _check_cells(self, op, ref_key) -> list[tuple[int, float, float, float]]:
        """(output index, t, K, reference) of every cell with a stored reference."""
        out = []
        for i, t in enumerate(op.t_values):
            for j, k in enumerate(op.strikes):
                ref = self.refs.get(ref_key(op.model_id, t, k))
                if ref is not None:
                    out.append((i * len(op.strikes) + j, t, k, ref))
        return out

    def _write_curve_config(self, op, n: int) -> tuple[Path, Path]:
        import inputs

        cfg = self.workdir / f"surface{n}.cfg"
        cfg.write_text(inputs.curve_config(op, self.specs[op.model_id]), encoding="utf-8")
        return cfg, self.workdir / f"surface{n}.csv"

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- one operation -----------------------------------------------------

    def _call(self, op):
        lh, model = self.lh, self.models[op.model_id]
        spot = self.specs[op.model_id][2]
        if op.kind == "quote":
            query = lh.MarketQuery(t=op.t_values[0], T=1.0, spot=spot, strike=op.strikes[0])
            return [lh.lrm(query, model, self.config)]
        if op.kind == "sweep":
            return lh.lrm_strike_sweep(
                model, self.config, t=op.t_values[0], T=1.0, spot=spot, strikes=op.strikes
            )
        cfg, out = self.curve_files[op.key]
        return self.cli_main(["curve", "--config", str(cfg), "--set", f"output={out}"])

    def run_op(self, op, phase: Phase, tracer=None) -> None:
        span = tracer.begin_op() if tracer else -1
        with contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            try:
                result, error = self._call(op), None
            except self.lh.LevyHedgeError as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
        if tracer:
            tracer.end_op(span)
            phase.op_spans.append((span, op.label))
        if op.kind == "curve" and error is None and result != 0:
            error = f"curve exited with code {result}"
        phase.cells += op.cells
        phase.busy_s += elapsed
        latency = elapsed if error is None else math.inf
        phase.latencies.append(latency)
        phase.by_label[op.label].append(latency)
        phase.by_key[op.key].append(latency)
        if error is not None:
            phase.fail(op.cells, f"{op.label} {op.model_id} t={op.t_values[0]:g}: {error}")
        elif op.kind == "curve":
            self._check_curve(op, phase)
        else:
            self._check_values(op, phase, [(r.lrm, r.trunc_a) for r in result])

    def _check_values(self, op, phase: Phase, values: list[tuple[float, float]]) -> None:
        eps = self.config.eps
        span = self.config.grid_span
        bad = [i for i, (v, _) in enumerate(values) if not math.isfinite(v)]
        for i in bad:
            phase.fail(1, f"{op.label} {op.model_id} cell {i}: non-finite ratio")
        phase.trunc_max = max(phase.trunc_max, max(a for _, a in values) / span)
        for idx, t, k, ref in self.checks[op.key]:
            err = abs(values[idx][0] - ref)
            phase.checked += 1
            phase.err_max = max(phase.err_max, err)
            if err > eps and idx not in bad:
                phase.fail(1, f"{op.label} {op.model_id} t={t:g} K={k:g}: |lrm-oracle|={err:.3g}")

    def _check_curve(self, op, phase: Phase) -> None:
        """Byte-compare with the first repetition; check values once."""
        data = self.curve_files[op.key][1].read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        first = self.curve_sha.get(op.key)
        if first is not None:
            if sha != first:
                phase.fail(op.cells, f"{op.label} {op.model_id}: CSV bytes differ from first repetition")
            return
        self.curve_sha[op.key] = sha
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != op.cells:
            phase.fail(op.cells, f"{op.label} {op.model_id}: {len(rows)} rows, want {op.cells}")
            return
        self._check_values(op, phase, [(float(r["lrm"]), float(r["trunc_bound"])) for r in rows])

    # -- timed loops -------------------------------------------------------

    def _run_cycle(self, cycle, phase: Phase, tracer=None) -> None:
        busy, ok = phase.busy_s, phase.ok_cells
        for op in cycle:
            self.run_op(op, phase, tracer)
        phase.cycle_rates.append((phase.ok_cells - ok) / (phase.busy_s - busy))

    def run_for(self, seconds: float) -> Phase:
        """Whole cycles until at least ``seconds`` have passed."""
        phase = Phase()
        started = time.perf_counter()
        v = 0
        while v == 0 or time.perf_counter() - started < seconds:
            self._run_cycle(self.cycles[v % len(self.cycles)], phase)
            v += 1
        phase.wall_s = time.perf_counter() - started
        return phase

    def run_paired(self, tracer) -> tuple[Phase, Phase]:
        """Every cycle once untraced, then once traced: exactly one traced
        pass, so span counts repeat exactly, and adjacent untraced/traced
        pairs, so a drift in machine speed does not pose as tracing cost."""
        untraced, traced = Phase(), Phase()
        for cycle in self.cycles:
            self._run_cycle(cycle, untraced)
            tracer.install()
            try:
                self._run_cycle(cycle, traced, tracer)
            finally:
                tracer.uninstall()
        return untraced, traced


# -- statistics --------------------------------------------------------------


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile (nearest rank) and the number of samples beyond it."""
    ordered = sorted(latencies)
    idx = min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 1e12


def pass_throughput(phase: Phase, ops: list) -> float:
    """Completed cells per second of one pass over every cycle, each
    operation timed by its median over the run: a stall in a minority of
    calls shows in ``op_tail_ms``, not here."""
    ops = [op for op in ops if op.key in phase.by_key]
    seconds = sum(statistics.median(phase.by_key[op.key]) for op in ops)
    return phase.ok_cells / phase.cells * sum(op.cells for op in ops) / seconds


def end_to_end(
    phase: Phase, setup: list[float] | None, tail_pct: float, ops: list
) -> tuple[dict, dict]:
    tail_s, beyond = tail(phase.latencies, tail_pct)
    values = {
        "cells_per_s": pass_throughput(phase, ops),
        "op_p50_ms": 1e3 * statistics.median(phase.latencies),
        "op_tail_ms": 1e3 * tail_s,
        "ok_frac": phase.ok_cells / phase.cells,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup:
        values["setup_s"] = statistics.median(setup)
    samples = {
        "ops": len(phase.latencies),
        "cells": phase.cells,
        "cycles": len(phase.cycle_rates),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "setup_probes_s": setup or [],
        "run_wall_s": phase.wall_s,
    }
    return {k: _finite(v) for k, v in values.items()}, samples


def label_p50_ms(phase: Phase) -> dict[str, float]:
    return {label: _finite(1e3 * statistics.median(v)) for label, v in sorted(phase.by_label.items())}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("cells_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".calls", ".points", ".builds")):
        return "count"
    if name == "oracle.err_max":
        return "abs"
    return "ratio"


def per_layer(tracer, traced: Phase, untraced: Phase, st_record: dict) -> dict[str, float]:
    layers = tracer.layers()

    def get(layer: str, field: str) -> float:
        return layers.get(layer, {}).get(field, 0)

    m: dict[str, float] = {}
    for layer in ("fft_engine.direct", "merton.char_fn", "variance_gamma.char_fn", "fft_engine.grid"):
        for field in ("calls", "points", "s"):
            m[f"{layer}.{field}"] = get(layer, field)
    m["merton.kernel.s"] = get("merton.kernel", "s")
    m["variance_gamma.kernel.s"] = get("variance_gamma.kernel", "s")
    m["lrm.context.builds"] = get("lrm.context", "calls")
    m["lrm.context.self_s"] = get("lrm.context", "self_s")
    m["fft_engine.radix2.s"] = get("fft_engine.radix2", "s")
    m["fft_engine.interp.calls"] = get("fft_engine.interp", "calls")
    m["fft_engine.interp.s"] = get("fft_engine.interp", "s")
    m["lrm.assemble.self_s"] = get("lrm.assemble", "self_s")
    for layer in ("merton.trunc", "variance_gamma.trunc", "core.mmm"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.s"] = get(layer, "s")

    slices = tracer.spans_of("cli.slice")
    per_op: dict[int, list[float]] = {}
    for op, _, t0, t1 in slices:
        lo, hi = per_op.get(op, (t0, t1))
        per_op[op] = (min(lo, t0), max(hi, t1))
    wall = sum(hi - lo for lo, hi in per_op.values())
    busy = get("cli.slice", "s")
    workers = int(os.environ.get("LRM_WORKERS") or os.cpu_count() or 1)
    m["cli.parse.s"] = get("cli.parse", "s")
    m["cli.slices.wall_s"] = wall
    m["cli.slices.busy_s"] = busy
    m["cli.pool.eff"] = busy / (wall * workers) if wall else 0.0
    m["cli.csv.s"] = get("cli.csv", "s")
    m["cli.csv.bytes"] = get("cli.csv", "points")

    direct_calls = get("fft_engine.direct", "calls")
    computed = get("fft_engine.grid", "points") + direct_calls
    used = get("fft_engine.interp", "calls") + direct_calls
    m["fft_engine.grid.used_frac"] = used / computed if computed else 0.0
    m["fft_engine.span_needed_frac"] = max(traced.trunc_max, untraced.trunc_max)

    merton_ops = {span for span, label in traced.op_spans if label in MERTON_QUOTES}
    op_time = sum(tracer.t1[span] - tracer.t0[span] for span in merton_ops)
    direct_in_merton = sum(
        t1 - t0 for op, _, t0, t1 in tracer.spans_of("fft_engine.direct") if op in merton_ops
    )
    m["fft_engine.direct.merton_quote_share"] = direct_in_merton / op_time if op_time else 0.0

    m["oracle.err_max"] = max(traced.err_max, untraced.err_max, st_record["oracle_err_max"])
    m["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(traced.cycle_rates, untraced.cycle_rates)
    ) - 1.0
    st_metrics = st_record["metrics"]
    m["st_ref.cells_per_s"] = st_metrics["cells_per_s"]["value"]
    m["st_ref.op_p50_ms"] = st_metrics["op_p50_ms"]["value"]
    default_rows, st_rows = label_p50_ms(untraced), st_record["label_p50_ms"]
    for label in TABLE_LABELS:
        m[f"table.{label}.default_ms"] = default_rows.get(label, 0.0)
        m[f"table.{label}.st_ms"] = st_rows.get(label, 0.0)
    return m


# -- child processes ---------------------------------------------------------


def _child(args: list[str], env: dict | None = None) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env=env,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def setup_times(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up, measured inside each probe process."""
    return [
        float(_child(["--workload", workload, "--seed", str(seed), "--setup-probe"])[-1])
        for _ in range(SETUP_PROBES)
    ]


def single_thread_reference(workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", LRM_WORKERS="1")
    lines = _child(
        ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", "0", "--st-ref"],
        env,
    )
    record = json.loads(lines[-2])["record"]
    record["result"] = json.loads(lines[-1])
    return record


# -- entry points ------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> int:
    started = time.perf_counter()
    _import_package()
    runner = Runner(workload, seed)
    try:
        runner.run_op(runner.warmup, Phase())
        print(time.perf_counter() - started)
    finally:
        runner.close()
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, st_ref: bool) -> int:
    # probes first, while this process has no BLAS threads that could
    # compete with them for the cores
    setup = setup_times(workload, seed) if not (trace or st_ref) else None
    _import_package()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
    }
    runner = Runner(workload, seed)
    try:
        runner.run_op(runner.warmup, Phase())
        phases = [runner.run_for(WARMUP_S)]
        child_attempted = child_failed = 0
        if trace:
            from spans import Tracer

            tracer = Tracer()
            untraced, traced = runner.run_paired(tracer)
            st = single_thread_reference(workload, seed, seconds / 2)
            child_attempted, child_failed = st["result"]["attempted"], st["result"]["failed"]
            phases += [untraced, traced]
            metrics = per_layer(tracer, traced, untraced, st)
            units = {name: layer_unit(name) for name in metrics}
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{workload}.tsv.gz"
            tracer.write(trace_file)
            record.update(
                samples={"traced_ops": len(traced.latencies), "untraced_ops": len(untraced.latencies)},
                trace_file=str(trace_file.relative_to(ROOT)),
                trace_spans=len(tracer.t0),
                trace_missing=tracer.missing,
                single_thread_reference={
                    "environment": st["environment"], "label_p50_ms": st["label_p50_ms"]
                },
            )
        else:
            main_phase = runner.run_for(seconds)
            phases.append(main_phase)
            ops = [op for cycle in runner.cycles for op in cycle]
            metrics, samples = end_to_end(main_phase, setup, runner.tail_pct, ops)
            units = E2E_UNITS
            record.update(samples=samples, label_p50_ms=label_p50_ms(main_phase))
        attempted = sum(p.cells for p in phases) + child_attempted
        failed = sum(p.failed_cells for p in phases) + child_failed
        checked = sum(p.checked for p in phases)
        labels = {key: key.split("|")[0] for key in runner.curve_sha}
        record.update(
            metrics={name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            failed_frac=failed / attempted,
            failed_cells=[f for p in phases for f in p.failures],
            checked_cells=checked,
            oracle_err_max=max(p.err_max for p in phases),
            tolerance=runner.config.eps,
            csv_sha256=runner.curve_sha,
            csv_sha256_same_as_refs={
                labels[key]: sha == runner.curve_sha_at_refs[labels[key]]
                for key, sha in runner.curve_sha.items()
                if labels[key] in runner.curve_sha_at_refs
            },
        )
    finally:
        runner.close()
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and checked > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table."""
    records, results = {}, {}
    for workload in WORKLOADS:
        lines = _child(
            ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
             "--trace", str(int(trace))]
        )
        records[workload] = json.loads(lines[-2])["record"]
        results[workload] = json.loads(lines[-1])
    print("environment: " + json.dumps(records[WORKLOADS[0]]["environment"]))
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':40} {'unit':6} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        row = " ".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:40} {unit:6} {row}")
    for w in WORKLOADS:
        rec = records[w]
        print(
            f"{w}: samples {json.dumps(rec['samples'])}; failed_frac {rec['failed_frac']:.6g}; "
            f"checked {rec['checked_cells']} cells, oracle err max {rec['oracle_err_max']:.3g}; "
            f"failing cells {rec['failed_cells'] or 'none'}"
        )
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": value for w, r in results.items() for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-process set-up measurement
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # internal: the unscored single-threaded reference pass of a traced run
    parser.add_argument("--st-ref", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "levyhedge" / "__init__.py").is_file():
        print(f"error: no levyhedge package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        return probe_setup(args.workload, args.seed)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.st_ref)


if __name__ == "__main__":
    sys.exit(main())
