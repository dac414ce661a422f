"""Command-line front end.

Three subcommands:

* ``validate`` prints the model admissibility conditions with their
  slacks and the frequency-truncation requirement against the grid span.
* ``curve`` sweeps the (t, K) grid of the run configuration and emits
  one CSV row per cell.
* ``impact`` tabulates hedge-ratio changes for a list of jump sizes.

Run configuration is a flat key-value text file with dotted section keys
(``model.kind = merton``, ``fft.n = 16384`` ...); ``--set KEY=VALUE``
flags override file keys.  Exit codes: 0 success, 1 validation or tail
failure, 2 usage/parse error.  Timing goes to stderr, never into the
CSV.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .core import (
    InvalidParameterError,
    LevyHedgeError,
    MarketQuery,
    MertonParams,
    Model,
    TailConditionError,
    VgParams,
    mmm_quantities,
    time_to_maturity,
    validate_assumptions,
)
from .fft_engine import FftConfig, tail_condition_check
from .lrm import (
    LevySample,
    LrmResult,
    MoneynessQuery,
    SliceBounds,
    TransformContext,
    moneyness_slice,
    tail_hint,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2

CSV_COLUMNS = (
    "model",
    "t",
    "tau",
    "spot",
    "strike",
    "moneyness",
    "alpha",
    "n",
    "eta",
    "trunc_bound",
    "mode",
    "i1",
    "i2",
    "lrm",
)


class ConfigError(LevyHedgeError, ValueError):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    kind: str
    model: Model
    fft: FftConfig
    t_values: list[float]
    strikes: list[float]
    spot: float
    maturity: float
    output: str = "stdout"


_MODEL_KEYS = {
    "merton": ("model.mu", "model.sigma", "model.gamma", "model.m", "model.delta"),
    "vg": ("model.kappa", "model.m", "model.delta"),
    "vg-cgm": ("model.C", "model.G", "model.M"),
}
_KNOWN_KEYS = {
    "model.kind",
    "fft.n",
    "fft.eta",
    "fft.alpha",
    "fft.eps",
    "query.t",
    "query.t_grid",
    "query.strike",
    "query.strike_grid",
    "query.spot",
    "query.T",
    "output",
}.union(*_MODEL_KEYS.values())

_DEFAULTS = {
    "fft.n": "16384",
    "fft.eta": "0.025",
    "fft.alpha": "1.75",
    "fft.eps": "0.01",
    "query.spot": "1",
    "output": "stdout",
}


def parse_key_values(text: str, source: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        out[key] = value
    return out


def _parse_float(entries: dict[str, str], key: str) -> float:
    try:
        return float(entries[key])
    except KeyError:
        raise ConfigError(f"missing required key {key}")
    except ValueError:
        raise ConfigError(f"key {key}: not a number: {entries[key]!r}")


def _parse_int(entries: dict[str, str], key: str) -> int:
    try:
        return int(entries[key])
    except KeyError:
        raise ConfigError(f"missing required key {key}")
    except ValueError:
        raise ConfigError(f"key {key}: not an integer: {entries[key]!r}")


def _parse_grid(value: str, key: str) -> list[float]:
    """Either a comma list '1,2,3' or an inclusive range 'start:stop:step'."""
    try:
        if ":" in value:
            parts = [float(p) for p in value.split(":")]
            if len(parts) != 3:
                raise ValueError("need start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + step * i for i in range(count)]
        return [float(p) for p in value.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"key {key}: bad grid spec {value!r} ({exc})")


def build_run_config(entries: dict[str, str]) -> RunConfig:
    merged = dict(_DEFAULTS)
    merged.update(entries)
    unknown = sorted(set(merged) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    kind = merged.get("model.kind")
    if kind not in _MODEL_KEYS:
        raise ConfigError(
            f"model.kind must be one of merton, vg, vg-cgm (got {kind!r})"
        )
    try:
        if kind == "merton":
            model: Model = MertonParams(
                mu=_parse_float(merged, "model.mu"),
                sigma=_parse_float(merged, "model.sigma"),
                gamma=_parse_float(merged, "model.gamma"),
                m=_parse_float(merged, "model.m"),
                delta=_parse_float(merged, "model.delta"),
            )
        elif kind == "vg":
            model = VgParams(
                kappa=_parse_float(merged, "model.kappa"),
                m=_parse_float(merged, "model.m"),
                delta=_parse_float(merged, "model.delta"),
            )
        else:
            model = VgParams.from_cgm(
                C=_parse_float(merged, "model.C"),
                G=_parse_float(merged, "model.G"),
                M=_parse_float(merged, "model.M"),
            )
        fft = FftConfig(
            n=_parse_int(merged, "fft.n"),
            eta=_parse_float(merged, "fft.eta"),
            alpha=_parse_float(merged, "fft.alpha"),
            eps=_parse_float(merged, "fft.eps"),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc))

    if "query.t" in merged and "query.t_grid" in merged:
        raise ConfigError("give query.t or query.t_grid, not both")
    if "query.strike" in merged and "query.strike_grid" in merged:
        raise ConfigError("give query.strike or query.strike_grid, not both")
    if "query.t_grid" in merged:
        t_values = _parse_grid(merged["query.t_grid"], "query.t_grid")
    elif "query.t" in merged:
        t_values = [_parse_float(merged, "query.t")]
    else:
        t_values = []
    if "query.strike_grid" in merged:
        strikes = _parse_grid(merged["query.strike_grid"], "query.strike_grid")
    elif "query.strike" in merged:
        strikes = [_parse_float(merged, "query.strike")]
    else:
        strikes = []

    maturity = _parse_float(merged, "query.T") if "query.T" in merged else 1.0
    spot = _parse_float(merged, "query.spot")
    return RunConfig(
        kind=kind,
        model=model,
        fft=fft,
        t_values=t_values,
        strikes=strikes,
        spot=spot,
        maturity=maturity,
        output=merged["output"],
    )


def load_run_config(config_path: Optional[str], overrides: Sequence[str]) -> RunConfig:
    entries: dict[str, str] = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                entries.update(parse_key_values(handle.read(), config_path))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        entries[key] = value
    return build_run_config(entries)


def _fmt(value: float) -> str:
    """Round-trip-safe, locale-free numeric formatting."""
    return f"{value:.17g}"


def _require_query(cfg: RunConfig) -> None:
    if not cfg.t_values or not cfg.strikes:
        raise ConfigError("the command needs query.t/t_grid and query.strike/strike_grid")


def _worst_trunc_cell(cfg: RunConfig) -> tuple[float, float, float]:
    """Largest truncation requirement across the configured grid cells,
    with the strike and tau of its cell.  Each cell is checked as a
    MarketQuery first (finite t, T, spot and strike, spot and strike > 0,
    tau >= TAU_MIN), the checks ``curve`` applies."""
    mmm = mmm_quantities(cfg.model)
    worst: Optional[tuple[float, float, float]] = None
    for t in cfg.t_values:
        queries = [MarketQuery(t, cfg.maturity, cfg.spot, strike) for strike in cfg.strikes]
        strikes = np.array([query.strike for query in queries])
        bounds = SliceBounds(cfg.model, mmm, cfg.fft, queries[0].tau, cfg.spot)(strikes).max(axis=0)
        i = int(np.argmax(bounds))
        if worst is None or bounds[i] > worst[0]:
            worst = (float(bounds[i]), queries[i].strike, queries[i].tau)
    return worst


def cmd_validate(cfg: RunConfig, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    report = validate_assumptions(cfg.model)
    for cond in report.conditions:
        status = "PASS" if cond.passed else "FAIL"
        slack = "inf" if math.isinf(cond.slack) else _fmt(cond.slack)
        print(f"[{status}] {cond.name}: slack={slack} ({cond.detail})", file=out)
    ok = report.passed
    if ok and cfg.t_values and cfg.strikes:
        bound, strike, tau = _worst_trunc_cell(cfg)
        tail_ok = tail_condition_check(cfg.fft, bound)
        line = (
            f"[{'PASS' if tail_ok else 'FAIL'}] tail condition: N*eta = "
            f"{_fmt(cfg.fft.grid_span)} >= required truncation {_fmt(bound)} "
            f"at K = {strike:g}, tau = {tau:g}"
        )
        if not tail_ok:
            line += f"; {tail_hint(cfg.fft, bound)}"
        print(line, file=out)
        ok = ok and tail_ok
    return EXIT_OK if ok else EXIT_VALIDATION


def _open_output(cfg: RunConfig):
    if cfg.output == "stdout":
        return sys.stdout, False
    return open(cfg.output, "w", encoding="utf-8", newline=""), True


def cmd_curve(cfg: RunConfig) -> int:
    _require_query(cfg)
    started = time.perf_counter()
    # every time slice is exp(tau Psi) over one shared contour sample,
    # taken once at the finest stride and over the longest span any slice
    # reads; each slice then works on views of it
    sample = LevySample(cfg.model, cfg.fft, cfg.spot)
    slices = [TransformContext(sample, time_to_maturity(t, cfg.maturity)) for t in cfg.t_values]
    reach = [ctx.reach(cfg.strikes) for ctx in slices]
    sample.cover(min(shift for shift, _ in reach), max(last for _, last in reach))
    per_slice = []
    for i, ctx in enumerate(slices):
        per_slice.append(ctx.evaluate(cfg.strikes))
        slices[i] = None  # its arrays and grids are done with
    elapsed = time.perf_counter() - started

    handle, owned = _open_output(cfg)
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for t, results in zip(cfg.t_values, per_slice):
            for strike, res in zip(cfg.strikes, results):
                writer.writerow(_row(cfg, t, strike, res))
    finally:
        if owned:
            handle.close()
    cells = len(cfg.t_values) * len(cfg.strikes)
    print(f"curve: {cells} cells in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def _row(cfg: RunConfig, t: float, strike: float, res: LrmResult) -> list[str]:
    return [
        cfg.kind,
        _fmt(t),
        _fmt(cfg.maturity - t),
        _fmt(cfg.spot),
        _fmt(strike),
        _fmt(strike / cfg.spot),
        _fmt(cfg.fft.alpha),
        str(cfg.fft.n // res.stride),
        _fmt(cfg.fft.eta * res.stride),
        _fmt(res.trunc_a),
        res.mode,
        "" if res.i1 is None else _fmt(res.i1),
        _fmt(res.i2),
        _fmt(res.lrm),
    ]


def cmd_impact(cfg: RunConfig, jump_sizes: Sequence[float]) -> int:
    if not jump_sizes:
        raise ConfigError("impact needs at least one jump size (--y)")
    if not all(math.isfinite(y) for y in jump_sizes):
        raise ConfigError("jump sizes must be finite")
    if any(y == 0.0 for y in jump_sizes):
        raise ConfigError("jump sizes must be nonzero")
    _require_query(cfg)
    if len(cfg.t_values) != 1 or len(cfg.strikes) != 1:
        raise ConfigError("impact needs exactly one query.t and one query.strike")
    t, strike = cfg.t_values[0], cfg.strikes[0]
    tau = cfg.maturity - t
    base_m = strike / cfg.spot
    started = time.perf_counter()
    # every moneyness is a single-strike query on one shared unit-spot slice
    ctx = moneyness_slice(cfg.model, cfg.fft, MoneynessQuery(base_m, tau).tau)
    before = ctx.evaluate([base_m])[0].lrm
    afters = [ctx.evaluate([base_m * math.exp(-y)])[0].lrm for y in jump_sizes]
    elapsed = time.perf_counter() - started

    handle, owned = _open_output(cfg)
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ("y", "moneyness_before", "moneyness_after", "lrm_before", "lrm_after", "impact")
        )
        for y, after in zip(jump_sizes, afters):
            writer.writerow(
                [
                    _fmt(y),
                    _fmt(base_m),
                    _fmt(base_m * math.exp(-y)),
                    _fmt(before),
                    _fmt(after),
                    _fmt(after - before),
                ]
            )
    finally:
        if owned:
            handle.close()
    print(f"impact: {len(jump_sizes)} jumps in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyhedge",
        description="Quadratic-hedging ratios for exponential Levy models "
        "computed with damped Fourier transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("validate", "check model admissibility and the grid tail condition"),
        ("curve", "sweep the (t, K) grid and emit CSV rows"),
        ("impact", "tabulate hedge-ratio changes for given jump sizes"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="run-configuration file (key = value lines)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key; repeatable",
        )
        if name == "impact":
            p.add_argument(
                "--y",
                dest="jumps",
                action="append",
                default=[],
                metavar="SIZE[,SIZE...]",
                help="log-price jump size(s); repeatable or comma separated",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.overrides)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "curve":
            return cmd_curve(cfg)
        jumps: list[float] = []
        for item in args.jumps:
            for piece in str(item).split(","):
                piece = piece.strip()
                if piece:
                    try:
                        jumps.append(float(piece))
                    except ValueError:
                        raise ConfigError(f"bad jump size {piece!r}")
        return cmd_impact(cfg, jumps)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TailConditionError, LevyHedgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
