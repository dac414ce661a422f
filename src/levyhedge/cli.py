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
    _require_positive,
    time_to_maturity,
    validate_assumptions,
)
from .fft_engine import FftConfig, tail_condition_check
from .lrm import (
    LevySample,
    SliceColumns,
    _strike_array,
    check_moneyness,
    evaluate_slices,
    impact_quotes,
    jumped_moneyness,
    levy_sample,
    plan_slices,
    slice_trunc,
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


# per model.kind: its constructor and the keys of its arguments, model.<argument>
_MODELS = {
    "merton": (MertonParams, ("model.mu", "model.sigma", "model.gamma", "model.m", "model.delta")),
    "vg": (VgParams, ("model.kappa", "model.m", "model.delta")),
    "vg-cgm": (VgParams.from_cgm, ("model.C", "model.G", "model.M")),
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
}.union(*(keys for _, keys in _MODELS.values()))

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


def _parse_number(entries: dict[str, str], key: str, parse=float):
    """The value of ``key`` as ``parse`` (float or int) reads it."""
    try:
        return parse(entries[key])
    except KeyError:
        raise ConfigError(f"missing required key {key}")
    except ValueError:
        what = "an integer" if parse is int else "a number"
        raise ConfigError(f"key {key}: not {what}: {entries[key]!r}")


def _parse_grid(value: str, key: str) -> list[float]:
    """Either a comma list '1,2,3' or an inclusive range 'start:stop:step'."""
    try:
        if ":" in value:
            parts = [float(p) for p in value.split(":")]
            if len(parts) != 3:
                raise ValueError("need start:stop:step")
            start, stop, step = parts
            if not all(map(math.isfinite, parts)):
                raise ValueError("need finite start, stop and step")
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + step * i for i in range(count)]
        return [float(p) for p in value.split(",") if p.strip()]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"key {key}: bad grid spec {value!r} ({exc})")


def build_run_config(entries: dict[str, str]) -> RunConfig:
    merged = dict(_DEFAULTS)
    merged.update(entries)
    unknown = sorted(set(merged) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    kind = merged.get("model.kind")
    if kind not in _MODELS:
        raise ConfigError(f"model.kind must be one of {', '.join(_MODELS)} (got {kind!r})")
    constructor, keys = _MODELS[kind]
    try:
        model: Model = constructor(**{k[len("model."):]: _parse_number(merged, k) for k in keys})
        fft = FftConfig(
            n=_parse_number(merged, "fft.n", int),
            eta=_parse_number(merged, "fft.eta"),
            alpha=_parse_number(merged, "fft.alpha"),
            eps=_parse_number(merged, "fft.eps"),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc))

    for key in ("query.t", "query.strike"):
        if key in merged and f"{key}_grid" in merged:
            raise ConfigError(f"give {key} or {key}_grid, not both")
    # each as a grid, one value or none
    t_values, strikes = (
        _parse_grid(merged[f"{key}_grid"], f"{key}_grid") if f"{key}_grid" in merged
        else [_parse_number(merged, key)] if key in merged else []
        for key in ("query.t", "query.strike")
    )

    maturity = _parse_number(merged, "query.T") if "query.T" in merged else 1.0
    spot = _parse_number(merged, "query.spot")
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
        except (OSError, UnicodeDecodeError) as exc:
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


def _slices(cfg: RunConfig) -> tuple[LevySample, list[float]]:
    """The time slices of ``curve`` and ``validate``: after the spot check,
    the shared sample and one checked tau per t."""
    _require_positive("spot", cfg.spot)
    sample = levy_sample(cfg.model, cfg.fft)
    return sample, [time_to_maturity(t, cfg.maturity) for t in cfg.t_values]


def _worst_trunc_cell(cfg: RunConfig) -> tuple[float, float, float]:
    """Largest truncation requirement across the configured grid cells,
    with the strike and tau of its cell, from ``curve``'s plan, so every
    error but a tail failure, which the caller reports and which stops the
    plan, is the one ``curve`` raises."""
    (sample, taus), strikes = _slices(cfg), _strike_array(cfg.strikes)
    try:
        bounds = plan_slices(sample, taus, strikes, cfg.spot).trunc
    except TailConditionError:
        bounds = np.array([slice_trunc(sample, tau, strikes, cfg.spot).max(axis=0) for tau in taus])
    row, i = np.unravel_index(np.argmax(bounds), bounds.shape)
    return float(bounds[row, i]), float(strikes[i]), taus[row]


def cmd_validate(cfg: RunConfig, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    report = validate_assumptions(cfg.model)
    for cond in report.conditions:
        status = "PASS" if cond.passed else "FAIL"
        print(f"[{status}] {cond.name}: slack={_fmt(cond.slack)} ({cond.detail})", file=out)
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
    try:
        return open(cfg.output, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


def cmd_curve(cfg: RunConfig) -> int:
    _require_query(cfg)
    started = time.perf_counter()
    # every time slice is exp(tau Psi) over one shared contour sample; the
    # slices are evaluated together, as columns
    columns = evaluate_slices(*_slices(cfg), cfg.strikes, cfg.spot)
    computed = time.perf_counter()

    handle, owned = _open_output(cfg)
    try:
        handle.write(_curve_csv(cfg, columns))
    finally:
        if owned:
            handle.close()
    finished = time.perf_counter()
    cells = len(cfg.t_values) * len(cfg.strikes)
    elapsed = finished - started
    print(
        f"curve: {cells} cells in {elapsed:.3f} s ({finished - computed:.3f} s writing CSV, "
        f"{cells / elapsed:.0f} cells/s)",
        file=sys.stderr,
    )
    return EXIT_OK


def _curve_csv(cfg: RunConfig, columns: SliceColumns) -> str:
    """The CSV_COLUMNS header and one line per (t, K) cell, t-major.  Each
    field is formatted once where it can change: per run, per slice, per
    strike, per grid stride, and only trunc_bound, i1, i2 and lrm per
    cell.  No field holds a comma, a quote or a line break, so the lines
    are joined as they are, which is what csv.writer would write."""
    spot, fft = _fmt(cfg.spot), cfg.fft
    by_strike = [f"{_fmt(k)},{_fmt(k / cfg.spot)},{_fmt(fft.alpha)}," for k in cfg.strikes]
    by_stride = {
        stride: f"{fft.n // stride},{_fmt(fft.eta * stride)},"
        for stride in set(columns.stride.ravel().tolist())
    }
    blank = [""] * len(cfg.strikes)
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for row, t in enumerate(cfg.t_values):
        head = f"{cfg.kind},{_fmt(t)},{_fmt(cfg.maturity - t)},{spot},"
        i1 = blank if columns.i1 is None else map(_fmt, columns.i1[row].tolist())
        lines += [
            f"{head}{strike}{by_stride[stride]}{_fmt(trunc)},{columns.mode},{i1_text},"
            f"{_fmt(i2)},{_fmt(value)}\n"
            for strike, stride, trunc, i1_text, i2, value in zip(
                by_strike, columns.stride[row].tolist(), columns.trunc_a[row].tolist(), i1,
                columns.i2[row].tolist(), columns.lrm[row].tolist(),
            )
        ]
    return "".join(lines)


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
    started = time.perf_counter()
    # the checks curve applies to its cells
    query = MarketQuery(cfg.t_values[0], cfg.maturity, cfg.spot, cfg.strikes[0])
    base_m = query.moneyness
    check_moneyness(base_m, query.tau)
    try:
        jumped = [jumped_moneyness(base_m, y) for y in jump_sizes]
    except InvalidParameterError as exc:
        raise ConfigError(str(exc))
    # every moneyness is a single-strike quote on one slice at unit spot
    before, *afters = impact_quotes([base_m] + jumped, query.tau, cfg.model, cfg.fft)
    elapsed = time.perf_counter() - started

    # no field holds a comma, a quote or a line break (_curve_csv)
    lines = ["y,moneyness_before,moneyness_after,lrm_before,lrm_after,impact\n"]
    lines += [
        ",".join(map(_fmt, (y, base_m, moneyness, before, after, after - before))) + "\n"
        for y, moneyness, after in zip(jump_sizes, jumped, afters)
    ]
    handle, owned = _open_output(cfg)
    try:
        handle.write("".join(lines))
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
    except LevyHedgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
