import csv
import importlib
import io
import math
import re

import pytest

from levyhedge.cli import (
    CSV_COLUMNS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    build_run_config,
    main,
    parse_key_values,
)
from levyhedge import MarketQuery, jump_impact, lrm
from levyhedge.lrm import LevySample, _shared_sample, lrm_strike_sweep

MERTON_CFG = """
model.kind = merton
model.mu = -0.7
model.sigma = 0.2
model.gamma = 1
model.m = 0
model.delta = 1
fft.n = 16384
fft.eta = 0.025
fft.alpha = 1.75
fft.eps = 0.01
query.T = 1
query.spot = 1
"""

# the random Merton pool model of the benchmark (drawn as conftest draws)
# whose curve slices take strides 1, 2 and 4
POOL_M07_CFG = """
model.kind = merton
model.mu = -4.458045754926255
model.sigma = 0.27144499968954855
model.gamma = 1.7423072206462715
model.m = 0.36116203539425684
model.delta = 0.6870599913102832
query.T = 1
query.spot = 1
"""

VG_CFG = """
model.kind = vg
model.kappa = 0.15
model.m = -0.2
model.delta = 0.45
query.T = 1
query.spot = 1
"""

NIKKEI_CFG = """
model.kind = vg-cgm
model.C = 2.469395026815120
model.G = 23.743109051760964
model.M = 24.903251787154687
query.T = 1
query.spot = 14841.07
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rows(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def test_parse_key_values_comments_and_errors():
    entries = parse_key_values("a.b = 1  # trailing\n\n# full line\nc = x\n", "inline")
    assert entries == {"a.b": "1", "c": "x"}
    from levyhedge.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_key_values("not a pair\n", "inline")


def test_validate_merton_bench(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    code = main(["validate", "--config", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("[PASS]") == 4  # three conditions + tail check
    assert "409.6" in out


def test_validate_names_worst_cell(tmp_path, capsys):
    grid = "query.t_grid = 0,0.5\nquery.strike_grid = 0.5,1,2\n"
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + grid)
    assert main(["validate", "--config", cfg]) == EXIT_OK
    assert "at K = 0.5, tau = 0.5\n" in capsys.readouterr().out
    assert main(["validate", "--config", cfg, "--set", "fft.n=64"]) == EXIT_VALIDATION
    tail_line = capsys.readouterr().out.splitlines()[-1]
    assert tail_line.startswith("[FAIL] tail condition: N*eta = ")
    assert tail_line.endswith(
        "at K = 0.5, tau = 0.5; enlarge n or eta (n = 2048 at eta = 0.025 covers it)"
    )


@pytest.mark.parametrize(
    "override, message",
    [
        ("query.strike=0", "strike must be > 0"),
        ("query.spot=0", "spot must be > 0"),
        ("query.strike=-1", "strike must be > 0"),
        ("query.strike=nan", "strike must be finite"),
        # curve builds its slices before it checks its strikes
        ("query.strike_grid=0,1 query.t_grid=0:1:0.5",
         "time to maturity 0 is below the supported minimum"),
    ],
)
def test_validate_rejects_bad_query(tmp_path, capsys, override, message):
    # the checks curve applies to its cells, in curve's order, on the cell
    # t = 0.5, K = 1 unless the override gives a grid
    cell = "".join(
        f"{key} = {value}\n" for key, value in (("query.t", 0.5), ("query.strike", 1))
        if f"{key}_grid=" not in override
    )
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + cell)
    sets = [flag for pair in override.split() for flag in ("--set", pair)]
    for command in ("validate", "curve"):
        assert main([command, "--config", cfg] + sets) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert "[PASS] tail condition" not in captured.out


def test_validate_vg_m_too_small(capsys):
    code = main(
        [
            "validate",
            "--set", "model.kind=vg-cgm",
            "--set", "model.C=1",
            "--set", "model.G=2",
            "--set", "model.M=3",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_VALIDATION
    assert "[FAIL]" in out
    assert "M > 4" in out


def test_validate_malformed_config(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "model.kind = merton\nmodel.sigma = abc\n")
    assert main(["validate", "--config", bad]) == EXIT_USAGE
    assert main(["validate", "--set", "model.kind=unknown"]) == EXIT_USAGE
    assert main(["validate", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE
    assert main(["validate", "--set", "bogus.key=1", "--set", "model.kind=merton"]) == EXIT_USAGE
    # an infinite spacing would pass the tail check with N*eta = inf
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    capsys.readouterr()
    for command in ("validate", "curve"):
        assert main([command, "--config", cfg, "--set", "fft.eta=inf"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: eta must be finite")
        assert "tail condition" not in captured.out
    # a config file not in UTF-8
    latin = tmp_path / "latin.cfg"
    latin.write_bytes(b"model.kind = merton # \xe9\n")
    assert main(["validate", "--config", str(latin)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot read config file")
    # a range grid needs a finite start, stop and step, and a count that fits
    base = _write(tmp_path, "base.cfg", MERTON_CFG)
    for grid in ("0:inf:1", "-inf:1:1", "0:1:inf", "0:1e300:1e-300"):
        assert main(["validate", "--config", base, "--set", f"query.t_grid={grid}"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: key query.t_grid: bad grid spec '{grid}'")
    # an output that cannot be opened, after the computation
    for output in (tmp_path / "missing" / "out.csv", tmp_path):
        for argv in (["curve"], ["impact", "--y", "0.1"]):
            assert main(argv + ["--config", cfg, "--set", f"output={output}"]) == EXIT_USAGE
            assert capsys.readouterr().err.startswith("error: cannot write output")


def test_curve_strike_sweep(tmp_path, capsys):
    cfg = _write(
        tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike_grid = 1:8:0.25\n"
    )
    code = main(["curve", "--config", cfg])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = _rows(captured.out)
    assert len(rows) == 29
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    lrms = [float(r["lrm"]) for r in rows]
    assert all(b < a for a, b in zip(lrms, lrms[1:]))
    assert all(r["mode"] == "fft-grid" for r in rows)
    assert "cells in" in captured.err
    assert re.fullmatch(
        r"curve: 29 cells in \d+\.\d{3} s \(\d+\.\d{3} s writing CSV, \d+ cells/s\)\n", captured.err
    )


def test_curve_time_grid(tmp_path, capsys):
    cfg = _write(
        tmp_path, "m.cfg", MERTON_CFG + "query.t_grid = 0:0.95:0.05\nquery.strike = 1\n"
    )
    assert main(["curve", "--config", cfg]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 20
    assert all(0.0 < float(r["lrm"]) < 1.0 for r in rows)
    assert [float(r["t"]) for r in rows] == pytest.approx(
        [0.05 * i for i in range(20)]
    )


def test_curve_vg_nikkei(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "n.cfg",
        NIKKEI_CFG + "query.t = 0.5\nquery.strike_grid = 10000:20000:1000\n",
    )
    assert main(["curve", "--config", cfg]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 11
    assert all(r["i1"] == "" for r in rows)  # no diffusive leg
    assert all(r["model"] == "vg-cgm" for r in rows)
    lrms = [float(r["lrm"]) for r in rows]
    assert all(b < a for a, b in zip(lrms, lrms[1:]))


def test_curve_byte_stability(tmp_path, capsys):
    # two runs to files and one to stdout write the same bytes: the
    # header, then rows whose i1 is empty for variance gamma
    cases = (
        (MERTON_CFG, "query.t_grid = 0.1,0.5,0.9\nquery.strike_grid = 1:2:0.5\n"),
        (NIKKEI_CFG, "query.t_grid = 0.2,0.6\nquery.strike_grid = 12000:18000:1000\n"),
    )
    for base, grids in cases:
        cfg = _write(tmp_path, "m.cfg", base + grids)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["curve", "--config", cfg, "--set", f"output={out1}"]) == EXIT_OK
        assert main(["curve", "--config", cfg, "--set", f"output={out2}"]) == EXIT_OK
        capsys.readouterr()
        assert main(["curve", "--config", cfg]) == EXIT_OK
        printed = capsys.readouterr().out.encode("utf-8")
        assert out1.read_bytes() == out2.read_bytes() == printed
        assert len(out1.read_bytes()) > 0
        header, *lines = printed.decode("utf-8").split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert lines.pop() == "" and len(lines) > 0
        i1_fields = [line.split(",")[CSV_COLUMNS.index("i1")] for line in lines]
        assert all((field == "") == (base is NIKKEI_CFG) for field in i1_fields)


T20 = "query.t_grid = 0:0.95:0.05\n"


@pytest.mark.parametrize(
    "base, grids, grid_points",
    [
        (MERTON_CFG, "query.t_grid = 0.1,0.5,0.9\nquery.strike_grid = 1:2:0.25\n", None),
        (MERTON_CFG, "query.t_grid = 0:0.6:0.3\nquery.strike_grid = 0.9,1.1\n", None),
        (NIKKEI_CFG, "query.t_grid = 0.2,0.6\nquery.strike_grid = 12000,15000,18000\n", None),
        (POOL_M07_CFG, T20 + "query.strike_grid = 1:8:0.25\n", {4096, 8192, 16384}),
        (VG_CFG, T20 + "query.strike_grid = 0.7:1.3:0.05\n", None),
        (POOL_M07_CFG, T20 + "query.strike_grid = 0.85,1,1.15\n", {4096, 8192, 16384}),
        (VG_CFG, T20 + "query.strike_grid = 0.85,1,1.15\n", {4096}),
    ],
    ids=[
        "merton-grid", "merton-direct", "nikkei-direct", "merton-strides-grid", "vg-grid",
        "merton-strides-direct", "vg-direct",
    ],
)
def test_curve_cells_equal_strike_sweep(tmp_path, capsys, base, grids, grid_points):
    # the shared contour sample, and grid slices transformed in blocks, give
    # every cell the bits of a fresh sweep of its slice alone
    cfg_text = base + grids
    assert main(["curve", "--config", _write(tmp_path, "c.cfg", cfg_text)]) == EXIT_OK
    rows = _rows(capsys.readouterr().out)
    cfg = build_run_config(parse_key_values(cfg_text, "inline"))
    expected = []
    for t in cfg.t_values:
        expected += lrm_strike_sweep(
            cfg.model, cfg.fft, t=t, T=cfg.maturity, spot=cfg.spot, strikes=cfg.strikes
        )
    assert len(rows) == len(expected)
    for row, res in zip(rows, expected):
        i1_cell = None if row["i1"] == "" else float(row["i1"])
        assert (i1_cell, float(row["i2"]), float(row["lrm"])) == (res.i1, res.i2, res.lrm)
        assert (float(row["trunc_bound"]), row["mode"]) == (res.trunc_a, res.mode)
        assert int(row["n"]) == cfg.fft.n // res.stride
    if grid_points is not None:
        assert {int(row["n"]) for row in rows} == grid_points


def test_curve_overflow_guard_exit(tmp_path, capsys):
    # tau = 300 pushes Re(tau Psi) past the exp() guard on the curve path
    long_cfg = MERTON_CFG.replace("query.T = 1", "query.T = 300")
    cfg = _write(tmp_path, "m.cfg", long_cfg + "query.t = 0\nquery.strike = 1\n")
    assert main(["curve", "--config", cfg]) == EXIT_VALIDATION
    assert "characteristic exponent" in capsys.readouterr().err
    # at T = 50 the Nikkei envelope C2 passes the same guard, on curve and
    # validate alike: exit 1 and one error line, no traceback
    nikkei_cfg = NIKKEI_CFG.replace("query.T = 1", "query.T = 50")
    cfg = _write(tmp_path, "n.cfg", nikkei_cfg + "query.t = 0\nquery.strike = 15000\n")
    for command in ("curve", "validate"):
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["error: C2 exponent 788 exceeds 700"]


def test_validate_overflow_matches_curve(tmp_path, capsys):
    # validate builds its slices as curve does, so an overflowing tau
    # prints the line curve prints
    long_cfg = MERTON_CFG.replace("query.T = 1", "query.T = 300")
    cfg = _write(tmp_path, "m.cfg", long_cfg + "query.t = 0\nquery.strike = 1\n")
    lines = []
    for command in ("curve", "validate"):
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == "error: characteristic exponent real part 809 exceeds 700\n"


def test_input_checks_come_before_slice_guards(tmp_path, capsys):
    # every t is checked before any slice's exp() guard: the t = 0 slice of
    # T = 300 overflows, but t = 300 is at expiry, and that is reported
    long_cfg = MERTON_CFG.replace("query.T = 1", "query.T = 300")
    cfg = _write(tmp_path, "m.cfg", long_cfg + "query.t_grid = 0:400:100\nquery.strike = 1\n")
    for command in ("curve", "validate"):
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: time to maturity 0 is below the supported minimum 1e-06; "
            "truncation bounds diverge at expiry\n"
        )


def test_validate_range_matches_curve(tmp_path, capsys):
    # validate applies curve's log-strike range rule: an I2 term of this
    # model shifts log K up by 0.26, past pi/eta for the second strike
    keys = MERTON_CFG.replace("model.mu = -0.7", "model.mu = -0.1").replace(
        "model.m = 0", "model.m = -0.3").replace("model.delta = 1", "model.delta = 0.2")
    strike = math.exp(math.pi / 0.025 - 0.15)
    cfg = _write(tmp_path, "m.cfg", keys + f"query.t = 0.5\nquery.strike_grid = 1,{strike!r}\n")
    lines = []
    for command in ("curve", "validate"):
        assert main([command, "--config", cfg]) == EXIT_VALIDATION
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert lines[0].startswith("error: log-strike 125.774 outside the representable range")


def test_curve_tail_failure_exit(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "m.cfg",
        MERTON_CFG + "query.t = 0.5\nquery.strike = 1\nfft.n = 64\n",
    )
    assert main(["curve", "--config", cfg]) == EXIT_VALIDATION
    assert "truncation" in capsys.readouterr().err


def test_curve_requires_query(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG)
    assert main(["curve", "--config", cfg]) == EXIT_USAGE


def test_impact_table(tmp_path, capsys):
    # six jumps are seven quotes, past the four strikes auto mode sums
    # directly: each keeps the bits of its lone quote
    cfg_text = MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n"
    cfg = _write(tmp_path, "m.cfg", cfg_text)
    code = main(["impact", "--config", cfg, "--y", "0.1", "--y", "-0.1", "--y", "0.2,-0.2,0.5,-0.5"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = _rows(captured.out)
    assert len(rows) == 6
    up, down = (float(r["impact"]) for r in rows[:2])
    assert up > 0.0 > down
    run = build_run_config(parse_key_values(cfg_text, "inline"))
    tau = run.maturity - run.t_values[0]

    def lone(m):
        return lrm(MarketQuery(0.0, tau, 1.0, m), run.model, run.fft).lrm

    for r in rows:
        y, base_m, after_m = (float(r[k]) for k in ("y", "moneyness_before", "moneyness_after"))
        assert float(r["lrm_before"]) == lone(base_m)
        assert float(r["lrm_after"]) == lone(after_m)
        assert float(r["impact"]) == jump_impact(y, base_m, tau, run.model, run.fft)
    for r in rows:
        assert float(r["moneyness_after"]) == pytest.approx(
            float(r["moneyness_before"]) * math.exp(-float(r["y"])), rel=1e-12
        )
        assert float(r["impact"]) == pytest.approx(
            float(r["lrm_after"]) - float(r["lrm_before"]), abs=1e-12
        )


def _counting_samples(monkeypatch) -> list:
    """The (shift, m) of every ``LevySample.sample`` call from now on."""
    taken = []
    sample = LevySample.sample

    def counting_sample(self, shift, m):
        taken.append((shift, m))
        return sample(self, shift, m)

    monkeypatch.setattr(LevySample, "sample", counting_sample)
    return taken


def test_impact_builds_one_sample(tmp_path, capsys, monkeypatch):
    # all jump sizes share one contour sample and one time slice, and
    # their quotes sample the contour once
    _shared_sample.cache_clear()
    builds = []
    init = LevySample.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LevySample, "__init__", counting_init)
    taken = _counting_samples(monkeypatch)
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg, "--y", "0.1,-0.1,0.2,-0.2,0.5"]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 5
    assert len(builds) == 1
    assert len(taken) == 1


def test_curve_samples_once(tmp_path, capsys, monkeypatch):
    # every slice of a surface reads views of one sample, taken at the
    # finest stride and over the longest Merton prefix any slice reads
    taken = _counting_samples(monkeypatch)
    grid = "query.t_grid = 0:0.9:0.1\nquery.strike_grid = 1:2:0.25\n"
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + grid)
    assert main(["curve", "--config", cfg]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 50
    [(shift, m)] = taken
    assert 1 < m << shift < 2**14


def test_validate_reads_the_plan(tmp_path, capsys, monkeypatch):
    # a passing 20-slice validate reads its worst cell off curve's plan:
    # one slice_trunc call per slice, and like the curve evaluation one
    # prefix bound per stride the plan takes, over every slice at once
    text = MERTON_CFG + T20 + "query.strike_grid = 1:8:0.25\n"
    run = build_run_config(parse_key_values(text, "inline"))
    cli_module, lrm_module = map(importlib.import_module, ("levyhedge.cli", "levyhedge.lrm"))
    sample, taus = cli_module._slices(run)
    plan = lrm_module.plan_slices(sample, taus, lrm_module._strike_array(run.strikes), run.spot)
    strides = len(set(plan.shifts.ravel().tolist()))
    calls = []
    for module, name in (
        (lrm_module, "slice_trunc"), (cli_module, "slice_trunc"), (lrm_module, "merton_prefix_tail")
    ):
        real = getattr(module, name)
        counted = lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        monkeypatch.setattr(module, name, counted)
    cfg = _write(tmp_path, "m.cfg", text)
    for command in ("validate", "curve"):
        assert main([command, "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert calls.count("slice_trunc") == 20
        assert calls.count("merton_prefix_tail") == strides >= 2
        calls.clear()


@pytest.mark.parametrize(
    "override, message",
    [
        ("query.t=-0.5", "evaluation time t must be >= 0"),
        ("query.spot=0", "spot must be > 0"),
        ("query.spot=-1", "spot must be > 0"),
    ],
)
def test_impact_rejects_bad_query(tmp_path, capsys, override, message):
    # impact checks its query as curve checks its cells
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    for argv in (["impact", "--y", "0.1"], ["curve"]):
        assert main(argv + ["--config", cfg, "--set", override]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""


def test_impact_comma_list(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg, "--y", "0.05,0.2"]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 2


def test_impact_usage_errors(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg]) == EXIT_USAGE  # empty jump list
    assert main(["impact", "--config", cfg, "--y", "0"]) == EXIT_USAGE
    assert main(["impact", "--config", cfg, "--y", "abc"]) == EXIT_USAGE
    # e^{-y} overflows: the jump is named, no traceback
    capsys.readouterr()
    assert main(["impact", "--config", cfg, "--y", "0.1,-1000"]) == EXIT_USAGE
    assert "error: jump size y = -1000 overflows" in capsys.readouterr().err
    # e^{-y} underflows to a zero moneyness: jump_impact's message, exit 1
    assert main(["impact", "--config", cfg, "--y", "1000"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: moneyness must be > 0")
    grid_cfg = _write(
        tmp_path, "g.cfg", MERTON_CFG + "query.t_grid = 0.1,0.5\nquery.strike = 1\n"
    )
    assert main(["impact", "--config", grid_cfg, "--y", "0.1"]) == EXIT_USAGE


def test_run_config_grids_and_overrides(capsys):
    cfg = build_run_config(
        {
            "model.kind": "vg",
            "model.kappa": "0.15",
            "model.m": "-0.2",
            "model.delta": "0.45",
            "query.t_grid": "0:0.95:0.05",
            "query.strike_grid": "1,2,4",
            "query.T": "1",
        }
    )
    assert len(cfg.t_values) == 20
    assert cfg.strikes == [1.0, 2.0, 4.0]
    assert cfg.fft.n == 16384  # defaults applied
    # the transform path follows the strike count; there is no mode key
    assert main(["validate", "--set", "model.kind=merton", "--set", "mode=auto"]) == EXIT_USAGE
    assert "unknown config keys: mode" in capsys.readouterr().err


@pytest.mark.parametrize("jumps", ["inf", "nan", "0.1,-inf"])
def test_impact_rejects_non_finite_jumps(tmp_path, capsys, jumps):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg, "--y", jumps]) == EXIT_USAGE
    assert "error: jump sizes must be finite" in capsys.readouterr().err


def test_curve_reports_cell_grid(tmp_path, capsys):
    # the n and eta columns give the grid each cell summed: every stride-th
    # point of the configured one; direct sums take each strike's own
    # stride, a grid the finest of its slice
    cases = (
        (MERTON_CFG, "query.t = 0.5\nquery.strike_grid = 1,20\n", [(8192, 0.05), (4096, 0.1)]),
        (NIKKEI_CFG, "query.t = 0.5\nquery.strike_grid = 12000,14000\n", [(4096, 0.1)] * 2),
        (NIKKEI_CFG, "query.t = 0.5\nquery.strike_grid = 12000:16000:1000\n", [(4096, 0.1)] * 5),
    )
    for base, grids, grid_cells in cases:
        cfg_text = base + grids
        assert main(["curve", "--config", _write(tmp_path, "c.cfg", cfg_text)]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        cfg = build_run_config(parse_key_values(cfg_text, "inline"))
        expected = lrm_strike_sweep(
            cfg.model, cfg.fft, t=0.5, T=cfg.maturity, spot=cfg.spot, strikes=cfg.strikes
        )
        assert [(int(row["n"]), float(row["eta"])) for row in rows] == grid_cells
        assert [(cfg.fft.n // r.stride, cfg.fft.eta * r.stride) for r in expected] == grid_cells
