import csv
import io
import math

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
from levyhedge.lrm import LevySample, lrm_strike_sweep

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
    ],
)
def test_validate_rejects_bad_query(tmp_path, capsys, override, message):
    # the checks curve applies to its cells
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    for command in ("validate", "curve"):
        assert main([command, "--config", cfg, "--set", override]) == EXIT_VALIDATION
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
    cfg = _write(
        tmp_path,
        "m.cfg",
        MERTON_CFG + "query.t_grid = 0.1,0.5,0.9\nquery.strike_grid = 1:2:0.5\n",
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["curve", "--config", cfg, "--set", f"output={out1}"]) == EXIT_OK
    assert main(["curve", "--config", cfg, "--set", f"output={out2}"]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_bytes()) > 0


@pytest.mark.parametrize(
    "base, grids",
    [
        (MERTON_CFG, "query.t_grid = 0.1,0.5,0.9\nquery.strike_grid = 1:2:0.25\n"),
        (MERTON_CFG, "query.t_grid = 0:0.6:0.3\nquery.strike_grid = 0.9,1.1\n"),
        (NIKKEI_CFG, "query.t_grid = 0.2,0.6\nquery.strike_grid = 12000,15000,18000\n"),
    ],
    ids=["merton-grid", "merton-direct", "nikkei-direct"],
)
def test_curve_cells_equal_strike_sweep(tmp_path, capsys, base, grids):
    # the shared contour sample gives the same bits as a fresh one per slice
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


def test_curve_overflow_guard_exit(tmp_path, capsys):
    # tau = 300 pushes Re(tau Psi) past the exp() guard on the curve path
    long_cfg = MERTON_CFG.replace("query.T = 1", "query.T = 300")
    cfg = _write(tmp_path, "m.cfg", long_cfg + "query.t = 0\nquery.strike = 1\n")
    assert main(["curve", "--config", cfg]) == EXIT_VALIDATION
    assert "characteristic exponent" in capsys.readouterr().err


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
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    code = main(["impact", "--config", cfg, "--y", "0.1", "--y", "-0.1"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = _rows(captured.out)
    assert len(rows) == 2
    up, down = (float(r["impact"]) for r in rows)
    assert up > 0.0 > down
    for r in rows:
        assert float(r["moneyness_after"]) == pytest.approx(
            float(r["moneyness_before"]) * math.exp(-float(r["y"])), rel=1e-12
        )
        assert float(r["impact"]) == pytest.approx(
            float(r["lrm_after"]) - float(r["lrm_before"]), abs=1e-12
        )


def test_impact_builds_one_sample(tmp_path, capsys, monkeypatch):
    # all jump sizes share one contour sample and one time slice
    builds = []
    init = LevySample.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LevySample, "__init__", counting_init)
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg, "--y", "0.1,-0.1,0.2"]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 3
    assert len(builds) == 1


def test_curve_grows_sample_once(tmp_path, capsys, monkeypatch):
    # the latest t needs the longest Merton prefix and is taken first, so
    # the shared sample grows once past its one-row start
    sizes = []
    sample = LevySample._sample

    def counting_sample(self, m):
        sizes.append(m)
        sample(self, m)

    monkeypatch.setattr(LevySample, "_sample", counting_sample)
    grid = "query.t_grid = 0:0.9:0.1\nquery.strike_grid = 1:2:0.25\n"
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + grid)
    assert main(["curve", "--config", cfg]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 50
    assert len(sizes) == 2 and sizes[0] < sizes[1] < 2**14


def test_impact_comma_list(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg, "--y", "0.05,0.2"]) == EXIT_OK
    assert len(_rows(capsys.readouterr().out)) == 2


def test_impact_usage_errors(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg", MERTON_CFG + "query.t = 0.5\nquery.strike = 1\n")
    assert main(["impact", "--config", cfg]) == EXIT_USAGE  # empty jump list
    assert main(["impact", "--config", cfg, "--y", "0"]) == EXIT_USAGE
    assert main(["impact", "--config", cfg, "--y", "abc"]) == EXIT_USAGE
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
