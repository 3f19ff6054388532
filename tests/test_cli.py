"""Command-line interface: outputs, formats, exit codes.

The tests import `dnls_well` wherever the interpreter finds it, so the same
file checks `src/` and an installed copy (run it with `-o pythonpath=` to
drop the `src` entry that `pyproject.toml` gives pytest).
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnls_well
from dnls_well.cli import _build_parser, main
from dnls_well.field import Field, load_field, make_grid, save_field
from dnls_well.solitons import ModelParams, SolitonParams, sample_phi, suggested_half_length

from conftest import random_smooth_field


def _soliton_file(tmp_path, b=0.0, omega=1.0, c=0.0, n=512):
    sp = SolitonParams(ModelParams(b), omega, c)
    g = make_grid(suggested_half_length(sp), n)
    path = tmp_path / "sol.json"
    save_field(sample_phi(sp, g), path)
    return path


def test_threshold_b0(capsys):
    assert main(["threshold", "--b", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"M_star": 12.566370614359172}


def test_threshold_positive_b_has_s_star(capsys):
    assert main(["threshold", "--b", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["s_star"] < 1.0
    assert out["M_star"] > 0.0


def test_soliton_writes_field_file(tmp_path):
    out = tmp_path / "f.json"
    code = main(
        ["soliton", "--b", "0", "--omega", "1", "--c", "0",
         "--L", "20", "--N", "256", "--out", str(out)]
    )
    assert code == 0
    f = load_field(out)
    assert f.grid.N == 256
    assert np.max(np.abs(f.values)) == pytest.approx(2.0, rel=1e-6)


def test_soliton_outside_region_is_domain_error(tmp_path):
    out = tmp_path / "f.json"
    code = main(
        ["soliton", "--b", "0", "--omega", "1", "--c", "3",
         "--L", "20", "--N", "256", "--out", str(out)]
    )
    assert code == 1


def test_report_round_trip(tmp_path, capsys):
    path = _soliton_file(tmp_path)
    assert main(["report", "--field", str(path), "--b", "0",
                 "--omega", "1", "--c", "0", "--frame", "dnls"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mass"] == pytest.approx(2.0 * np.pi, rel=1e-8)
    assert {"energy", "momentum", "action", "nehari"} <= set(rep)


def test_report_missing_file_exits_1(capsys):
    assert main(["report", "--field", "/nonexistent.json", "--b", "0",
                 "--omega", "1", "--c", "0"]) == 1


def test_gauge_round_trip(tmp_path):
    path = _soliton_file(tmp_path)
    mid, back = tmp_path / "g.json", tmp_path / "h.json"
    assert main(["gauge", "--a", "0.25", "--in", str(path), "--out", str(mid)]) == 0
    assert main(["gauge", "--a", "-0.25", "--in", str(mid), "--out", str(back)]) == 0
    f0, f2 = load_field(path), load_field(back)
    assert np.max(np.abs(f0.values - f2.values)) < 1e-12


def test_scan_csv_strictly_increasing(capsys):
    assert main(["scan", "--b", "0", "--quantity", "mass",
                 "--s-from", "-0.9", "--s-to", "0.9", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,value"
    assert len(lines) == 6
    vals = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "s_from, s_to, steps",
    [
        (-0.73, 0.91, 37),  # ascending
        (0.9, -0.85, 17),  # descending
        (0.1, 0.5, 2),
        (0.3, 0.3, 4),  # s_from == s_to: the step is 0
        (0.0, 5e-324, 4),  # the step underflows to 0 with s_from != s_to
    ],
)
def test_scan_grid_is_numpy_linspace_bit_for_bit(capsys, s_from, s_to, steps):
    assert main(["scan", "--b", "0.1", "--quantity", "d", f"--s-from={s_from!r}",
                 f"--s-to={s_to!r}", "--steps", str(steps)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    printed = [float(row.split(",")[0]).hex() for row in rows]
    assert printed == [s.hex() for s in np.linspace(s_from, s_to, steps).tolist()]


@pytest.mark.parametrize("steps", ["1", "0"])
def test_scan_needs_two_steps(capsys, steps):
    assert main(["scan", "--b", "0.1", "--quantity", "d",
                 "--s-from", "0.1", "--s-to", "0.5", "--steps", steps]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "dnls-well: domain error: steps must be >= 2\n"


def test_scan_csv_17_digits_and_file_output(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--b", "0.1", "--quantity", "d",
                 "--s-from", "0.1", "--s-to", "0.5", "--steps", "3",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    for row in rows:
        s_txt, v_txt = row.split(",")
        assert float(v_txt) == float(f"{float(v_txt):.17g}")
        # round-trip: printed value re-parses to the same double
        assert f"{float(v_txt):.17g}" == v_txt


def test_scan_to_stdout_and_to_a_file_are_the_same_bytes(tmp_path, capsysbinary):
    argv = ["scan", "--b", "0.1", "--quantity", "energy",
            "--s-from=-0.9", "--s-to", "0.9", "--steps", "7"]
    assert main(argv) == 0
    out = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(out)]) == 0
    printed = capsysbinary.readouterr().out
    assert printed.startswith(b"s,value\n") and printed.count(b"\n") == 8
    assert out.read_bytes() == printed


def test_classify_json(tmp_path, capsys):
    g = make_grid(30.0, 256)
    rng = np.random.default_rng(7)
    f = random_smooth_field(rng, g, amp=0.05)
    path = tmp_path / "f.json"
    save_field(f, path)
    assert main(["classify", "--field", str(path), "--b", "0.1",
                 "--s-grid", "0.1:0.9:3"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["theorem17_case"] == "ii"
    assert len(res["per_s"]) >= 3
    # case ii: global existence with a finite, positive a-priori bound
    assert res["global_existence"] is True and 0.0 < res["apriori_bound"] < math.inf


def test_classify_negative_s_grid_needs_equals_form(tmp_path, capsys):
    g = make_grid(30.0, 256)
    path = tmp_path / "f.json"
    save_field(random_smooth_field(np.random.default_rng(7), g, amp=0.05), path)
    assert main(["classify", "--field", str(path), "--b", "0.1",
                 "--s-grid=-0.8:0.8:9"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert [row["s"] for row in res["per_s"][:9]] == pytest.approx(np.linspace(-0.8, 0.8, 9))


def test_evolve_writes_artifacts(tmp_path):
    path = _soliton_file(tmp_path, n=256)
    out = tmp_path / "traj"
    assert main(["evolve", "--field", str(path), "--b", "0",
                 "--t-end", "0.05", "--out", str(out)]) == 0
    assert (out / "drift.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["reason"] is None
    assert summary["n_steps"] == round(0.05 / summary["dt_used"])
    assert summary["dt_trail"]
    assert summary["peak_drift"] >= 0.0
    assert set(summary["phase_s"]) == {"tune", "step", "record"}
    snaps = sorted(out.glob("snap_*.json"))
    assert snaps and load_field(snaps[0]).grid.N == 256
    header, *rows = (out / "drift.csv").read_text().strip().splitlines()
    assert header == "t,dE,dM,dP"
    assert all(len(r.split(",")) == 4 for r in rows)


def test_evolve_into_a_used_directory_keeps_only_its_own_snapshots(tmp_path):
    path = _soliton_file(tmp_path, n=256)
    out = tmp_path / "traj"
    for t_end in ("0.05", "0.02"):
        assert main(["evolve", "--field", str(path), "--b", "0",
                     "--t-end", t_end, "--out", str(out)]) == 0
    rows = (out / "drift.csv").read_text().strip().splitlines()[1:]
    snaps = sorted(out.glob("snap_*.json"))
    assert len(rows) == len(snaps) == 3
    # a refused run touches nothing
    assert main(["evolve", "--field", str(path), "--b", "0", "--t-end", "0.05",
                 "--monitor-omega", "1", "--monitor-c", "inf", "--out", str(out)]) == 1
    assert sorted(out.glob("snap_*.json")) == snaps


def test_evolve_blow_up_exits_2(tmp_path):
    g = make_grid(10.0, 128)
    from dnls_well.field import Field

    # amplitude so large that the CFL cap alone is below t_end / MAX_STEPS
    f = Field(g, 9e5 * np.exp(-g.x**2, dtype=complex))
    path = tmp_path / "big.json"
    save_field(f, path)
    out = tmp_path / "traj"
    code = main(["evolve", "--field", str(path), "--b", "0.5",
                 "--dt", "0.05", "--t-end", "1.0", "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "stopped"
    # so no step size is tried at all
    assert summary["reason"] == "step-budget"
    assert summary["n_steps"] == 0 and summary["dt_trail"] == []


def test_evolve_past_any_step_budget_exits_2_with_a_summary(tmp_path, capsys):
    path = _soliton_file(tmp_path, b=0.1, n=256)
    out = tmp_path / "traj"
    assert main(["evolve", "--field", str(path), "--b", "0.1",
                 "--t-end", "1e306", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["status"], summary["reason"], summary["n_steps"]) == ("stopped", "step-budget", 0)
    assert summary["dt_trail"] == [] and 0.0 < summary["dt_used"] <= 1e-3
    assert summary["t_final"] == 0.0


def test_evolve_blow_up_summary_ends_at_the_step_that_blew_up(tmp_path, monkeypatch):
    from dnls_well import evolve as ev

    def cfl_dt_only(f0, vhat0, p, cfg):  # the CFL-capped dt, with no Richardson test
        n = math.ceil(cfg.t_end / ev._cfl_dt(f0, cfg.dt))
        return cfg.t_end / n, n, ev._Stepper(f0.grid, cfg.t_end / n, p, cfg.gauge_a), [cfg.t_end / n]

    # 30 e^{-x^2} at b = 0.5 passes AMP_CAP on its first step, which no record stores
    monkeypatch.setattr(ev, "_tune_dt", cfl_dt_only)
    g = make_grid(10.0, 128)
    path = tmp_path / "big.json"
    save_field(Field(g, 30.0 * np.exp(-g.x**2, dtype=complex)), path)
    out = tmp_path / "traj"
    assert main(["evolve", "--field", str(path), "--b", "0.5", "--dt", "0.05",
                 "--t-end", "1.0", "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["reason"], summary["n_steps"]) == ("amp-cap", 1)
    assert summary["t_final"] == summary["dt_used"] > 0.0


def test_soliton_with_an_infinite_half_length_is_domain_error(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = main(["soliton", "--b", "0", "--omega", "1", "--c", "0",
                 "--L", "inf", "--N", "256", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "half-length" in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["report", "scan"])
def test_a_directory_for_a_file_is_one_domain_error_line(tmp_path, capsys, cmd):
    argv = {
        "report": ["report", "--field", str(tmp_path), "--b", "0", "--omega", "1", "--c", "0"],
        "scan": ["scan", "--b", "0", "--quantity", "d", "--s-from", "-0.5",
                 "--s-to", "0.5", "--steps", "3", "--out", str(tmp_path)],
    }[cmd]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("dnls-well: domain error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_evolve_negative_t_end_is_domain_error(tmp_path):
    path = _soliton_file(tmp_path, n=256)
    out = tmp_path / "traj"
    assert main(["evolve", "--field", str(path), "--b", "0",
                 "--t-end=-0.5", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("given", [["--monitor-omega", "1"], ["--monitor-c", "0.4"]])
def test_evolve_half_a_monitor_is_usage_error(tmp_path, capsys, given):
    path = _soliton_file(tmp_path, n=256)
    out = tmp_path / "traj"
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--field", str(path), "--b", "0", "--t-end", "0.01",
              "--out", str(out), *given])
    assert exc.value.code == 64
    assert "--monitor-omega and --monitor-c" in capsys.readouterr().err
    assert not out.exists()


def test_verify_quad_passes(capsys):
    assert main(["verify", "--suite", "quad"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["pass"] is True
    assert all(c["error"] < c["tol"] for c in res["checks"])


@pytest.mark.parametrize("suite", ["mass", "momentum"])
def test_verify_scalar_suite_passes(capsys, suite):
    assert main(["verify", "--suite", suite]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["suite"] == suite and res["pass"] is True
    assert len(res["checks"]) == 20
    assert all(c["error"] < c["tol"] for c in res["checks"])


def test_verify_ode_passes(capsys):
    assert main(["verify", "--suite", "ode"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["suite"] == "ode" and res["pass"] is True
    assert [c["name"] for c in res["checks"]] == ["peak b=0", "pointwise b=3/16", "pointwise b=-2"]
    assert all(c["error"] < c["tol"] for c in res["checks"])


def test_verify_gauge_passes(capsys):
    assert main(["verify", "--suite", "gauge"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_verify_gauge_exits_2_when_a_run_stops_short(capsys, monkeypatch):
    # with a budget of one step no dt passes: neither run reaches t_end
    monkeypatch.setattr("dnls_well.evolve.MAX_STEPS", 1)
    assert main(["verify", "--suite", "gauge"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "step-budget" in out.err


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--b", "0", "--bogus"])
    assert exc.value.code == 64


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_threshold_without_s_star_prints_only_m_star(capsys):
    assert main(["threshold", "--b", "-0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"M_star": ModelParams(-0.1).turning[1]}


@pytest.mark.parametrize("b", ["nan", "inf", "-inf"])
def test_non_finite_b_is_domain_error_in_every_subcommand(tmp_path, capsys, b):
    path = _soliton_file(tmp_path, n=256)
    out = tmp_path / "out"
    runs = {
        "soliton": ["--omega", "1", "--c", "0", "--L", "20", "--N", "256", "--out", str(out)],
        "report": ["--field", str(path), "--omega", "1", "--c", "0"],
        "scan": ["--quantity", "mass", "--s-from", "-0.5", "--s-to", "0.5", "--steps", "3"],
        "threshold": [],
        "classify": ["--field", str(path)],
        "evolve": ["--field", str(path), "--t-end", "0.01", "--out", str(out)],
    }
    for cmd, rest in runs.items():
        assert main([cmd, f"--b={b}", *rest]) == 1, cmd
        assert capsys.readouterr().out == "", cmd
        assert not out.exists(), cmd


@pytest.mark.parametrize("omega, c", [("nan", "0.5"), ("inf", "0.5"), ("1", "nan"), ("1", "inf")])
def test_report_non_finite_omega_or_c_is_domain_error(tmp_path, capsys, omega, c):
    path = _soliton_file(tmp_path, n=256)
    assert main(["report", "--field", str(path), "--b", "0.1",
                 f"--omega={omega}", f"--c={c}"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("omega, c", [("nan", "0.5"), ("1", "inf"), ("1", "-inf")])
def test_evolve_non_finite_monitor_is_domain_error(tmp_path, capsys, omega, c):
    path = _soliton_file(tmp_path, n=256)
    out = tmp_path / "traj"
    assert main(["evolve", "--field", str(path), "--b", "0", "--t-end", "0.01",
                 f"--monitor-omega={omega}", f"--monitor-c={c}", "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 1, 2, 9])
@pytest.mark.parametrize("lo, hi", [(-0.8, 0.8), (-0.3, -0.7), (-0.0, 0.5)])
def test_classify_s_grid_is_numpy_linspace_bit_for_bit(tmp_path, capsys, n, lo, hi):
    from dnls_well.classifier import classify_thm17
    from dnls_well.functionals import Frame

    path = tmp_path / "f.json"
    save_field(random_smooth_field(np.random.default_rng(7), make_grid(30.0, 256), amp=0.05), path)
    assert main(["classify", "--field", str(path), "--b", "0.1",
                 f"--s-grid={lo!r}:{hi!r}:{n}"]) == 0
    grid = np.linspace(lo, hi, n).tolist()
    want = classify_thm17(load_field(path), ModelParams(0.1), grid, Frame.GAUGE).to_dict()
    assert capsys.readouterr().out == json.dumps(want) + "\n"


def test_classify_negative_s_grid_count_is_domain_error(tmp_path, capsys):
    path = _soliton_file(tmp_path, n=256)
    assert main(["classify", "--field", str(path), "--b", "0.1", "--s-grid=-0.8:0.8:-1"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "record",
    [
        {"grid": {"L": 3.0, "N": 8}, "re": [0.1 * j for j in range(8)], "im": [0.5]},
        {"grid": {"L": 3.0, "N": 8}, "re": 1.0, "im": [0.0] * 8},
        {"grid": {"L": 3.0, "N": 8.7}, "re": [0.1 * j for j in range(8)], "im": [0.0] * 8},
        {"grid": {"L": 3.0, "N": 8}, "re": [str(0.1 * j) for j in range(8)], "im": [0.0] * 8},
        {"grid": {"L": 3.0, "N": 8}, "re": [True] * 8, "im": [0.0] * 8},
        {"grid": {"L": 3.0, "N": 8}, "re": [True] + [0.1] * 7, "im": [0.0] * 8},
        {"grid": {"L": "3", "N": 8}, "re": [0.1 * j for j in range(8)], "im": [0.0] * 8},
        {"grid": {"L": True, "N": 8}, "re": [0.1 * j for j in range(8)], "im": [0.0] * 8},
        [1, 2],
        {"grid": None, "re": [0.1 * j for j in range(8)], "im": [0.0] * 8},
    ],
    ids=["im-one-entry", "re-scalar", "N-float", "re-strings", "re-bools", "re-one-bool", "L-str", "L-bool",
         "list", "grid-null"],
)
def test_report_on_a_malformed_field_file_is_one_domain_error_line(tmp_path, capsys, record):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["report", "--field", str(path), "--b", "0", "--omega", "1", "--c", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dnls-well: domain error: ") and err.count("\n") == 1


def _no_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("value", [0.0, 0.7 - 0.2j])
def test_report_on_a_constant_field_is_strict_json(tmp_path, capsys, value):
    path = tmp_path / "flat.json"
    save_field(Field(make_grid(3.0, 8), np.full(8, value, dtype=complex)), path)
    assert main(["report", "--field", str(path), "--b", "0.1", "--omega", "1", "--c", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert rep["gn_ratio"] is None and rep["grad_sq"] == 0.0


def test_classify_below_critical_b_is_domain_error(tmp_path, capsys):
    path = _soliton_file(tmp_path)
    assert main(["classify", "--field", str(path), "--b", "-0.2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("dnls-well: domain error: ")


def test_classify_critical_b_soliton_prints_its_row(tmp_path, capsys):
    # at b = -3/16 the route halves s from -1/2 once: 2 d(1, -1/2) > M
    path = tmp_path / "crit.json"
    assert main(["soliton", "--b", "-0.1875", "--omega", "1", "--c", "-1",
                 "--L", "30", "--N", "512", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["classify", "--field", str(path), "--b", "-0.1875"]) == 0
    out = capsys.readouterr().out
    assert '"per_s": [{"s": -0.25, "verdict": "A_plus"}]' in out
    res = json.loads(out)
    assert res["theorem17_case"] == "critical-b" and res["global_existence"] is True


def test_report_reads_json_integers_past_int64(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"grid": {"L": 3.0, "N": 8}, "re": [2**63, 10**30] + [0] * 6, "im": [0] * 8}))
    assert main(["report", "--field", str(path), "--b", "0.1", "--omega", "1", "--c", "0.5"]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert rep["mass"] == pytest.approx(3.0 / 4.0 * (2.0**126 + 1e60), rel=1e-12)


@pytest.mark.parametrize(
    "argv, code",
    [(["threshold", "--b", "0.1"], 0), (["threshold", "--b", "nan"], 1), (["threshold", "--b", "0", "--bogus"], 64)],
)
def test_python_m_cli_exit_code(argv, code):
    # the child imports the dnls_well under test, from src/ or installed
    env = dict(os.environ, PYTHONPATH=str(Path(dnls_well.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dnls_well.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert set(json.loads(proc.stdout)) == {"M_star", "s_star"}


# each subcommand's options: (option string, required, type, default, choices)
_OPTIONS = {
    "soliton": [
        ("--b", True, float, None, None),
        ("--omega", True, float, None, None),
        ("--c", True, float, None, None),
        ("--L", True, float, None, None),
        ("--N", True, int, None, None),
        ("--out", True, None, None, None),
        ("--which", False, None, "phi", ["Phi", "varphi", "phi"]),
    ],
    "report": [
        ("--field", True, None, None, None),
        ("--b", True, float, None, None),
        ("--omega", True, float, None, None),
        ("--c", True, float, None, None),
        ("--frame", False, None, "dnls", ["dnls", "gauge"]),
    ],
    "gauge": [
        ("--a", True, float, None, None),
        ("--in", True, None, None, None),
        ("--out", True, None, None, None),
    ],
    "scan": [
        ("--b", True, float, None, None),
        ("--quantity", True, None, None, ["d", "energy", "mass", "momentum"]),
        ("--s-from", True, float, None, None),
        ("--s-to", True, float, None, None),
        ("--steps", True, int, None, None),
        ("--out", False, None, None, None),
    ],
    "threshold": [
        ("--b", True, float, None, None),
    ],
    "classify": [
        ("--field", True, None, None, None),
        ("--b", True, float, None, None),
        ("--s-grid", False, None, None, None),
        ("--frame", False, None, "gauge", ["dnls", "gauge"]),
    ],
    "evolve": [
        ("--field", True, None, None, None),
        ("--b", True, float, None, None),
        ("--a", False, float, 0.0, [0.0, 0.25]),
        ("--dt", False, float, 0.001, None),
        ("--t-end", True, float, None, None),
        ("--monitor-omega", False, float, None, None),
        ("--monitor-c", False, float, None, None),
        ("--out", True, None, None, None),
    ],
    "verify": [
        ("--suite", True, None, None, ["quad", "ode", "mass", "momentum", "gauge"]),
        ("--seed", False, int, 12345, None),
    ],
}

# `dnls-well <cmd> --help` on an 80-column terminal
_HELP = {
    "soliton": """\
usage: dnls-well soliton [-h] --b B --omega OMEGA --c C --L L --N N --out OUT
                         [--which {Phi,varphi,phi}]

options:
  -h, --help            show this help message and exit
  --b B
  --omega OMEGA
  --c C
  --L L
  --N N
  --out OUT
  --which {Phi,varphi,phi}
""",
    "report": """\
usage: dnls-well report [-h] --field FIELD --b B --omega OMEGA --c C
                        [--frame {dnls,gauge}]

options:
  -h, --help            show this help message and exit
  --field FIELD
  --b B
  --omega OMEGA
  --c C
  --frame {dnls,gauge}
""",
    "gauge": """\
usage: dnls-well gauge [-h] --a A --in IN --out OUT

options:
  -h, --help  show this help message and exit
  --a A
  --in IN
  --out OUT
""",
    "scan": """\
usage: dnls-well scan [-h] --b B --quantity {d,energy,mass,momentum} --s-from
                      S_FROM --s-to S_TO --steps STEPS [--out OUT]

options:
  -h, --help            show this help message and exit
  --b B
  --quantity {d,energy,mass,momentum}
  --s-from S_FROM
  --s-to S_TO
  --steps STEPS
  --out OUT
""",
    "threshold": """\
usage: dnls-well threshold [-h] --b B

options:
  -h, --help  show this help message and exit
  --b B
""",
    "classify": """\
usage: dnls-well classify [-h] --field FIELD --b B [--s-grid S_GRID]
                          [--frame {dnls,gauge}]

options:
  -h, --help            show this help message and exit
  --field FIELD
  --b B
  --s-grid S_GRID       lo:hi:n; write --s-grid=lo:hi:n when lo is negative
  --frame {dnls,gauge}
""",
    "evolve": """\
usage: dnls-well evolve [-h] --field FIELD --b B [--a {0.0,0.25}] [--dt DT]
                        --t-end T_END [--monitor-omega MONITOR_OMEGA]
                        [--monitor-c MONITOR_C] --out OUT

options:
  -h, --help            show this help message and exit
  --field FIELD
  --b B
  --a {0.0,0.25}
  --dt DT
  --t-end T_END
  --monitor-omega MONITOR_OMEGA
  --monitor-c MONITOR_C
  --out OUT
""",
    "verify": """\
usage: dnls-well verify [-h] --suite {quad,ode,mass,momentum,gauge}
                        [--seed SEED]

options:
  -h, --help            show this help message and exit
  --suite {quad,ode,mass,momentum,gauge}
  --seed SEED
""",
}


def test_each_subcommand_declares_its_pinned_options():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        cmd: [
            (", ".join(a.option_strings), a.required, a.type, a.default, a.choices)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for cmd, parser in sub.choices.items()
    }
    assert got == _OPTIONS


@pytest.mark.parametrize("cmd", list(_HELP))
def test_subcommand_help_text_is_pinned(capsys, monkeypatch, cmd):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    # Python 3.13 breaks scan's usage line before --s-from, not between
    # --s-from and S_FROM
    want = _HELP[cmd]
    if sys.version_info >= (3, 13):
        want = want.replace(
            "{d,energy,mass,momentum} --s-from\n                      S_FROM",
            "{d,energy,mass,momentum}\n                      --s-from S_FROM",
        )
    assert capsys.readouterr().out == want
