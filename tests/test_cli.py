"""Command-line interface: outputs, formats, exit codes."""
import json

import numpy as np
import pytest

from dnls_well.cli import main
from dnls_well.field import load_field, make_grid, save_field
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
    snaps = sorted(out.glob("snap_*.json"))
    assert snaps and load_field(snaps[0]).grid.N == 256
    header, *rows = (out / "drift.csv").read_text().strip().splitlines()
    assert header == "t,dE,dM,dP"
    assert all(len(r.split(",")) == 4 for r in rows)


def test_evolve_blow_up_exits_2(tmp_path):
    g = make_grid(10.0, 128)
    from dnls_well.field import Field

    # amplitude so large that no step size above the floor is stable
    f = Field(g, 9e5 * np.exp(-g.x**2, dtype=complex))
    path = tmp_path / "big.json"
    save_field(f, path)
    out = tmp_path / "traj"
    code = main(["evolve", "--field", str(path), "--b", "0.5",
                 "--dt", "0.05", "--t-end", "1.0", "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blow-up"


def test_verify_quad_passes(capsys):
    assert main(["verify", "--suite", "quad"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["pass"] is True
    assert all(c["error"] < c["tol"] for c in res["checks"])


def test_verify_gauge_passes(capsys):
    assert main(["verify", "--suite", "gauge"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--b", "0", "--bogus"])
    assert exc.value.code == 64


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
