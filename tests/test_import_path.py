"""Each subcommand loads only what it runs.

Each case runs `cli.main` in a fresh interpreter and reports which scipy,
numpy, package and `fractions`, `decimal` and `numbers` modules got loaded.

The package does not use scipy, so no subcommand and no `profile_fit` may
load it: the quadrature suites (`quad`, `mass`, `momentum`) run the numpy
double-exponential rule, `verify --suite ode` the numpy Newton profile
solver and `profile_fit` a numpy Gauss-Newton fit.  The control puts a stub
module under the name `scipy.integrate` into `sys.modules` and must see it,
which shows that the guard can fail whether or not scipy is installed.

Each child puts the parent directory of the imported `dnls_well` first on
its path, so it checks the copy under test: `src/` in tier-1, the installed
package under `-o pythonpath=`.

numpy stays off the import path of the package root and of the closed-form
subcommands `threshold` and `scan`.  `soliton`, which samples a profile on a
grid, is the control that must load numpy.  A `scan` whose every point lies
near the gamma < 0 edge (z < -0.99), where the kernel forms 1 + z exactly in
integers, loads none of `fractions`, `decimal` or `numbers`.  `report` takes its names from
their owners, so it loads neither `solitons` nor `gauge`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnls_well
from dnls_well.field import make_grid, save_field
from dnls_well.solitons import ModelParams, SolitonParams, sample_phi, suggested_half_length

from conftest import random_smooth_field

PKG_PARENT = Path(dnls_well.__file__).resolve().parents[1]

_PROBE = """
import contextlib, io, json, sys
from dnls_well import cli
{preload}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
loaded = {pkg: sorted(m for m in sys.modules if m.split(".")[0] == pkg) for pkg in ("scipy", "numpy", "dnls_well", "fractions", "decimal", "numbers")}
print(json.dumps({"code": code, **loaded}))
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("import_path")
    sp = SolitonParams(ModelParams(0.1), 1.0, 0.4)
    sol = d / "sol.json"
    save_field(sample_phi(sp, make_grid(suggested_half_length(sp), 256)), sol)
    rnd = d / "rnd.json"
    rng = np.random.default_rng(7)
    save_field(random_smooth_field(rng, make_grid(30.0, 256), amp=0.05), rnd)
    return d, str(sol), str(rnd)


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG_PARENT), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(argv, preload=""):
    return _python("-c", _PROBE.replace("{preload}", preload), json.dumps(argv))


CASES = {
    "soliton": lambda d, sol, rnd: ["soliton", "--b", "0.1", "--omega", "1", "--c", "0.4",
                                    "--L", "20", "--N", "256", "--out", str(d / "out.json")],
    "report": lambda d, sol, rnd: ["report", "--field", sol, "--b", "0.1", "--omega", "1",
                                   "--c", "0.4"],
    "gauge": lambda d, sol, rnd: ["gauge", "--a", "0.25", "--in", sol, "--out", str(d / "g.json")],
    "scan": lambda d, sol, rnd: ["scan", "--b", "0.1", "--quantity", "d", "--s-from", "-0.9",
                                 "--s-to", "0.9", "--steps", "21"],
    # all five points have z < -0.99
    "scan_edge": lambda d, sol, rnd: ["scan", "--b", "-0.3", "--quantity", "d", "--s-from", "-0.6139",
                                      "--s-to", "-0.61238", "--steps", "5"],
    "threshold": lambda d, sol, rnd: ["threshold", "--b", "0.1"],
    "classify": lambda d, sol, rnd: ["classify", "--field", rnd, "--b", "0.1",
                                     "--s-grid=-0.8:0.8:5"],
    "evolve": lambda d, sol, rnd: ["evolve", "--field", sol, "--b", "0.1", "--t-end", "0.01",
                                   "--monitor-omega", "1", "--monitor-c", "0.4",
                                   "--out", str(d / "traj")],
    "verify_gauge": lambda d, sol, rnd: ["verify", "--suite", "gauge"],
    "verify_quad": lambda d, sol, rnd: ["verify", "--suite", "quad"],
    "verify_mass": lambda d, sol, rnd: ["verify", "--suite", "mass"],
    "verify_momentum": lambda d, sol, rnd: ["verify", "--suite", "momentum"],
    "verify_ode": lambda d, sol, rnd: ["verify", "--suite", "ode"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_loads_no_scipy(files, name):
    res = _run(CASES[name](*files))
    assert res["code"] == 0
    assert res["scipy"] == []


def test_guard_sees_scipy_imported_by_the_probe():
    stub = "import types; sys.modules['scipy.integrate'] = types.ModuleType('scipy.integrate')"
    res = _run(["threshold", "--b", "0.1"], preload=stub)
    assert res["code"] == 0
    assert "scipy.integrate" in res["scipy"]


def test_profile_fit_loads_no_scipy():
    res = _python("-c", """
import json, sys
from dnls_well.evolve import profile_fit
from dnls_well.field import Field, make_grid
from dnls_well.solitons import phi_one_two
g = make_grid(30.0, 512)
out = profile_fit(Field(g, phi_one_two(g.x - 1.0)))
print(json.dumps({"y": out["y"], "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
""")
    assert abs(res["y"] - 1.0) < 1e-6
    assert res["scipy"] == []


@pytest.mark.parametrize("name", ["scan", "scan_edge", "threshold"])
def test_closed_form_subcommand_loads_no_numpy(files, name):
    res = _run(CASES[name](*files))
    assert res["code"] == 0
    assert res["numpy"] == []


def test_edge_scan_loads_no_fractions(files):
    res = _run(CASES["scan_edge"](*files))
    assert res["code"] == 0
    assert res["fractions"] == res["decimal"] == res["numbers"] == []


def test_package_root_loads_no_numpy():
    res = _python("-c", "import json, sys, dnls_well; "
                        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))")
    assert res == []


def test_guard_sees_numpy_in_soliton(files):
    res = _run(CASES["soliton"](*files))
    assert res["code"] == 0
    assert "numpy" in res["numpy"]


def test_report_loads_no_solitons_or_gauge(files):
    res = _run(CASES["report"](*files))
    assert res["code"] == 0
    assert "dnls_well.functionals" in res["dnls_well"]
    assert not {"dnls_well.solitons", "dnls_well.gauge"} & set(res["dnls_well"])
