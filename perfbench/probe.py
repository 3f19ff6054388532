"""Layer probe: fixed-input timings of the public functions the per-layer
metrics name.

The probe runs at the end of every traced run, on inputs that depend on
neither the workload nor the seed, so a per-function timing means the same
thing on every workload and every commit.  Each call records one span; the
metric is the median span duration over the repeats.  The oracle entries
also check their results against the closed forms, at criterion 05's
pointwise and criterion 02's scalar tolerance.
"""
from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dnls_well import closedform as cf
from dnls_well.classifier import invariant_summary
from dnls_well.evolve import EvolveConfig
from dnls_well.field import make_grid, save_field
from dnls_well.functionals import Frame
from dnls_well.solitons import ModelParams, SolitonParams, phi_sq, sample_phi

import calib
from workloads import random_smooth_field

# criterion 05: (b, omega, c, half_length)
ODE_CASES = {
    "b0_c0": (0.0, 1.0, 0.0, 18.0),
    "b0.1_c0.8": (0.1, 1.0, 0.8, 20.0),
    "b0.1875_c1": (3.0 / 16.0, 1.0, 1.0, 20.0),
    "bm0.1_cm0.5": (-0.1, 1.0, -0.5, 18.0),
    "bm0.5_cm1.9": (-0.5, 1.0, -1.9, 25.0),
}
ODE_N = 1024
ODE_TOL = 1e-6  # criterion 05
QUAD_TOL = 1e-8  # criterion 02


@dataclass
class Entry:
    metric: str
    scale: float  # seconds -> metric unit
    reps: int
    call: Callable  # m -> result
    per: Callable | None = None  # result -> divisor, e.g. steps taken
    check: Callable | None = None  # result -> None | message, as a workload op's


def _cli_main(m, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = m.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"dnls-well {' '.join(argv)} exited {code}")
    return code


def entries(workdir: Path, errors: dict) -> list[Entry]:
    """The probe's entries; ``errors`` collects the shooting cases' profile errors."""
    rng = np.random.default_rng(0)
    fields = {n: random_smooth_field(rng, make_grid(20.0, n), amp=0.4) for n in (512, 1024, 4096)}
    p = ModelParams(0.1)
    out = []

    def step_cfg():
        return EvolveConfig(b=0.1, gauge_a=0.25, dt=1e-4)

    for n, reps in ((512, 40), (1024, 20), (4096, 8)):
        out.append(Entry(f"evolve.step_us.n{n}", 1e6, reps,
                         lambda m, f=fields[n]: m.evolve.step(f, step_cfg())))
    # records only at both ends, so the time is the stepping loop plus dt tuning
    job = EvolveConfig(b=0.1, gauge_a=0.25, t_end=0.2, record_every=10**9)
    out.append(Entry("evolve.us_per_step", 1e6, 3,
                     lambda m: m.evolve.evolve(fields[1024], job),
                     per=lambda traj: round(traj.times[-1] / traj.dt_used)))
    for n in (512, 4096):
        out.append(Entry(f"field.spectral_derivative_us.n{n}", 1e6, 100,
                         lambda m, f=fields[n]: m.field.spectral_derivative(f)))
    for n in (1024, 4096):
        path = workdir / f"probe_n{n}.json"
        out.append(Entry(f"field.save_field_ms.n{n}", 1e3, 5,
                         lambda m, f=fields[n], path=path: m.field.save_field(f, path)))
        out.append(Entry(f"field.load_field_ms.n{n}", 1e3, 5,
                         lambda m, path=path: m.field.load_field(path)))
    for n in (512, 4096):
        out.append(Entry(f"classifier.invariant_summary_us.n{n}", 1e6, 50,
                         lambda m, f=fields[n]: m.classifier.invariant_summary(f, p, Frame.GAUGE)))
    out.append(Entry("gauge.gauge_transform_us.n1024", 1e6, 50,
                     lambda m: m.gauge.gauge_transform(fields[1024], 0.25)))
    for fn in ("d_value", "soliton_mass", "soliton_momentum"):
        out.append(Entry(f"closedform.{fn}_us", 1e6, 200,
                         lambda m, fn=fn: getattr(m.closedform, fn)(p, 1.0, 0.6)))
    out.append(Entry("closedform.s_star_ms", 1e3, 10, lambda m: m.closedform.s_star(0.1)))
    out.append(Entry("closedform.mass_threshold_ms", 1e3, 10,
                     lambda m: m.closedform.mass_threshold(0.1)))
    s_grid = np.linspace(-0.8, 0.8, 9)
    out.append(Entry("classifier.classify_thm17_ms", 1e3, 5,
                     lambda m: m.classifier.classify_thm17(fields[512], p, s_grid)))
    si = invariant_summary(fields[512], p, Frame.GAUGE)
    out.append(Entry("classifier.scan_curve_us", 1e6, 100,
                     lambda m: m.classifier.scan_curve(si, p, 0.3)))
    out.append(Entry("functionals.report_us.n1024", 1e6, 50,
                     lambda m: m.functionals.report(fields[1024], p, 1.0, 0.4, Frame.GAUGE)))

    for case, (b, omega, c, L) in ODE_CASES.items():
        pc = ModelParams(b)

        def ode_check(res, pc=pc, omega=omega, c=c, case=case):
            x, phi = res
            err = float(np.max(np.abs(phi - np.sqrt(phi_sq(SolitonParams(pc, omega, c), x)))))
            errors[case] = err
            return None if err < ODE_TOL else f"profile error {err:.3g} >= {ODE_TOL}"

        out.append(Entry(f"oracle.ode_profile_s.{case}", 1.0, 1,
                         lambda m, pc=pc, omega=omega, c=c, L=L:
                         m.oracle.ode_profile(pc, omega, c, half_length=L, n=ODE_N),
                         check=ode_check))
    for which, closed in (("mass", cf.soliton_mass), ("momentum", cf.soliton_momentum)):

        def quad_check(val, closed=closed):
            err = abs(val - closed(p, 1.0, 0.4))
            return None if err < QUAD_TOL else f"quadrature off by {err:.3g}"

        out.append(Entry(f"oracle.{which}_by_quadrature_ms", 1e3, 5,
                         lambda m, which=which: getattr(m.oracle, f"{which}_by_quadrature")(p, 1.0, 0.4),
                         check=quad_check))

    sol = workdir / "probe_sol.json"
    sol512 = workdir / "probe_sol512.json"
    sp = SolitonParams(p, 1.0, 0.4)
    save_field(sample_phi(sp, make_grid(20.0, 1024)), sol)
    save_field(sample_phi(sp, make_grid(20.0, 512)), sol512)
    common = ["--b", "0.1"]
    argvs = {
        "soliton": ["soliton", *common, "--omega", "1", "--c", "0.4", "--L", "20", "--N", "1024",
                    "--out", str(workdir / "probe_out.json")],
        "report": ["report", "--field", str(sol), *common, "--omega", "1", "--c", "0.4"],
        "gauge": ["gauge", "--a", "0.25", "--in", str(sol), "--out", str(workdir / "probe_g.json")],
        "scan": ["scan", *common, "--quantity", "d", "--s-from", "-0.9", "--s-to", "0.9",
                 "--steps", "2001"],
        "threshold": ["threshold", *common],
        "classify": ["classify", "--field", str(sol), *common, "--s-grid=-0.8:0.8:9"],
        "evolve": ["evolve", "--field", str(sol512), *common, "--t-end", "0.05",
                   "--monitor-omega", "1", "--monitor-c", "0.4", "--out", str(workdir / "probe_traj")],
        "verify_quad": ["verify", "--suite", "quad"],
        "verify_mass": ["verify", "--suite", "mass", "--seed", "1"],
        "verify_gauge": ["verify", "--suite", "gauge"],
    }
    for name, argv in argvs.items():
        out.append(Entry(f"cli.main_ms.{name}", 1e3, 1, lambda m, argv=argv: _cli_main(m, argv)))
    return out


def run(m, tracer, workdir: Path) -> tuple[dict, list, int, dict]:
    """Run every entry.

    ``m`` is the traced package, so each entry call records exactly one
    span.  An entry's repeats are bracketed by the calibration kernel and
    scaled to the reference speed like every end-to-end time.  Returns
    (metric -> (value, unit), failed checks, number of checks, shooting
    case -> max profile error).
    """
    errors: dict = {}
    values, fails, checked = {}, [], 0
    tracer.op_id = "probe"
    for e in entries(workdir, errors):
        unit = {1e6: "us", 1e3: "ms", 1.0: "s"}[e.scale]
        samples = []
        before = calib.kernel()
        for _ in range(e.reps):
            first = len(tracer.spans)
            res = e.call(m)
            span = tracer.spans[first]
            samples.append((span[5] - span[4]) / (e.per(res) if e.per else 1))
            if e.check is not None:
                checked += 1
                err = e.check(res)
                if err is not None:
                    fails.append({"op": f"probe.{e.metric}", "error": err})
        ref = calib.REF_S / statistics.median([before, calib.kernel(), calib.kernel()])
        values[e.metric] = (statistics.median(samples) * ref * e.scale, unit)
    return values, fails, checked, errors
