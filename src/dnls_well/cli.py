"""dnls-well: one executable for profiles, reports, scans, and verification.

Exit codes: 0 success, 1 domain error (bad parameters or an unusable path),
2 numerical failure, 64 usage error.

Each subcommand imports the modules it runs when it runs, so `threshold` and
`scan`, which need only the closed forms, start without numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import closedform
from .closedform import B_CRIT, ModelParams

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(fh, header: str, rows) -> None:
    """header, then each row of floats as one line of `_fmt` values."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(map(_fmt, row)) + "\n")


def _print_json(obj) -> None:
    """obj as one line of JSON on stdout."""
    print(json.dumps(obj))


def _cmd_soliton(args) -> int:
    from .field import Grid, save_field
    from .solitons import SolitonParams, sample_capital_phi, sample_phi, sample_varphi

    sp = SolitonParams(ModelParams(args.b), args.omega, args.c)
    g = Grid(args.L, args.N)
    sampler = {
        "Phi": sample_capital_phi,
        "varphi": sample_varphi,
        "phi": sample_phi,
    }[args.which]
    save_field(sampler(sp, g), args.out)
    return 0


def _cmd_report(args) -> int:
    from .field import load_field
    from .functionals import Frame, report

    f = load_field(args.field)
    rep = report(f, ModelParams(args.b), args.omega, args.c, Frame[args.frame.upper()])
    _print_json(rep.to_dict())
    return 0


def _cmd_gauge(args) -> int:
    from .field import load_field, save_field
    from .gauge import gauge_transform

    f = load_field(getattr(args, "in"))
    save_field(gauge_transform(f, args.a), args.out)
    return 0


_SCAN_FUNCS = {
    "mass": closedform.soliton_mass,
    "momentum": closedform.soliton_momentum,
    "energy": closedform.soliton_energy,
    "d": closedform.d_value,
}


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) for n >= 2 in plain floats, bit for bit: like
    numpy, point i is i*step + lo, or (i/(n-1))*(hi-lo) + lo when the step
    rounds to 0, and the last point is hi exactly."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        pts = [i / div * delta + lo for i in range(n)]
    else:
        pts = [i * step + lo for i in range(n)]
    pts[-1] = hi
    return pts


def _cmd_scan(args) -> int:
    p = ModelParams(args.b)
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    s_values = _linspace(args.s_from, args.s_to, args.steps)
    fn = _SCAN_FUNCS[args.quantity]
    values = [fn(p, 1.0, 2.0 * s) for s in s_values]

    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as fh:
        _write_csv(fh, "s,value", zip(s_values, values))
    return 0


def _cmd_threshold(args) -> int:
    s, m = ModelParams(args.b).turning
    _print_json({"M_star": m} if s is None else {"M_star": m, "s_star": s})
    return 0


def _parse_s_grid(text: str) -> list[float]:
    import numpy as np

    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), int(n)).tolist()


def _cmd_classify(args) -> int:
    from .classifier import classify_thm17
    from .field import load_field
    from .functionals import Frame

    f = load_field(args.field)
    s_grid = _parse_s_grid(args.s_grid) if args.s_grid else None
    res = classify_thm17(f, ModelParams(args.b), s_grid, Frame[args.frame.upper()])
    _print_json(res.to_dict())
    return 0


def _cmd_evolve(args) -> int:
    from pathlib import Path

    from .evolve import EvolveConfig, evolve
    from .field import load_field, save_field

    f = load_field(args.field)
    cfg = EvolveConfig(b=args.b, gauge_a=args.a, dt=args.dt, t_end=args.t_end)
    monitor = None if args.monitor_omega is None else (args.monitor_omega, args.monitor_c)
    traj = evolve(f, cfg, monitor=monitor)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # an earlier run's snapshots would outlive this run's records
    for old in out.glob("snap_*.json"):
        old.unlink()
    with open(out / "drift.csv", "w") as fh:
        _write_csv(fh, "t,dE,dM,dP", ([r["t"], r["dE"], r["dM"], r["dP"]] for r in traj.drift))
    for i, (t, snap) in enumerate(traj.snapshots):
        save_field(snap, out / f"snap_{i:06d}.json")
    summary = {
        "status": traj.status,
        "reason": traj.reason,
        "n_steps": traj.n_steps,
        "dt_used": traj.dt_used,
        "dt_trail": traj.dt_trail,
        "peak_drift": traj.peak_drift,
        "peak_tail": traj.peak_tail,
        "phase_s": traj.phase_s,
        "t_final": traj.n_steps * traj.dt_used,
        "apriori_bound": traj.apriori_bound,
        "k_signs": traj.k_signs,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh)
    if traj.status != "ok":
        return 2
    return 0


def _verify_quad() -> list:
    import numpy as np

    from .oracle import adaptive_quad

    checks = []
    v = adaptive_quad(lambda y: 1.0 / (np.cosh(y) + 1.0), -np.inf, np.inf)
    checks.append({"name": "cosh+1", "error": abs(v - 2.0), "tol": 1e-10})
    v = adaptive_quad(lambda y: 1.0 / np.cosh(y) ** 2, -np.inf, np.inf)
    checks.append({"name": "sech^2", "error": abs(v - 2.0), "tol": 1e-10})
    v = adaptive_quad(lambda y: 1.0 / (np.cosh(y) + 3.0), -np.inf, np.inf)
    ref = closedform.cosh_integral(3.0, 1)
    checks.append({"name": "cosh+3", "error": abs(v - ref), "tol": 1e-9})
    return checks


def _verify_ode() -> list:
    import numpy as np

    from . import oracle
    from .solitons import SolitonParams, phi_sq

    checks = []
    p = ModelParams(0.0)
    x, phi = oracle.ode_profile(p, 1.0, 0.0, half_length=15.0, n=512)
    checks.append({"name": "peak b=0", "error": abs(phi[len(phi) // 2] - 2.0), "tol": 1e-7})
    for name, b, c in (("b=3/16", 3.0 / 16.0, 1.0), ("b=-2", -2.0, -1.94)):
        p = ModelParams(b)
        sp = SolitonParams(p, 1.0, c)
        x, phi = oracle.ode_profile(p, 1.0, c, half_length=20.0, n=1024)
        err = float(np.max(np.abs(phi - np.sqrt(phi_sq(sp, x)))))
        checks.append({"name": f"pointwise {name}", "error": err, "tol": 1e-6})
    return checks


def _sample_triples(rng, gamma_positive: bool):
    """Ten random (b, omega, c) in the existence region, on one side of gamma = 0."""
    triples = []
    for _ in range(10):
        if gamma_positive:
            b = rng.uniform(B_CRIT + 0.02, 0.5)
            s = rng.uniform(-0.95, 0.95)
        else:
            b = rng.uniform(-0.6, B_CRIT - 0.02)
            s = rng.uniform(-0.95, ModelParams(b).s_hi - 0.02)
        omega = rng.uniform(0.5, 2.0)
        triples.append((b, omega, 2.0 * s * math.sqrt(omega)))
    return triples


def _verify_scalar(name: str, seed: int) -> list:
    import numpy as np

    from . import oracle

    rng = np.random.default_rng(seed)
    closed = _SCAN_FUNCS[name]
    quad = {
        "mass": oracle.mass_by_quadrature,
        "momentum": oracle.momentum_by_quadrature,
    }[name]
    checks = []
    for positive in (True, False):
        for b, omega, c in _sample_triples(rng, positive):
            p = ModelParams(b)
            err = abs(closed(p, omega, c) - quad(p, omega, c))
            checks.append(
                {"name": f"b={b:.4g},omega={omega:.4g},c={c:.4g}", "error": err, "tol": 1e-8}
            )
    return checks


def _verify_gauge() -> list:
    from .evolve import gauge_consistency
    from .field import Grid
    from .solitons import SolitonParams, sample_phi, suggested_half_length

    sp = SolitonParams(ModelParams(0.05), 1.0, 0.4)
    f = sample_phi(sp, Grid(suggested_half_length(sp), 512))
    dist = gauge_consistency(f, 0.05, t_end=0.05)
    return [{"name": "cross-check L2", "error": dist, "tol": 1e-5}]


# suite name -> its checks, given the seed that only the scalar suites draw from
_VERIFY_SUITES = {
    "quad": lambda seed: _verify_quad(),
    "ode": lambda seed: _verify_ode(),
    "mass": lambda seed: _verify_scalar("mass", seed),
    "momentum": lambda seed: _verify_scalar("momentum", seed),
    "gauge": lambda seed: _verify_gauge(),
}


def _cmd_verify(args) -> int:
    checks = _VERIFY_SUITES[args.suite](args.seed)
    ok = all(c["error"] < c["tol"] for c in checks)
    worst = max(c["error"] for c in checks)
    _print_json({"suite": args.suite, "pass": ok, "worst_error": worst, "checks": checks})
    return 0 if ok else 2


def _build_parser() -> _Parser:
    p = _Parser(prog="dnls-well", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    # the options several subcommands share, each declared once; a subcommand
    # lists its parents first, so they come first in its usage and help
    with_field, with_b, with_omega_c = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    with_field.add_argument("--field", required=True)
    with_b.add_argument("--b", type=float, required=True)
    with_omega_c.add_argument("--omega", type=float, required=True)
    with_omega_c.add_argument("--c", type=float, required=True)

    sp = sub.add_parser("soliton", parents=[with_b, with_omega_c], help="sample a soliton profile")
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--which", choices=["Phi", "varphi", "phi"], default="phi")
    sp.set_defaults(fn=_cmd_soliton)

    rp = sub.add_parser(
        "report", parents=[with_field, with_b, with_omega_c], help="functional report of a field"
    )
    rp.add_argument("--frame", choices=["dnls", "gauge"], default="dnls")
    rp.set_defaults(fn=_cmd_report)

    gp = sub.add_parser("gauge", help="apply the gauge transform")
    gp.add_argument("--a", type=float, required=True)
    gp.add_argument("--in", required=True)
    gp.add_argument("--out", required=True)
    gp.set_defaults(fn=_cmd_gauge)

    sc = sub.add_parser("scan", parents=[with_b], help="closed-form curve scan over s")
    sc.add_argument("--quantity", choices=sorted(_SCAN_FUNCS), required=True)
    sc.add_argument("--s-from", type=float, required=True)
    sc.add_argument("--s-to", type=float, required=True)
    sc.add_argument("--steps", type=int, required=True)
    sc.add_argument("--out")
    sc.set_defaults(fn=_cmd_scan)

    th = sub.add_parser("threshold", parents=[with_b], help="mass threshold M_star (and s_star)")
    th.set_defaults(fn=_cmd_threshold)

    cl = sub.add_parser(
        "classify", parents=[with_field, with_b], help="well membership classification"
    )
    cl.add_argument("--s-grid", help="lo:hi:n; write --s-grid=lo:hi:n when lo is negative")
    cl.add_argument("--frame", choices=["dnls", "gauge"], default="gauge")
    cl.set_defaults(fn=_cmd_classify)

    ev = sub.add_parser("evolve", parents=[with_field, with_b], help="time integration")
    ev.add_argument("--a", type=float, choices=[0.0, 0.25], default=0.0)
    ev.add_argument("--dt", type=float, default=1e-3)
    ev.add_argument("--t-end", type=float, required=True)
    ev.add_argument("--monitor-omega", type=float)
    ev.add_argument("--monitor-c", type=float)
    ev.add_argument("--out", required=True)
    ev.set_defaults(fn=_cmd_evolve)

    vf = sub.add_parser("verify", help="oracle self-checks")
    vf.add_argument("--suite", choices=list(_VERIFY_SUITES), required=True)
    vf.add_argument("--seed", type=int, default=12345)
    vf.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "evolve" and (args.monitor_omega is None) != (args.monitor_c is None):
        parser.error("evolve: --monitor-omega and --monitor-c go together")
    # RegionError and GridError subclass ValueError, QuadratureError and
    # ShootingError RuntimeError, so the subcommands' own errors land here
    try:
        return args.fn(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"dnls-well: domain error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"dnls-well: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
