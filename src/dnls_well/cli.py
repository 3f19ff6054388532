"""dnls-well: one executable for profiles, reports, scans, and verification.

Exit codes: 0 success, 1 domain error (bad parameters), 2 numerical failure,
64 usage error.

Each subcommand imports the modules it runs when it runs, so `threshold` and
`scan`, which need only the closed forms, start without numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import closedform
from .closedform import ModelParams

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _cmd_soliton(args) -> int:
    from .field import make_grid, save_field
    from .solitons import SolitonParams, sample_capital_phi, sample_phi, sample_varphi

    sp = SolitonParams(ModelParams(args.b), args.omega, args.c)
    g = make_grid(args.L, args.N)
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
    rep = report(
        f, ModelParams(args.b), args.omega, args.c, Frame(args.frame)
    )
    json.dump(rep.to_dict(), sys.stdout)
    print()
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
    """np.linspace(lo, hi, n) for n >= 2 in plain floats, bit for bit.

    Like numpy, point i is i*step + lo, or (i/(n-1))*(hi-lo) + lo when the
    step rounds to 0, and the last point is hi exactly.
    """
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

    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("s,value\n")
        for s, v in zip(s_values, values):
            out.write(f"{_fmt(s)},{_fmt(v)}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_threshold(args) -> int:
    if args.b > 0:
        s, m = closedform.turning_point(args.b)
        result = {"M_star": m, "s_star": s}
    else:
        result = {"M_star": closedform.mass_threshold(args.b)}
    json.dump(result, sys.stdout)
    print()
    return 0


def _parse_s_grid(text: str):
    import numpy as np

    lo, hi, n = text.split(":")
    return np.linspace(float(lo), float(hi), int(n)).tolist()


def _cmd_classify(args) -> int:
    from .classifier import classify_thm17
    from .field import load_field
    from .functionals import Frame

    f = load_field(args.field)
    s_grid = _parse_s_grid(args.s_grid) if args.s_grid else None
    res = classify_thm17(f, ModelParams(args.b), s_grid, Frame(args.frame))
    json.dump(res.to_dict(), sys.stdout)
    print()
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
    with open(out / "drift.csv", "w") as fh:
        fh.write("t,dE,dM,dP\n")
        for row in traj.drift:
            fh.write(
                f"{_fmt(row['t'])},{_fmt(row['dE'])},"
                f"{_fmt(row['dM'])},{_fmt(row['dP'])}\n"
            )
    for i, (t, snap) in enumerate(traj.snapshots):
        save_field(snap, out / f"snap_{i:06d}.json")
    summary = {
        "status": traj.status,
        "reason": traj.reason,
        "n_steps": traj.n_steps,
        "dt_used": traj.dt_used,
        "dt_trail": traj.dt_trail,
        "peak_drift": traj.peak_drift,
        "phase_s": traj.phase_s,
        "t_final": traj.times[-1],
        "apriori_bound": traj.apriori_bound,
        "k_signs": traj.k_signs,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh)
    if traj.status != "ok":
        return 2
    return 0


def _verify_quad() -> dict:
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
    return _verdict("quad", checks)


def _verify_ode() -> dict:
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
    return _verdict("ode", checks)


def _sample_triples(rng, gamma_positive: bool):
    """Ten random (b, omega, c) in the existence region, on one side of gamma = 0."""
    triples = []
    while len(triples) < 10:
        if gamma_positive:
            b = rng.uniform(-3.0 / 16.0 + 0.02, 0.5)
            s = rng.uniform(-0.95, 0.95)
        else:
            b = rng.uniform(-0.6, -3.0 / 16.0 - 0.02)
            sl = closedform.s_lower(ModelParams(b))
            if sl > 0.9:
                continue
            s = rng.uniform(-0.95, -sl - 0.02)
        omega = rng.uniform(0.5, 2.0)
        triples.append((b, omega, 2.0 * s * math.sqrt(omega)))
    return triples


def _verify_scalar(name: str, seed: int) -> dict:
    import numpy as np

    from . import oracle

    rng = np.random.default_rng(seed)
    closed = {
        "mass": closedform.soliton_mass,
        "momentum": closedform.soliton_momentum,
    }[name]
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
    return _verdict(name, checks)


def _verify_gauge() -> dict:
    from .evolve import gauge_consistency
    from .field import make_grid
    from .solitons import SolitonParams, sample_phi, suggested_half_length

    sp = SolitonParams(ModelParams(0.05), 1.0, 0.4)
    L = suggested_half_length(sp)
    g = make_grid(L, 512)
    f = sample_phi(sp, g)
    dist = gauge_consistency(f, 0.05, t_end=0.05)
    return _verdict("gauge", [{"name": "cross-check L2", "error": dist, "tol": 1e-5}])


def _verdict(suite: str, checks: list) -> dict:
    ok = all(c["error"] < c["tol"] for c in checks)
    return {
        "suite": suite,
        "pass": ok,
        "worst_error": max(c["error"] for c in checks),
        "checks": checks,
    }


def _cmd_verify(args) -> int:
    if args.suite == "quad":
        res = _verify_quad()
    elif args.suite == "ode":
        res = _verify_ode()
    elif args.suite in ("mass", "momentum"):
        res = _verify_scalar(args.suite, args.seed)
    else:
        res = _verify_gauge()
    json.dump(res, sys.stdout)
    print()
    return 0 if res["pass"] else 2


def _build_parser() -> _Parser:
    p = _Parser(prog="dnls-well", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("soliton", parents=[], help="sample a soliton profile")
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--which", choices=["Phi", "varphi", "phi"], default="phi")
    sp.set_defaults(fn=_cmd_soliton)

    rp = sub.add_parser("report", help="functional report of a field")
    rp.add_argument("--field", required=True)
    rp.add_argument("--b", type=float, required=True)
    rp.add_argument("--omega", type=float, required=True)
    rp.add_argument("--c", type=float, required=True)
    rp.add_argument("--frame", choices=["dnls", "gauge"], default="dnls")
    rp.set_defaults(fn=_cmd_report)

    gp = sub.add_parser("gauge", help="apply the gauge transform")
    gp.add_argument("--a", type=float, required=True)
    gp.add_argument("--in", required=True)
    gp.add_argument("--out", required=True)
    gp.set_defaults(fn=_cmd_gauge)

    sc = sub.add_parser("scan", help="closed-form curve scan over s")
    sc.add_argument("--b", type=float, required=True)
    sc.add_argument("--quantity", choices=sorted(_SCAN_FUNCS), required=True)
    sc.add_argument("--s-from", type=float, required=True)
    sc.add_argument("--s-to", type=float, required=True)
    sc.add_argument("--steps", type=int, required=True)
    sc.add_argument("--out")
    sc.set_defaults(fn=_cmd_scan)

    th = sub.add_parser("threshold", help="mass threshold M_star (and s_star)")
    th.add_argument("--b", type=float, required=True)
    th.set_defaults(fn=_cmd_threshold)

    cl = sub.add_parser("classify", help="well membership classification")
    cl.add_argument("--field", required=True)
    cl.add_argument("--b", type=float, required=True)
    cl.add_argument("--s-grid", help="lo:hi:n; write --s-grid=lo:hi:n when lo is negative")
    cl.add_argument("--frame", choices=["dnls", "gauge"], default="gauge")
    cl.set_defaults(fn=_cmd_classify)

    ev = sub.add_parser("evolve", help="time integration")
    ev.add_argument("--field", required=True)
    ev.add_argument("--b", type=float, required=True)
    ev.add_argument("--a", type=float, choices=[0.0, 0.25], default=0.0)
    ev.add_argument("--dt", type=float, default=1e-3)
    ev.add_argument("--t-end", type=float, required=True)
    ev.add_argument("--monitor-omega", type=float)
    ev.add_argument("--monitor-c", type=float)
    ev.add_argument("--out", required=True)
    ev.set_defaults(fn=_cmd_evolve)

    vf = sub.add_parser("verify", help="oracle self-checks")
    vf.add_argument("--suite", choices=["quad", "ode", "mass", "momentum", "gauge"], required=True)
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
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"dnls-well: domain error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"dnls-well: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
