"""One benchmark interpreter: set up a workload, then time passes over it.

run.py starts this file as a fresh interpreter from the root of a checkout,
with ``src`` on PYTHONPATH.  The first statement imports ``dnls_well.cli``,
as a user's process would.  After set-up the worker prints ``READY`` and
its import time; with ``--passes 0`` it stops there.  Otherwise it warms
up, runs ``--passes`` passes over the workload's operations and prints one
JSON line with the raw timings.  With ``--trace 1`` passes alternate
between untraced and traced, and the layer probe runs last.  With
``--known-defects`` the workload's known-defect ops run once after the
passes, untimed.
"""
import time

_T0 = time.perf_counter()
import dnls_well.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calib  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
from workloads import MAKERS  # noqa: E402


REF_EVERY_S = 0.25  # longest stretch of ops between two calibration samples


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children, at µs resolution."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_pass(wl, m, tracer, index: int, traced: bool, max_ops) -> dict:
    """Run the ops once; time each, check each, and sample the calibration
    kernel at the start, at least every REF_EVERY_S between ops, and at the end.

    The pass's wall and CPU time are the sums over its ops, so neither the
    checks nor the kernel count.  Each op is scaled by the median of the two
    kernel samples on either side of it, so one disturbed sample does not
    skew it.
    """
    ops = wl.ops if max_ops is None else wl.ops[:max_ops]
    lat, lat_cpu, fails, counters, refs, op_ref = [], [], [], {}, [], []
    refs.append(calib.kernel())
    last = time.perf_counter()
    for op in ops:
        if time.perf_counter() - last >= REF_EVERY_S:
            refs.append(calib.kernel())
            last = time.perf_counter()
        op_ref.append(len(refs) - 1)
        tracer.op_id = f"{index}:{op.label}"
        t, c = time.perf_counter(), _cpu()
        try:
            res = tracer.call("op", op.run, m, tag=op.label) if traced else op.run(m)
            raised = None
        except Exception:  # an op that raises is a failure, the pass goes on
            raised = traceback.format_exc(limit=3)
        lat.append(time.perf_counter() - t)
        lat_cpu.append(_cpu() - c)
        if raised is not None:
            fails.append({"op": op.label, "error": raised})
            continue
        try:
            err = op.check(res)
        except Exception:
            err = "check raised: " + traceback.format_exc(limit=3)
        if err is not None:
            fails.append({"op": op.label, "error": err})
        if traced and op.counters is not None:
            for k, v in op.counters(res).items():
                counters[k] = counters.get(k, 0) + v
    refs.append(calib.kernel())
    op_scale = [calib.REF_S / statistics.median(refs[max(0, j - 1):j + 3]) for j in op_ref]
    return {
        "traced": traced,
        "wall_s": sum(lat),
        "cpu_s": sum(lat_cpu),
        "wall_ref_s": sum(x * f for x, f in zip(lat, op_scale)),
        "cpu_ref_s": sum(x * f for x, f in zip(lat_cpu, op_scale)),
        "lat_s": lat,
        "lat_cpu_s": lat_cpu,
        "ref_s": refs,
        "op_scale": op_scale,
        "fails": fails,
        "counters": counters,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True, help="0: set-up only")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--known-defects", action="store_true", help="run them after the passes")
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if Path(dnls_well.cli.__file__).resolve().parent.parent != src.resolve():
        print(f"dnls_well was imported from {dnls_well.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = MAKERS[args.workload](args.seed, workdir)
    print(f"READY {IMPORT_S!r}", flush=True)
    if args.passes == 0:
        return 0

    plain = tracing.Tracer(False)
    tracer = tracing.Tracer(True)
    m_plain, m_traced = tracing.package(plain), tracing.package(tracer)
    wl.warmup(m_plain)

    passes = []
    for i in range(args.passes):  # with --trace 1, untraced and traced alternate
        traced = bool(args.trace) and i % 2 == 1
        passes.append(run_pass(wl, m_traced if traced else m_plain, tracer if traced else plain,
                               i, traced, args.max_ops))

    out = {
        "passes": passes,
        "known_defects": [{"op": op.label, "error": _check_once(op, m_plain)}
                          for op in wl.known_defects if args.known_defects],
        "info": wl.info,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        spans = list(tracer.spans)
        traced = [(i, p) for i, p in enumerate(passes) if p["traced"]]
        n_traced = len(traced)
        # reference-speed factor of every traced op
        scale = {f"{i}:{op.label}": f for i, p in traced
                 for op, f in zip(wl.ops, p["op_scale"])}
        totals = tracing.module_totals(spans, scale)
        values, probe_fails, probe_checked, ode_errors = probe.run(m_traced, tracer, workdir)
        busy = sum((s[5] - s[4]) * scale[s[2]] for s in spans if s[3].startswith("evolve."))
        out["trace"] = {
            "n_traced_passes": n_traced,
            "modules": {k: {q: v / n_traced for q, v in d.items()} for k, d in totals.items()},
            "evolve_busy_s": busy / n_traced,
            "counters": {k: v / n_traced for k, v in _sum_counters(passes).items()},
            "probe": values,
            "probe_fails": probe_fails,
            "probe_checked": probe_checked,
            "ode_max_abs_err": max(ode_errors.values()),
        }
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.to_json(), fh)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["maxrss_kb"] = usage
    print(json.dumps(out), flush=True)
    return 0


def _check_once(op, m):
    """Run an op once, untimed; its check's message, or None if it passed."""
    try:
        return op.check(op.run(m))
    except Exception:
        return "raised: " + traceback.format_exc(limit=3)


def _sum_counters(passes) -> dict:
    total: dict = {}
    for p in passes:
        for k, v in p["counters"].items():
            total[k] = total.get(k, 0) + v
    return total


if __name__ == "__main__":
    raise SystemExit(main())
