"""dnls-well benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload flow|sweep|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``./src``.
Set-up is timed in several fresh interpreters (``import dnls_well.cli`` plus
input generation) and reported as the median.  With ``--trace 0`` the same
interpreters then share the passes; with ``--trace 1`` the last one runs
them all.  The interpreters run one at a time, each single-threaded
(OMP/OpenBLAS/MKL pinned to 1 thread, DNLS_WELL_THREADS unset).  End-to-end times are stated at the reference
speed of calib.py: each is scaled by the calibration kernel timed beside it.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A full record (every pass, the machine, the libraries) goes
to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from tracing import MODULES

HERE = Path(__file__).resolve().parent
INTERPRETERS = 4  # each one times its set-up; they share the passes
DEADLINE_S = 170.0
# Pass length that turns --seconds into a pass count: a run makes
# seconds // NOMINAL_PASS_S passes, at least one.  Fixing the count, rather
# than timing passes until the seconds are up, keeps the number of ops, and
# with it the rank the tail latency is read at, independent of how fast the
# host happens to be.  With --seconds 25 this gives 3 passes of flow, 16 of
# sweep and 3 of cli.
NOMINAL_PASS_S = {"flow": 7.5, "sweep": 1.5, "cli": 7.0}
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("DNLS_WELL_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(argv, env, deadline):
    """Start a worker and wait for it; return (seconds until READY, its
    import time, its last stdout line, the calibration scale for set-up)."""
    before = calib.kernel()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                            stdout=subprocess.PIPE, text=True)
    ready = import_s = last = scale = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = time.perf_counter() - t0
                scale = calib.REF_S / statistics.median([before, calib.kernel(), calib.kernel()])
                import_s = float(line.split()[1])
            elif line.strip():
                last = line
            if time.perf_counter() > deadline:
                raise BenchError("worker ran past the deadline")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker exited {code}")
    return ready, import_s, last, scale


def _tail(lat: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it."""
    xs = sorted(lat)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: list, res: dict) -> tuple[dict, list]:
    """Medians over the untraced passes, every time at the reference speed.

    Op latencies are CPU seconds (the op's process and its children): a
    shared host deschedules the VM for up to 0.1 s at random, which lands
    in single wall-clock op times but not in CPU time.
    """
    passes = [p for p in res["passes"] if not p["traced"]]
    lat = [x * f for p in passes for x, f in zip(p["lat_cpu_s"], p["op_scale"])]
    tail, pct = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "wall_s": (statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_ref_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    notes = [f"{len(passes)} passes, {len(lat)} ops; op_tail_ms is "
             f"p{pct:.1f} ({TAIL_BEYOND} ops above it)"]
    return metrics, notes


def per_layer(imports: list, res: dict) -> tuple[dict, list]:
    tr = res["trace"]
    m = {}
    for mod in MODULES:
        m[f"{mod}.calls"] = (tr["modules"][mod]["calls"], "count")
        m[f"{mod}.self_s"] = (tr["modules"][mod]["self_s"], "s")
    c = tr["counters"]
    m["evolve.busy_s"] = (tr["evolve_busy_s"], "s")
    for k in ("steps", "records", "dt_halvings", "blowups"):
        m[f"evolve.{k}"] = (c.get(k, 0), "count")
    for name, (value, unit) in tr["probe"].items():
        m[name] = (value, unit)
    m["oracle.max_abs_err"] = (tr["ode_max_abs_err"], "1")
    m["cli.import_s"] = (statistics.median(imports), "s")
    plain = [p["wall_ref_s"] for p in res["passes"] if not p["traced"]]
    traced = [p["wall_ref_s"] for p in res["passes"] if p["traced"]]
    over = statistics.median(traced) - statistics.median(plain)
    m["trace.overhead_s"] = (over, "s")
    notes = [f"tracing overhead {over:+.4f} s per pass on {statistics.median(plain):.4f} s "
             f"({len(traced)} traced, {len(plain)} untraced passes)"]
    return m, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a name in workloads.MAKERS")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--max-ops", type=int, help="run only the first N ops of one pass (smoke test)")
    args = ap.parse_args(argv)

    # a terminated run still stops its worker (see _spawn's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "dnls_well" / "cli.py").is_file():
        print("run from the root of a dnls-well checkout (no src/dnls_well here)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    # one CPU for this process and every process it starts, so that the
    # calibration kernel runs on the CPU whose speed it is meant to measure
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = _worker_env(root)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"work-{stem}-{os.getpid()}"
    n = 1 if args.max_ops is not None else max(1, int(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:  # one interpreter alternates untraced and traced passes
        counts = [0] * (INTERPRETERS - 1) + [max(2, n)]
    else:  # spread over the interpreters, so that no one process's state sets the result
        counts = [n // INTERPRETERS + (i >= INTERPRETERS - n % INTERPRETERS)
                  for i in range(INTERPRETERS)]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
              "--workdir", str(workdir)]
    try:
        setup, imports, results = [], [], []
        for i, k in enumerate(counts):
            extra = ["--passes", str(k)]
            if args.trace and k:
                extra += ["--spans-out", str(out_dir / f"spans-{stem}.json")]
            if args.max_ops is not None:
                extra += ["--max-ops", str(args.max_ops)]
            if i == len(counts) - 1:
                extra.append("--known-defects")
            t, imp, last, scale = _spawn(common + extra, env, deadline)
            setup.append((t, scale))
            imports.append(imp * scale)
            if k:
                results.append(json.loads(last))
            shutil.rmtree(workdir, ignore_errors=True)
        res = dict(results[-1])  # holds the known defects and, traced, the trace
        res["passes"] = [p for r in results for p in r["passes"]]
        res["maxrss_kb"] = max(r["maxrss_kb"] for r in results)
    except (BenchError, json.JSONDecodeError, TypeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(imports, res)
    else:
        metrics, notes = end_to_end(setup, res)
    fails = [f for p in res["passes"] for f in p["fails"]]
    attempted = sum(len(p["lat_s"]) for p in res["passes"])
    if args.trace:  # the probe's oracle checks
        fails += res["trace"]["probe_fails"]
        attempted += res["trace"]["probe_checked"]
    for f in fails:
        print(f"FAILED {f['op']}: {f['error']}", file=sys.stderr)
    notes.append(f"fail_ratio {len(fails)}/{attempted}")
    # ops kept out of the timed passes because the package gets them wrong
    for kd in res["known_defects"]:
        state = kd["error"] or "no longer reproduces; return it to the timed ops"
        print(f"KNOWN DEFECT {kd['op']}: {state}", file=sys.stderr)
        notes.append(f"known defect {kd['op']} (untimed, not in failed): "
                     f"{'reproduces' if kd['error'] else 'fixed'}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "versions": res["versions"],
        "setup_samples": [{"raw_s": t, "scale": f} for t, f in setup],
        "ref_s": calib.REF_S,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "info": res["info"],
        "known_defects": res["known_defects"],
        "passes": res["passes"],
    }
    with open(out_dir / f"result-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
