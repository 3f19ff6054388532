"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads flow,sweep] \\
        [--traced-seed 1] [--out perfbench/baseline/seed.json]

From the root of a checkout.  For every workload it runs run.py once per
seed with ``--trace 0``, then reports per end-to-end metric the median,
the quartiles and the spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  With ``--traced-seed``
it adds one ``--trace 1`` run per workload.  The summary, with the machine
and library versions of the first run, is printed and optionally saved.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med, "q1": q1,
                     "q3": q3, "spread": (q3 - q1) / med, "values": values}
    return out


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=None, help="comma list; default: all in BENCHMARK.json")
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in workloads:
        results = [run(w, s, bench["run_seconds"], 0) for s in args.seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarise(results),
        }
        if args.traced_seed is not None:
            traced = run(w, args.traced_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][w] = entry
        print(f"{w}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {s['median']:.5g} {s['unit']}  spread {s['spread']:.2%}"
                  f" (bound {bounds[name]:.0%}){flag}")
    first = json.loads((OUT / f"result-{workloads[0]}-seed{args.seeds[-1]}-trace0.json").read_text())
    summary["machine"] = first["machine"]
    summary["versions"] = first["versions"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
