"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

From the root of a checkout: every workload runs its first op once, with its
checks, and the metric names and units printed with ``--trace 0`` must match
``end_to_end`` in BENCHMARK.json.  One traced run (``sweep``, which also runs
the whole layer probe) must print exactly the ``per_layer`` metrics.  Each
known-defect op (see workloads.KNOWN_DEFECT_B) must still fail its check.
Exits non-zero on the first mismatch or failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--max-ops", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(res: dict, specs: list, label: str) -> None:
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise SystemExit(f"{label}: checks failed ({res['failed']}/{res['attempted']})")
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise SystemExit(f"{label}: missing {missing}, unexpected {extra}, unit mismatch {units}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise SystemExit(f"{label}: {k} is not a number")
    print(f"ok {label}: {res['attempted']} op(s), {len(got)} metrics")


def known_defects(workload: str) -> None:
    """Every known-defect op of the last run must still fail its check; one
    that passes is fixed and belongs back among the timed ops."""
    rec = json.loads((OUT / f"result-{workload}-seed1-trace0.json").read_text())
    for kd in rec["known_defects"]:
        if kd["error"] is None:
            raise SystemExit(f"{workload}: known defect {kd['op']} no longer reproduces; "
                             "move it back into the workload's timed ops")
        print(f"known defect {workload} {kd['op']}: {kd['error']}")


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for name in (w["name"] for w in spec["workloads"]):
        expect(run(name, 0), spec["end_to_end"], f"{name} --trace 0")
        known_defects(name)
    expect(run("sweep", 1), spec["per_layer"], "sweep --trace 1")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
