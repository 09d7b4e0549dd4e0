"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--write perfbench/baseline.json]

Runs perfbench/run.py once per seed 1..10 and workload of BENCHMARK.json,
one run at a time, and prints for each metric the median and the
interquartile range as a share of the median, with
statistics.quantiles(values, n=4).  host.ref_s is
recorded beside them, so a slow phase of the host reads as noise.  With
--write it stores the figures; the stored file claims no speed-up.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
HOST_LINE = "host.ref_s"
SEEDS = range(1, 11)


def one_run(workload: str, seed: int) -> tuple[dict, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    host = next(float(line.split()[1]) for line in lines if line.startswith(HOST_LINE))
    return {name: m["value"] for name, m in result["metrics"].items()}, host


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"claim": None, "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [one_run(workload, seed) for seed in SEEDS]
        entry = {name: summarise([r[0][name] for r in runs]) for name in bounds}
        entry["host.ref_s"] = summarise([r[1] for r in runs])
        report["workloads"][workload] = entry
        for name, stats in entry.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else f"  bound {bound}  {'ok' if stats['spread'] < bound / 3 else 'WIDE'}"
            print(f"{workload:<11} {name:<15} median {stats['median']:.6g}  spread {stats['spread']:.3f}{verdict}",
                  flush=True)
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
