"""butcher-kit benchmark: seeded CLI and library jobs, timed end to end.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  The
last line of stdout is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Earlier lines print every metric with its unit and its raw
(unnormalised) value.  See perfbench/README.md for what each metric means.

Everything timed runs in child processes, each a fresh interpreter:
  * set-up children time `import butcher_kit.cli`, each followed by one
    job of the workload's fixed cold subset (setup_s, cold_job_s.p50);
  * warm children each import the package and then run one whole pass
    over the job list (job_s.*, jobs_per_s, peak_rss_mb).  One pass per
    process also averages over what differs between processes, such as
    the hash seed;
  * the two kinds alternate (Runner.measure) until S seconds are used;
  * with --trace 1, one warm child runs an untraced and then a traced pass.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gen
import hostref

HERE = Path(__file__).resolve().parent
WORKLOADS = ("conditions", "verify", "oracle", "forest")

# Set-up is timed at least this often per run: the cold subset is run
# whole, as often as it takes to reach this many.
SETUP_SAMPLES = 13
# The set-up children are spread over the run in this many chunks.
CHUNKS = 4
TRACE_SETUP_SAMPLES = 5
# Every child must end within this many seconds of the run's start.
RUN_CAP_S = 170.0


class ChildFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.cap = time.monotonic() + RUN_CAP_S
        self.env = dict(os.environ)
        paths = [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def child(self, script: str, *args: str) -> str:
        timeout = self.cap - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("run time cap reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / script), *args],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise ChildFailed(f"{script} did not finish within the run cap") from None
        if proc.returncode != 0:
            raise ChildFailed(f"{script} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def setup_phase(self, jobs_file: Path, docs: Path, plan: list) -> list[dict]:
        """Fresh interpreters: import time, then one cold job each (None: none)."""
        results = []
        for index in plan:
            args = () if index is None else (str(jobs_file), str(index), str(docs))
            results.append(json.loads(self.child("cold.py", *args).splitlines()[-1]))
        return results

    def warm_pass(self, jobs_file: Path, docs: Path, traced: bool) -> dict:
        out_file = self.work / "warm.json"
        self.child("warm.py", str(jobs_file), str(docs), str(int(traced)), str(out_file))
        return json.loads(out_file.read_text())

    def measure(self, jobs_file: Path, docs: Path, cold_plan: list, seconds: float):
        """Set-up children and warm passes, interleaved over the run.

        The set-up children run in chunks, one chunk before the first warm
        pass and one after each pass, so that both kinds of sample see
        every phase of the host's speed.  Passes go on while the next one,
        and the set-up children still due, fit within `seconds`.
        """
        started = time.perf_counter()
        size = -(-len(cold_plan) // CHUNKS)
        chunks = [cold_plan[i : i + size] for i in range(0, len(cold_plan), size)]
        setups = self.setup_phase(jobs_file, docs, chunks.pop(0))
        per_child = (time.perf_counter() - started) / max(1, len(setups))
        warm: dict = {"samples": [], "refs": [], "maxrss_kb": 0}
        for pass_index in itertools.count():
            pass_start = time.perf_counter()
            result = self.warm_pass(jobs_file, docs, traced=False)
            for sample in result["samples"]:
                sample["pass"] = pass_index
            warm["samples"] += result["samples"]
            warm["refs"] += result["refs"]
            warm["maxrss_kb"] = max(warm["maxrss_kb"], result["maxrss_kb"])
            pass_wall = time.perf_counter() - pass_start
            if chunks:
                setups += self.setup_phase(jobs_file, docs, chunks.pop(0))
            due = per_child * sum(len(chunk) for chunk in chunks)
            if time.perf_counter() + pass_wall + due > started + seconds:
                break
        for chunk in chunks:
            setups += self.setup_phase(jobs_file, docs, chunk)
        return setups, warm


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(setups: list[dict], warm: dict, job_count: int) -> tuple[dict, list[str]]:
    """The end-to-end metrics and their printed lines.

    job_s.p50 and job_s.p90 are percentiles over the job list of each job's
    median time over the run's passes.  Pooling every sample instead would
    let the number of passes move p90 between two neighbouring jobs of
    unlike cost, and a percentile per pass rests on one sample of each job.
    """
    norm: dict[str, list[float]] = defaultdict(list)
    raw: dict[str, list[float]] = defaultdict(list)
    per_pass: dict[int, float] = defaultdict(float)
    for sample in warm["samples"]:
        value = sample["raw_s"] * sample["scale"]
        norm[sample["id"]].append(value)
        raw[sample["id"]].append(sample["raw_s"])
        per_pass[sample["pass"]] += value
    typical = [statistics.median(values) for values in norm.values()]
    typical_raw = [statistics.median(values) for values in raw.values()]
    rates = [job_count / total for total in per_pass.values()]
    cold = [r for r in setups if "job_s" in r]
    p90 = percentile_90(typical)
    beyond = sum(value > p90 for values in norm.values() for value in values)
    metrics = {
        "setup_s": (statistics.median(r["import_s"] * r["import_scale"] for r in setups), "s"),
        "job_s.p50": (statistics.median(typical), "s"),
        "job_s.p90": (p90, "s"),
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "cold_job_s.p50": (statistics.median(r["job_s"] * r["job_scale"] for r in cold), "s"),
        "peak_rss_mb": (warm["maxrss_kb"] / 1024, "MB"),
    }
    raw_values = {
        "setup_s": statistics.median(r["import_s"] for r in setups),
        "job_s.p50": statistics.median(typical_raw),
        "job_s.p90": percentile_90(typical_raw),
        "cold_job_s.p50": statistics.median(r["job_s"] for r in cold),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "job_s.p50": f"over {job_count} jobs' medians of {len(per_pass)} passes, n={len(warm['samples'])}",
        "job_s.p90": f"over {job_count} jobs' medians of {len(per_pass)} passes, n={len(warm['samples'])}, "
        f"{beyond} samples beyond p90",
        "jobs_per_s": f"median of {len(rates)} passes of {job_count} jobs",
        "cold_job_s.p50": f"median of {len(cold)} cold jobs",
        "peak_rss_mb": "largest ru_maxrss of the warm children",
    }
    lines = []
    for name, (value, unit) in metrics.items():
        extra = f"  raw {raw_values[name]:.6g} {unit}" if name in raw_values else ""
        lines.append(f"{name:<16} {value:.6g} {unit}  ({notes[name]}){extra}")
    lines.append(f"host.ref_s       {statistics.median(warm['refs']):.6g} s  (median of {len(warm['refs'])} samples)")
    return metrics, lines


def per_layer(setups: list[dict], warm: dict) -> tuple[dict, list[str], dict]:
    host_ref = statistics.median(warm["refs"])
    factor = hostref.FRACTION_NOMINAL_S / host_ref
    totals, counts, maxima = warm["totals"], warm["counts"], warm["maxima"]

    def busy(name, kind="busy"):
        return totals.get(name, {}).get(kind, 0.0) * factor

    def ratio(num, den):
        return num / den if den else 0.0

    untraced = {s["id"]: s for s in warm["samples"] if not s["traced"]}
    traced = [s for s in warm["samples"] if s["traced"] and s["id"] in untraced]
    overhead = ratio(
        sum(s["raw_s"] * s["scale"] for s in traced),
        sum(untraced[s["id"]]["raw_s"] * untraced[s["id"]]["scale"] for s in traced),
    ) - 1.0
    tree_routes = busy("oracle.flow_trees") + busy("oracle.rk_trees")
    iteration_routes = busy("oracle.flow_picard") + busy("oracle.rk_direct")
    metrics = {
        "trees.enumerate_s": (busy("trees.enumerate"), "s"),
        "trees.enumerated": (counts.get("trees.enumerated", 0), "count"),
        "trees.factors_s": (busy("trees.factors"), "s"),
        "trees.format_s": (busy("trees.format"), "s"),
        "algebra.terms_total": (counts.get("algebra.terms_total", 0), "count"),
        "algebra.terms_max": (maxima.get("algebra.terms_max", 0), "count"),
        "algebra.coeff_bits_max": (maxima.get("algebra.coeff_bits_max", 0), "bits"),
        "algebra.render_s": (busy("algebra.render"), "s"),
        "conditions.weight_s": (busy("conditions.all_order_conditions", "self"), "s"),
        "conditions.attempted": (counts.get("conditions.attempted", 0), "count"),
        "conditions.emitted": (counts.get("conditions.emitted", 0), "count"),
        "conditions.kept_ratio": (
            ratio(counts.get("conditions.emitted", 0), counts.get("conditions.attempted", 0)),
            "ratio",
        ),
        "verify.load_s": (busy("verify.load"), "s"),
        "verify.order_s": (busy("verify.order", "self"), "s"),
        "verify.trees_checked": (counts.get("verify.trees_checked", 0), "count"),
        "verify.weight_bits_max": (maxima.get("verify.weight_bits_max", 0), "bits"),
        "oracle.flow_trees_s": (busy("oracle.flow_trees"), "s"),
        "oracle.flow_picard_s": (busy("oracle.flow_picard"), "s"),
        "oracle.rk_trees_s": (busy("oracle.rk_trees"), "s"),
        "oracle.rk_direct_s": (busy("oracle.rk_direct"), "s"),
        "oracle.differential_s": (busy("oracle.differential"), "s"),
        "oracle.tree_route_ratio": (ratio(tree_routes, iteration_routes), "ratio"),
        "oracle.nonzero_ratio": (
            ratio(counts.get("oracle.trees_nonzero", 0), counts.get("oracle.trees_attempted", 0)),
            "ratio",
        ),
        "cli.import_s": (statistics.median(r["import_s"] * r["import_scale"] for r in setups), "s"),
        "cli.parse_s": (busy("cli.parse"), "s"),
        "cli.emit_s": (busy("cli.main", "self"), "s"),
        "cli.output_bytes": (sum(s["bytes"] for s in warm["samples"] if s["traced"]), "B"),
        "host.ref_s": (host_ref, "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    estimated = {"conditions.weight_s", "verify.order_s", "cli.emit_s"}
    lines = ["per-layer metrics, totals over one traced pass (times normalised):"]
    for name, (value, unit) in metrics.items():
        tag = "  (estimated: outer span minus re-timed inner calls)" if name in estimated else ""
        lines.append(f"  {name:<24} {value:.6g} {unit}{tag}")
    layers: dict[str, float] = defaultdict(float)
    for name, entry in totals.items():
        layers[name.split(".")[0]] += entry["self"] * factor
    if warm["missing"]:
        lines.append(f"  estimated spans missing for {len(warm['missing'])} jobs whose re-timing failed")
    lines.append("self time by layer over the traced pass (s, normalised):")
    for layer, value in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"  {layer:<12} {value:.6g}")
    return metrics, lines, dict(layers)


def write_trace(path: Path, warm: dict, layers: dict) -> None:
    fields = ("id", "name", "job", "parent", "start", "end", "busy", "calls", "estimated")
    document = {
        "spans": [{key: span[key] for key in fields} for span in warm["spans"]],
        "counts": warm["counts"],
        "maxima": warm["maxima"],
        "totals": warm["totals"],
        "missing": warm["missing"],
        "layer_self_s": layers,
    }
    path.write_text(json.dumps(document) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "butcher_kit" / "cli.py").is_file():
        print("error: run from the repository root; src/butcher_kit is missing", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    runner = Runner(root, work)
    jobs, documents = gen.job_list(args.workload, args.seed)
    try:
        docs = work / "docs"
        gen.write_documents(documents, docs)
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps(jobs))
        runner.child("cold.py")  # writes bytecode caches; not timed
        if args.trace:
            setups = runner.setup_phase(jobs_file, docs, [None] * TRACE_SETUP_SAMPLES)
            warm = runner.warm_pass(jobs_file, docs, traced=True)
        else:
            cold = [i for i, job in enumerate(jobs) if job["cold"]]
            plan = cold * -(-SETUP_SAMPLES // len(cold))
            setups, warm = runner.measure(jobs_file, docs, plan, args.seconds)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(r["id"], r["failure"]) for r in setups if r.get("failure")]
    failures += [(s["id"], s["failure"]) for s in warm["samples"] if s["failure"]]
    attempted = sum(1 for r in setups if "job_s" in r) + len(warm["samples"])
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass")
    for job_id, failure in failures[:20]:
        print(f"FAILED {job_id}: {failure.strip().splitlines()[-1]}")
    print(f"failed_ratio     {len(failures)}/{attempted}")
    if args.trace:
        metrics, lines, layers = per_layer(setups, warm)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        write_trace(trace_file, warm, layers)
        lines.append(f"spans written to {trace_file.relative_to(root)}")
    else:
        metrics, lines = end_to_end(setups, warm, len(jobs))
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
