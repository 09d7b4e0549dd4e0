"""Child process: run whole passes over the job list in a closed loop.

    python3 perfbench/warm.py JOBS_FILE DOCS_DIR TRACED OUT_FILE

One client: each job starts when the previous one has returned.  A small
untimed job outside the job list runs first.  With TRACED 0 one untraced
pass follows; with TRACED 1 an untraced pass and then a traced one.  A
burst of host reference samples is taken between jobs, so every job has
one right before and one right after it.  Writes per-job times and
scales, spans and ru_maxrss to OUT_FILE.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import butcher_kit.cli  # noqa: F401  (warm process: import before timing)

import hostref
from jobs import run_job


def main() -> None:
    jobs_file, docs, traced_flag, out_file = sys.argv[1:5]
    job_list = json.loads(Path(jobs_file).read_text())
    docs_dir = Path(docs)
    tracer = None
    passes = [False]
    if traced_flag == "1":
        from spans import Tracer

        tracer = Tracer()
        passes.append(True)

    _warm_up(job_list[0], docs_dir)
    refs = hostref.burst()
    all_refs = list(refs)
    samples: list[dict] = []
    for pass_index, traced in enumerate(passes):
        if traced:
            tracer.install()
        for job in job_list:
            if traced:
                tracer.job = job["id"]
            start = time.perf_counter()
            elapsed, failure, size = run_job(job, docs_dir)
            after = hostref.burst()
            all_refs += after
            samples.append(
                {
                    "id": job["id"],
                    "pass": pass_index,
                    "traced": traced,
                    "start": start,
                    "raw_s": elapsed,
                    "scale": hostref.scale(refs, after),
                    "failure": failure,
                    "bytes": size,
                }
            )
            refs = after
            if traced:
                hook_failure = tracer.run_deferred()
                if hook_failure and not failure:
                    samples[-1]["failure"] = f"after-job tracing failed:\n{hook_failure}"
                refs = hostref.burst()  # the deferred work came in between
                all_refs += refs
        if traced:
            tracer.uninstall()

    result = {
        "samples": samples,
        "refs": all_refs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["maxima"] = dict(tracer.maxima)
        result["totals"] = tracer.totals()
        result["missing"] = tracer.missing
    Path(out_file).write_text(json.dumps(result))


def _warm_up(job: dict, docs: Path) -> None:
    """One small untimed job outside the pass, so no pass starts cold."""
    if job["kind"] == "oracle":
        small = dict(job, p=2)
    else:
        small = {"kind": "cli", "argv": ["count", "--order", "4"], "expect": {"exit": 0, "counts": [1, 1, 2, 4]}}
    _, failure, _ = run_job(small, docs)
    if failure:
        raise SystemExit(f"warm-up job failed: {failure}")


if __name__ == "__main__":
    main()
