"""Child process: time `import butcher_kit.cli`, then optionally run one job.

    python3 perfbench/cold.py [JOBS_FILE INDEX DOCS_DIR]

Only sys and time are loaded before the timer starts, so the import time
covers every module the CLI pulls in beyond interpreter start-up.  An
int-only reference loop runs before and after each timed piece (its code
is inlined here so that nothing is imported first).  The job is also
bracketed by the Fraction loop of hostref.py, and its scale is the
geometric mean of the two loops' scales: in fresh interpreters either loop
alone followed the host about half as well (see hostref.py).  Prints one
JSON object: import_s and its scale, and for a job also job_s, its scale
and failure.
"""

import sys
import time


def int_sample():
    start = time.perf_counter()
    total = 0
    for i in range(1, 6000):
        total += (i * i) % 7
    return time.perf_counter() - start


BURST = 5
before = [int_sample() for _ in range(BURST)]
start = time.perf_counter()
import butcher_kit.cli  # noqa: E402,F401  (the import being timed)

import_s = time.perf_counter() - start
after = [int_sample() for _ in range(BURST)]

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import hostref  # noqa: E402

result = {
    "import_s": import_s,
    "import_scale": hostref.scale(before, after, hostref.INT_NOMINAL_S),
}
if len(sys.argv) == 4:
    from jobs import run_job

    job = json.loads(Path(sys.argv[1]).read_text())[int(sys.argv[2])]
    hostref.fraction_sample()  # the loop's own first run is slow
    fraction_before = hostref.burst(count=BURST)
    job_s, failure, _ = run_job(job, Path(sys.argv[3]))
    fraction_after = hostref.burst(count=BURST)
    int_scale = hostref.scale(after, [int_sample() for _ in range(BURST)], hostref.INT_NOMINAL_S)
    fraction_scale = hostref.scale(fraction_before, fraction_after)
    result.update(
        id=job["id"],
        job_s=job_s,
        job_scale=(int_scale * fraction_scale) ** 0.5,
        failure=failure,
    )
print(json.dumps(result))
