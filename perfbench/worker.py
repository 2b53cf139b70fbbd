"""One benchmark sample in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds {"src": directory holding the qpoints package,
"jobs": [argv, ...], "trace": bool}.  The worker imports qpoints.cli,
starts a SpeedClock (speed.py), runs every job through qpoints.cli.main
with stdout captured, and prints one JSON object: the monotonic clock when
the import completed, each job's exit code, nominal time and output, the
pass time in nominal and in wall seconds, the number of calibration ticks,
peak resident memory and, when traced, the per-layer figures.
A fresh interpreter per sample means no lru_cache result carries over from
one sample to the next, as for a user running the CLI.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import qpoints.cli  # noqa: E402  (the import is the set-up being timed)

ready = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402

from speed import SpeedClock  # noqa: E402  (beside this file, on sys.path)

clock = SpeedClock()
clock.start()

tracer = None
if spec["trace"]:
    from tracer import Tracer  # beside this file, on sys.path

    tracer = Tracer(clock.now)
    tracer.install()

jobs = []
pass_start, pass_start_wall = clock.now(), time.monotonic()
for argv in spec["jobs"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock.now()
        try:
            code = qpoints.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        end = clock.now()
    jobs.append({"code": code, "s": end - start, "out": out.getvalue(), "err": err.getvalue()[-2000:]})
pass_s, pass_wall_s = clock.now() - pass_start, time.monotonic() - pass_start_wall
clock.stop()
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

result = {
    "ready": ready,
    "ticks": len(clock.kernel_s),
    "jobs": jobs,
    "pass_s": pass_s,
    "pass_wall_s": pass_wall_s,
    "peak_rss_mb": peak_kb / 1024,
    "numpy": sys.modules["numpy"].__version__,
    "output_bytes": sum(len(job["out"].encode()) for job in jobs),
}
if tracer is not None:
    result["layers"] = tracer.summary()
    result["spans"] = tracer.spans
sys.stdout.write(json.dumps(result))
