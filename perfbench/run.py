"""End-to-end and per-layer benchmark of the qpoints CLI.

Usage, from the root of a qpoints checkout:

    python3 perfbench/run.py --workload {catalog,graph,realize,pts,all}
                             --seed N --seconds S --trace {0,1}

Each sample is a fresh interpreter (perfbench/worker.py) that imports
qpoints.cli from ./src and runs the workload's commands through
qpoints.cli.main, one after another: one single-threaded client in a closed
loop.  Samples repeat until S seconds have passed.  Every command's exit
code and output are checked (perfbench/checks.py).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1, traced and untraced samples alternate and the JSON
carries the per-layer metrics and the tracing overhead.  The lines before it
give quartiles, sample counts, the environment and the workload mix; a full
record, spans included, is written to .perfbench/ in the checkout.

Times are in nominal seconds: wall time corrected for the speed of the
shared host, which perfbench/speed.py samples while the sample runs.  The
machine is not tuned: no CPU pinning, no frequency control, no cache
drops.  Only the benchmark's own processes are touched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import ptsgen
import speed

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

#: Untraced samples taken even when they overrun --seconds.
MIN_SAMPLES = 3
#: No sample is started after this many seconds, so a run ends within 180 s.
HARD_STOP_S = 120.0
SAMPLE_TIMEOUT_S = 50.0

#: The workloads; BENCHMARK.json says why each was chosen.
WORKLOADS = ("catalog", "graph", "realize", "pts")


def _commands(workload: str, seed: int, inputs: Path):
    """The workload's commands as (argv, check) pairs, and the input mix."""
    if workload == "catalog":
        return [(["enumerate", "5", "--adequate"], checks.check_catalog5)], None
    if workload == "graph":
        return [
            (["graph", "4"], checks.check_graph4),
            (["graph", "5", "--long", "--json"], checks.check_graph5),
        ], None
    if workload == "realize":
        return [(["realize", "--class", "5", "all"], checks.check_realize5)], None
    paths, expected, mix = ptsgen.generate(seed, inputs)
    commands = [
        (["pts", str(path), "--json"], lambda code, out, facts=facts: checks.check_pts(code, out, facts))
        for path, facts in zip(paths, expected)
    ]
    return commands, mix


def environment(numpy_version: str | None) -> dict:
    """What the numbers were measured on."""
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": None,
        "caches": {},
        "tuning": "none: no CPU pinning, no frequency control, no cache drops; only the benchmark's own processes are touched",
    }
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def _stats(values: list[float]) -> dict:
    """The median as the value, with the quartiles and the sample count."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def run_sample(root: Path, commands, trace: bool) -> dict:
    """Run one worker; return its timings and the problems its outputs show."""
    spec = json.dumps({"src": str(root / "src"), "jobs": [argv for argv, _ in commands], "trace": trace})
    reference_s = speed.reference_startup()
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), spec],
            cwd=root, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"worker timed out after {SAMPLE_TIMEOUT_S} s"]}
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"ok": False, "problems": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    problems = []
    for (argv, check), job in zip(commands, result["jobs"]):
        found = check(job["code"], job["out"])
        if found:
            problems.append({"argv": argv, "problems": found, "stderr": job["err"]})
    setup_wall_s = result["ready"] - start
    result.update(
        ok=True,
        setup_s=setup_wall_s * speed.STARTUP_NOMINAL_S / reference_s,
        setup_wall_s=setup_wall_s,
        reference_s=reference_s,
        trace=trace,
        problems=problems,
    )
    for job in result["jobs"]:
        del job["out"]
    return result


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Sample one workload for `seconds` and reduce the samples to metrics."""
    inputs = root / ".perfbench" / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        commands, mix = _commands(workload, seed, inputs)
        begin = time.monotonic()
        samples = []
        while True:
            elapsed = time.monotonic() - begin
            untraced = [s for s in samples if not s.get("trace")]
            enough = elapsed >= seconds and len(untraced) >= MIN_SAMPLES and (not trace or len(untraced) < len(samples))
            if enough or elapsed >= HARD_STOP_S:
                break
            samples.append(run_sample(root, commands, trace and len(samples) % 2 == 1))
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    good = [s for s in samples if s["ok"]]
    attempted = len(commands) * len(samples)
    failed = sum(len(commands) for s in samples if not s["ok"]) + sum(len(s["problems"]) for s in good)
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mix": mix,
        "environment": environment(good[0]["numpy"] if good else None),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for s in samples for p in s["problems"]][:20],
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
    }
    if not plain or (trace and not traced):
        return record

    # A job is one CLI command.  The percentiles are taken per pass, over
    # the pass's commands, and reported as their median over the passes: a
    # pooled percentile of pts would fall on the boundary between two of
    # the stream's 40 slots and flip between their latencies.
    job_times = [job["s"] for s in plain for job in s["jobs"]]
    p50s = [statistics.median(job["s"] for job in s["jobs"]) for s in plain]
    p90s = [_p90([job["s"] for job in s["jobs"]]) for s in plain]
    p90 = statistics.median(p90s)
    record["wall"] = {
        "setup_s": statistics.median(s["setup_wall_s"] for s in good),
        "solve_s": statistics.median(s["pass_wall_s"] for s in plain),
        "reference_s": statistics.median(s["reference_s"] for s in good),
    }
    stats = {
        "setup_s": _stats([s["setup_s"] for s in good]),
        "solve_s": _stats([s["pass_s"] for s in plain]),
        "peak_rss_mb": _stats([s["peak_rss_mb"] for s in plain]),
        "job_s.p50": _stats(p50s),
        "job_s.p90": {**_stats(p90s), "beyond": sum(1 for t in job_times if t > p90), "jobs": len(job_times)},
    }
    record["stats"] = stats
    if trace:
        layers = {name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
        layers["cli.output_bytes"] = statistics.median(s["output_bytes"] for s in traced)
        layers["trace.overhead_ratio"] = statistics.median(s["pass_s"] for s in traced) / stats["solve_s"]["value"]
        record["layers"] = layers
        record["layer_samples"] = len(traced)
        record["spans"] = traced[-1]["spans"]
    return record


def report(record: dict, spec: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    env = record["environment"]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == record["workload"])
    print(f"workload {record['workload']}: {why}")
    print(f"seed {record['seed']}, {record['seconds']} s, trace {int(record['trace'])}, "
          f"{len(record['samples'])} samples, one client, closed loop")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']} "
          f"(affinity {env['affinity']}), cpu {env['cpu']}, caches {env['caches']}; tuning: {env['tuning']}")
    if record["mix"]:
        print(f"pts mix: {json.dumps(record['mix'])}")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"failed_ratio {ratio:.4f} (failed {record['failed']} of {record['attempted']} commands)")
    for problem in record["problems"][:5]:
        print(f"  problem: {problem}")
    metrics = {}
    if "wall" in record:
        wall = record["wall"]
        print(f"wall time medians, not corrected for host speed: setup {wall['setup_s']:.6g} s, "
              f"pass {wall['solve_s']:.6g} s (calibration ticks included), "
              f"reference start-up {wall['reference_s']:.6g} s")
    if "stats" in record and not record["trace"]:
        for metric in spec["end_to_end"]:
            s = record["stats"][metric["name"]]
            quartiles = f" q1 {s['q1']:.6g} q3 {s['q3']:.6g}" if "q1" in s else ""
            beyond = f" ({s['beyond']} of {s['jobs']} jobs beyond it)" if "beyond" in s else ""
            print(f"{metric['name']:<12} {s['value']:.6g} {metric['unit']}{quartiles} n {s['n']}{beyond}")
            metrics[metric["name"]] = {"value": s["value"], "unit": metric["unit"]}
    elif "layers" in record:
        print(f"per-layer medians over {record['layer_samples']} traced samples")
        for metric in spec["per_layer"]:
            value = record["layers"][metric["name"]]
            print(f"{metric['name']:<30} {value:.6g} {metric['unit']}")
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": record["failed"] == 0 and bool(metrics),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qpoints" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a qpoints checkout (src/qpoints and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        record = measure(root, workload, args.seed, args.seconds, bool(args.trace))
        result = report(record, spec)
        (out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        if not result["metrics"]:
            print(f"error: no sample of {workload} completed", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
