"""trilink benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload queries|realize|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured in several fresh
processes (``PARTS``) one after another: each times its set-up, then runs
its share of the timed loop.  Set-up time is the median over them.  On
``queries`` and ``realize`` an operation's latency is the fastest execution
of the same command in the run (``FASTEST_OF_REPEATS``).  With ``--trace 1`` one process measures per-layer metrics (see
``tracer.py``).  Each workload process is single-threaded:
numpy/BLAS thread counts are pinned to 1.  Every metric is printed by
name and unit with the machine it ran on; the last line of standard
output is one JSON object for tools.  See README.md for the workloads and
metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import WORKLOADS, fastest_per_command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Fresh processes per run.  Each measures its set-up, then runs an equal
#: share of the timed loop, so set-up samples spread over the whole run.
PARTS = {"queries": 10, "realize": 4, "verify": 4}
#: Workloads whose operation latency is the fastest execution of the same
#: command in the run.  A queries or realize command takes milliseconds to
#: half a second and recurs ten or more times, so its fastest execution is
#: one the host did not slow down.  A verify call takes seconds, longer than
#: the host stays fast, so its fastest execution is an outlier; verify
#: latencies are as measured.
FASTEST_OF_REPEATS = {"queries": True, "realize": True, "verify": False}
#: Every run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170.0

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

#: End-to-end metric -> unit.  ``fail_ratio`` is printed too, but it is 0
#: on a healthy workload, so the bounded metric is its complement ok_ratio.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a workload process; return (seconds until it printed ``ready``, its summary)."""
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if ready.strip() != "ready" or code != 0 or not lines:
        raise BenchError(f"workload process {args} exited with status {code}")
    return setup, json.loads(lines[-1])


def workload_args(args, part: int, seconds: float) -> list[str]:
    return ["--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
            "--seconds", str(seconds), "--trace", str(args.trace)]


def commit_of(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def machine_info(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trilink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit_of(ROOT),
        "source_sha256": digest.hexdigest()[:16],
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_end_to_end(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    parts = PARTS[args.workload]
    setups, summaries = [], []
    for part in range(parts):
        setup, summary = spawn(workload_args(args, part, args.seconds / parts), deadline)
        setups.append(setup)
        summaries.append(summary)
    executions = [e for s in summaries for e in s["executions"]]
    raw = [latency for _, latency in executions]
    lat = fastest_per_command(executions) if FASTEST_OF_REPEATS[args.workload] else raw
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in summaries),
        "ok_ratio": (attempted - failed) / attempted,
    }
    beyond = int(len(lat) * 0.01)
    commands = len({command for command, _ in executions})
    notes = {
        "setup_s": f"median of {parts} fresh processes: " + ", ".join(f"{s:.4f}" for s in setups),
        "ops_per_s": f"{len(lat)} timed operations of {commands} distinct commands / their latency",
        "op_p50_ms": f"n={len(lat)}",
        "op_p99_ms": f"n={len(lat)}, {beyond} samples beyond"
                     + ("" if beyond >= 10 else " (too few for a tail estimate)"),
        "peak_rss_mb": f"largest ru_maxrss of the {parts} processes",
        "ok_ratio": f"{attempted - failed} of {attempted} attempted operations passed",
    }
    lines = [f"{name:<14} {metrics[name]:>12.4f} {END_TO_END_UNITS[name]:<6} {notes[name]}"
             for name in END_TO_END_UNITS]
    lines.append(f"{'fail_ratio':<14} {failed / attempted:>12.4f} {'ratio':<6} "
                 f"{failed} of {attempted} attempted operations failed")
    if lat is not raw:
        lines.append(f"(latencies are each command's fastest execution in the run; every execution "
                     f"as measured: ops_per_s {len(raw) / sum(raw):.4f}, "
                     f"op_p50_ms {statistics.median(raw) * 1e3:.4f}, "
                     f"op_p99_ms {percentile(raw, 99) * 1e3:.4f})")
    return {name: (metrics[name], END_TO_END_UNITS[name]) for name in END_TO_END_UNITS}, summaries, lines


def measure_layers(args, spans_path: Path, deadline: float):
    import tracer

    _, summary = spawn(workload_args(args, 0, args.seconds) + ["--spans", str(spans_path)], deadline)
    layers = summary["layers"]
    metrics = {name: (layers[name], unit) for name, (unit, _) in tracer.PER_LAYER_METRICS.items()}
    lines = [f"{name:<42} {value:>14.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"(means per operation over {summary['ops']} traced operations; "
                 f"spans in {spans_path.relative_to(ROOT)})")
    return metrics, [summary], lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "trilink" / "__init__.py").is_file():
        print(f"error: no trilink sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, summaries, lines = measure_layers(args, OUT_DIR / f"{stem}-spans.jsonl", deadline)
        else:
            metrics, summaries, lines = measure_end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    machine = machine_info(summaries[-1]["numpy"])
    problems = sorted({p for s in summaries for p in s["problems"]})
    result = {
        "correct": not any(s["wrong"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"args": vars(args), "machine": machine, "problems": problems, **result}, indent=2) + "\n"
    )
    print(f"trilink benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("\n".join(lines))
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
