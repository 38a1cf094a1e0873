#!/usr/bin/env python3
"""Run the benchmark for several seeds per workload and write BENCH_<label>.json.

    python3 scripts/bench_series.py --label 8 --first-seed 5101 --seeds 10 --seconds 40 \\
        --tree parent=../trilink-parent --tree change=.

Each tree is a checkout; its own ``perfbench/run.py`` is run from its root,
unchanged, once per seed and workload (``--trace 0``), and once more per
workload with ``--trace 1`` on the first seed for the per-layer metrics.
With several trees the runs alternate: for each seed every tree runs in
turn, in reverse order on every other seed, so a drift in the host's speed
falls on all trees alike.  The file holds each tree's machine and commit
(as ``run.py`` reports them), every seed's end-to-end values with their
median and quartiles, and the traced per-layer values.  With exactly two
trees it also counts, per metric, the seeds on which the second tree did
better than the first (the metric's direction comes from BENCHMARK.json).

Every ``run.py`` call of a series gets ``PYTHONPYCACHEPREFIX`` set to one
directory made empty for that series, so no process reads bytecode that an
earlier series left, in a tree's ``__pycache__`` or anywhere else.  Before
measuring, each tree runs every workload once (``--seconds 1 --trace 1``)
with bytecode writes on, which compiles what the workloads import, the
standard library and numpy included, into that directory; the measured
runs then read it with ``PYTHONDONTWRITEBYTECODE=1``.  Every tree reads
bytecode it compiled itself, and ``setup_s`` does not count compilation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A run.py call ends within its own 180 s budget; allow some slack.
RUN_TIMEOUT_S = 240
#: The benchmark's workloads that a series measures.  ``verify`` is not one
#: BENCHMARK.json gates, but it runs every check, census and bracket path.
WORKLOADS = ("queries", "realize", "verify")


def run_benchmark(
    tree: Path, workload: str, seed: int, seconds: int, trace: int, pycache: str,
    warm: bool = False,
) -> dict:
    """One ``perfbench/run.py`` call in ``tree``; its result and machine record.

    Bytecode is read from ``pycache`` only, and written there only if ``warm``.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache, PYTHONDONTWRITEBYTECODE="1")
    if warm:
        del env["PYTHONDONTWRITEBYTECODE"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed: {done.stderr.strip()}")
    record = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["machine"] = json.loads(record.read_text())["machine"]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def directions() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def wins(first: list[float], second: list[float], better: str) -> int:
    """Seeds on which ``second`` did better than ``first``."""
    if better == "lower":
        return sum(b < a for a, b in zip(first, second))
    return sum(b > a for a, b in zip(first, second))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40, help="run.py --seconds")
    parser.add_argument("--tree", action="append", default=[], metavar="NAME=PATH",
                        help="a checkout to measure (default: this one, named HEAD)")
    parser.add_argument("-o", "--outdir", type=Path, default=ROOT)
    args = parser.parse_args()
    trees = {}
    for spec in args.tree or [f"HEAD={ROOT}"]:
        name, sep, path = spec.partition("=")
        if not sep or not name or name in trees:
            parser.error(f"--tree needs a distinct NAME=PATH, got {spec!r}")
        trees[name] = Path(path).resolve()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    runs: dict[str, dict[str, list[dict]]] = {name: {w: [] for w in WORKLOADS} for name in trees}
    traced: dict[str, dict[str, dict]] = {name: {} for name in trees}
    machines: dict[str, dict] = {}
    try:
        with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
            for tree in trees.values():
                for workload in WORKLOADS:
                    run_benchmark(tree, workload, seeds[0], 1, 1, pycache, warm=True)
            for workload in WORKLOADS:
                for i, seed in enumerate(seeds):
                    order = list(trees) if i % 2 == 0 else list(reversed(trees))
                    for name in order:
                        result = run_benchmark(
                            trees[name], workload, seed, args.seconds, 0, pycache
                        )
                        machines[name] = result["machine"]
                        runs[name][workload].append(result)
                        p50 = result["metrics"]["op_p50_ms"]["value"]
                        print(f"{workload} seed {seed} {name}: op_p50_ms {p50:.2f}", flush=True)
                for name, tree in trees.items():
                    result = run_benchmark(tree, workload, seeds[0], args.seconds, 1, pycache)
                    traced[name][workload] = {k: m["value"] for k, m in result["metrics"].items()}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    better = directions()
    report: dict = {"label": args.label, "seeds": seeds, "seconds": args.seconds, "trees": {}}
    for name in trees:
        end_to_end = {}
        for workload, results in runs[name].items():
            metrics = results[0]["metrics"]
            end_to_end[workload] = {
                metric: {"unit": metrics[metric]["unit"],
                         **summary([r["metrics"][metric]["value"] for r in results])}
                for metric in metrics
            }
            end_to_end[workload]["ok"] = all(r["correct"] for r in results)
        report["trees"][name] = {
            "machine": machines[name], "end_to_end": end_to_end, "traced": traced[name],
        }
    if len(trees) == 2:
        first, second = (report["trees"][name]["end_to_end"] for name in trees)
        report["comparison"] = {
            "better_of": f"{list(trees)[1]} over {list(trees)[0]}",
            **{
                workload: {
                    metric: {
                        "wins": wins(first[workload][metric]["values"],
                                     second[workload][metric]["values"], better[metric]),
                        "pairs": len(seeds),
                        "median_ratio": second[workload][metric]["median"]
                        / first[workload][metric]["median"],
                    }
                    for metric in better
                }
                for workload in WORKLOADS
            },
        }
    args.outdir.mkdir(parents=True, exist_ok=True)
    path = args.outdir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
