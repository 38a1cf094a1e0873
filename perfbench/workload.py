"""One workload process: set-up, then a timed part of the operation stream.

Started by ``run.py``; not meant to be run by hand.  The process imports
``trilink.cli`` from ``<root>/src`` and runs the first operation's command
through it, untimed, then prints ``ready``: the parent times set-up up to
that line, so set-up is what a one-shot CLI user pays and nothing more.
Only then does it import the harness (``harness.py``: known answers,
checks, the rest of the program's layers, numpy), check that first
operation and run the seeded stream for ``--seconds``.  The same file
defines the operation streams.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

#: Workloads run.py knows; BENCHMARK.json gates on queries and realize.
WORKLOADS = ("queries", "realize", "verify")
#: Curve segments of a ``realize`` operation, and parameter sets per kind:
#: the parts of a run share them, so each command recurs.
REALIZE_SEGMENTS = 256
REALIZATIONS_PER_KIND = 6
SCENE_KINDS = ("tangent-circles", "great-circles", "horn-torus", "tangent-spheres")
REALIZATION_KINDS = ("torus-villarceau", "borromean-ellipses")
CENSUS_FORMATS = ("json", "csv", "table")

#: One block of the ``queries`` mix: 40 operations in these exact counts
#: (classify 30%, invariants 20%, export 15%, render BITWORD 25% of which
#: half with the run's --color override, census 5%, render --scene/--realize
#: 5%), shuffled by the seed, so every run sees the same mix whatever the seed.
QUERY_BLOCK = (
    ("classify", 12),
    ("invariants", 8),
    ("export", 6),
    ("render", 5),
    ("render-color", 5),
    ("census", 2),
    ("render-3d", 2),
)


class Op(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    detail: object = None


def _word(rng: random.Random) -> str:
    return format(rng.randrange(64), "06b")


def _query(kind: str, rng: random.Random, colors: dict[str, str]) -> Op:
    if kind in ("classify", "invariants", "export"):
        word = _word(rng)
        return Op(kind, (kind, word), word)
    if kind == "render":
        word = _word(rng)
        return Op("render", ("render", word), (word, None))
    if kind == "render-color":
        word = _word(rng)
        spec = ",".join(f"{c}={v}" for c, v in colors.items())
        return Op("render", ("render", word, "--color", spec), (word, colors))
    if kind == "census":
        fmt = rng.choice(CENSUS_FORMATS)
        return Op("census", ("census", "--format", fmt), fmt)
    subject = rng.choice(SCENE_KINDS + REALIZATION_KINDS)
    flag = "--scene" if subject in SCENE_KINDS else "--realize"
    return Op("render-3d", ("render", flag, subject), subject)


def realize_op(kind: str, rng: random.Random, segments: int = REALIZE_SEGMENTS) -> Op:
    if kind == "torus-villarceau":
        big = rng.uniform(1.8, 3.0)
        params = {"R": big, "r": big * rng.uniform(0.3, 0.8)}
    else:
        params = {"a": rng.uniform(1.2, 2.0), "b": rng.uniform(0.5, 1.0)}
    # The argv carries 6 decimals; the harness rebuilds from the same values.
    params = {k: float(f"{v:.6f}") for k, v in params.items()}
    argv = ["realize", kind, "--segments", str(segments)]
    for k, v in params.items():
        argv += [f"--{k}", f"{v:.6f}"]
    return Op("realize", tuple(argv), (kind, segments, params))


VERIFY_OP = Op("verify", ("verify", "--format", "json"))


def operations(workload: str, seed: int, part: int = 0) -> Iterator[list[Op]]:
    """Endless seeded stream of operation blocks; the same seed and part give the same stream.

    A run spreads its timed loop over several processes, each one part with
    its own order of operations.  The parts of a run share the ``--color``
    override and the realization parameters, so each command recurs within
    a run (``run.py`` reports each command's fastest execution).
    """
    if workload == "verify":
        while True:
            yield [VERIFY_OP]
    shared, rng = random.Random(seed), random.Random(f"{seed}.{part}")
    if workload == "realize":
        ops = [realize_op(kind, shared) for kind in REALIZATION_KINDS for _ in range(REALIZATIONS_PER_KIND)]
        while True:
            rng.shuffle(ops)
            yield list(ops)
    colors = {c: f"#{shared.randrange(1 << 24):06x}" for c in "ABC"}
    while True:
        kinds = [kind for kind, count in QUERY_BLOCK for _ in range(count)]
        rng.shuffle(kinds)
        yield [_query(kind, rng, colors) for kind in kinds]


def first_operation(workload: str, seed: int, part: int = 0) -> Op:
    """The untimed set-up operation: what a one-shot CLI user would run."""
    if workload == "queries":
        word = _word(random.Random(f"{seed}.{part}.first"))
        return Op("classify", ("classify", word), word)
    return next(operations(workload, seed, part))[0]


def fastest_per_command(executions) -> list[float]:
    """Each execution's latency replaced by the fastest one of the same command in the run.

    Other tenants of a shared host slow a process down by about 1.6x for
    seconds at a time; a slower repetition of a command measures that, not
    the program.
    """
    fastest: dict[str, float] = {}
    for command, latency in executions:
        fastest[command] = min(latency, fastest.get(command, latency))
    return [fastest[command] for command, _ in executions]


def call_cli(cli, argv):
    """``cli.main(argv)`` with its output captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def attempt(fn, *args):
    """``fn(*args)``, or the exception it raised: a raising operation is a failed one, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="file the traced run writes its spans to")
    return parser.parse_args(argv)


def set_up(args):
    """Import the CLI and run the first operation's command: what a one-shot user pays."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import trilink.cli

    first = first_operation(args.workload, args.seed, args.part)
    return first, attempt(call_cli, trilink.cli, first.argv)


def main() -> int:
    args = parse_args()
    first, first_result = set_up(args)
    print("ready", flush=True)

    import harness

    return harness.after_setup(args, first, first_result)


if __name__ == "__main__":
    sys.exit(main())
