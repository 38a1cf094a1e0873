"""The harness side of a workload process: checks, the timed loop, the summary.

Imported by ``workload.py`` only after set-up has been timed, so the
known-answer table, the checks, the program modules the harness calls
directly and numpy cost the set-up metric nothing.
"""

from __future__ import annotations

import json
import resource
import statistics
import time

import checks
import numpy
from workload import Op, attempt, call_cli, fastest_per_command, operations

import trilink.cli
from trilink import diagram, geometry, invariants, render


class Runner:
    def __init__(self, cli, diagram, geometry, invariants, render):
        self.cli, self.diagram, self.geometry, self.invariants = cli, diagram, geometry, invariants
        self.default_colors = render.DEFAULT_COLORS

    def run(self, op: Op):
        """The timed part of an operation; module attributes keep tracer wrappers visible."""
        return self.finish(op, call_cli(self.cli, op.argv))

    def finish(self, op: Op, result):
        """The harness's own calls after the CLI call (``realize`` only)."""
        if op.kind != "realize":
            return result
        kind, segments, params = op.detail
        r = self.geometry.realize(kind, segments=segments, **params)
        c = r.curves
        gauss = [self.geometry.gauss_linking_integral(c[i], c[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        embedding = self.invariants.classify(self.geometry.diagram_from_curves(r))
        return result + (gauss, embedding.value)

    def outcome(self, op: Op, result, ref) -> checks.Outcome:
        if isinstance(result, Exception):
            n = attempts_of(op)
            return checks.Outcome(n, n, False, [f"{' '.join(op.argv)} raised {result!r}"])
        return self.check(op, result, ref)

    def check(self, op: Op, result, ref) -> checks.Outcome:
        try:
            return self._check(op, result, ref)
        except (LookupError, ValueError, TypeError, SyntaxError) as exc:
            outcome = checks.Outcome(attempts_of(op))
            outcome.wrong_answer(f"{' '.join(op.argv)}: output does not read back: {exc!r}")
            return outcome

    def _check(self, op: Op, result, ref) -> checks.Outcome:
        code, out, err = result[:3]
        if op.kind == "classify":
            return checks.check_classify(ref, op.detail, code, out, err)
        if op.kind == "invariants":
            return checks.check_invariants(ref, op.detail, code, out, err)
        if op.kind == "export":
            return checks.check_export(op.detail, code, out, err,
                                       self.diagram.diagram_from_text, self.diagram.diagram_to_text)
        if op.kind == "render":
            word, colors = op.detail
            return checks.check_render_diagram(word, colors or self.default_colors, code, out, err)
        if op.kind == "render-3d":
            return checks.check_render_3d(op.detail, self.geometry.DEFAULT_SEGMENTS, code, out, err)
        if op.kind == "census":
            return checks.check_census(ref, op.detail, code, out, err)
        if op.kind == "verify":
            return checks.check_verify(code, out, err)
        kind, segments, params = op.detail
        return checks.check_realize(kind, params, segments, self.geometry.MIN_CURVE_SEPARATION, *result)


def attempts_of(op: Op) -> int:
    return len(checks.VERIFY_CHECKS) if op.kind == "verify" else 1


class Tally:
    """Attempted/failed counts and the first few problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = False
        self.problems: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wrong |= outcome.wrong
        for p in outcome.problems:
            if p not in self.problems and len(self.problems) < 10:
                self.problems.append(p)


def run_checked(runner: Runner, op: Op, ref, tally: Tally, on_start=None, on_end=None) -> float:
    """Run one operation, return its latency in seconds, and tally its check."""
    if on_start:
        on_start()
    t0 = time.perf_counter()
    result = attempt(runner.run, op)
    latency = time.perf_counter() - t0
    if on_end:
        on_end()
    tally.add(runner.outcome(op, result, ref))
    return latency


def timed_loop(runner, ref, workload, seed, part, seconds, tally, tracer=None) -> list[tuple[str, float]]:
    """Run whole blocks of the stream, ending at the block boundary nearest to ``seconds``.

    Returns one (command, latency in seconds) pair per operation.
    """
    executions = []
    start = time.perf_counter()
    hooks = (tracer.begin_op, tracer.end_op) if tracer else (None, None)
    for blocks, block in enumerate(operations(workload, seed, part), 1):
        executions += [(" ".join(op.argv), run_checked(runner, op, ref, tally, *hooks)) for op in block]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / blocks / 2 >= seconds:
            return executions


def after_setup(args, first: Op, first_result) -> int:
    """Check the set-up operation, run the timed loop and print the summary line."""
    runner = Runner(trilink.cli, diagram, geometry, invariants, render)
    ref = checks.load_reference()
    tally = Tally()
    if not isinstance(first_result, Exception):
        first_result = attempt(runner.finish, first, first_result)
    tally.add(runner.outcome(first, first_result, ref))
    summary = {"numpy": numpy.__version__}
    if args.trace:
        import tracer as tracing

        half = args.seconds / 2.0
        plain = timed_loop(runner, ref, args.workload, args.seed, args.part, half, tally)
        t = tracing.Tracer()
        t.install()
        traced = timed_loop(runner, ref, args.workload, args.seed, args.part, half, tally, t)
        t.uninstall()
        if args.spans:
            t.write(args.spans)
        overhead = statistics.median(fastest_per_command(traced)) / statistics.median(fastest_per_command(plain))
        summary["layers"] = tracing.layer_metrics(t.spans, len(traced), overhead)
        summary["ops"] = len(traced)
    else:
        summary["executions"] = timed_loop(runner, ref, args.workload, args.seed, args.part,
                                            args.seconds, tally)
    summary.update(
        attempted=tally.attempted,
        failed=tally.failed,
        wrong=tally.wrong,
        problems=tally.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(summary), flush=True)
    return 0
