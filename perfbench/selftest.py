"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py

They check that the operation streams are reproducible, that set-up imports
nothing the program does not, that the latency and span arithmetic is
right, that the reference table agrees with the paper and with facts
derived independently of the program, that every known-answer check flags
a deliberately corrupted output, and that the tracer counts the calls one
``verify`` makes.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402


def take(stream, blocks):
    return [op for block in itertools.islice(stream, blocks) for op in block]


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for name in workload.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(take(workload.operations(name, 7), 5), take(workload.operations(name, 7), 5))
                self.assertEqual(workload.first_operation(name, 7), workload.first_operation(name, 7))

    def test_other_seed_other_stream(self):
        for name in ("queries", "realize"):
            with self.subTest(workload=name):
                self.assertNotEqual(take(workload.operations(name, 7), 3), take(workload.operations(name, 8), 3))

    def test_parts_differ_but_share_their_commands(self):
        for name in ("queries", "realize"):
            with self.subTest(workload=name):
                part0, part1 = take(workload.operations(name, 7, 0), 20), take(workload.operations(name, 7, 1), 20)
                self.assertNotEqual(part0, part1)
                commands = {op.argv for op in part0 + part1}
                # Commands recur within a run, so each has a fastest execution.
                self.assertLess(len(commands), len(part0 + part1) / 2)

    def test_query_block_has_the_exact_mix(self):
        for block in itertools.islice(workload.operations("queries", 3), 4):
            kinds = [op.kind for op in block]
            self.assertEqual(len(block), 40)
            self.assertEqual(kinds.count("classify"), 12)
            self.assertEqual(kinds.count("invariants"), 8)
            self.assertEqual(kinds.count("export"), 6)
            self.assertEqual(kinds.count("render"), 10)
            self.assertEqual(sum(1 for op in block if op.kind == "render" and op.detail[1]), 5)
            self.assertEqual(kinds.count("census"), 2)
            self.assertEqual(kinds.count("render-3d"), 2)


    def test_realize_parameters_in_range(self):
        for op in take(workload.operations("realize", 5), 20):
            kind, segments, p = op.detail
            if kind == "torus-villarceau":
                self.assertTrue(1.8 <= p["R"] <= 3.0 and 0.3 <= p["r"] / p["R"] <= 0.8 + 1e-6)
            else:
                self.assertTrue(1.2 <= p["a"] <= 2.0 and 0.5 <= p["b"] <= 1.0)


class SetupTests(unittest.TestCase):
    def modules_after(self, code: str) -> set[str]:
        out = subprocess.run([sys.executable, "-c", code + "\nprint(*sys.modules)"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    def test_setup_imports_nothing_of_its_own_beyond_the_standard_library(self):
        args = ["--workload", "queries", "--seed", "1", "--seconds", "1"]
        argv = list(workload.first_operation("queries", 1).argv)
        program = self.modules_after(
            "import contextlib, io, sys\nsys.path.insert(0, 'src')\nimport trilink.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    trilink.cli.main({argv!r})")
        bench = self.modules_after(
            "import sys\nsys.path.insert(0, 'perfbench')\nimport workload\n"
            f"workload.set_up(workload.parse_args({args!r}))")
        extra = {m.partition(".")[0] for m in bench - program}
        # numpy, the rest of trilink, the checks and the reference table
        # are imported only after set-up has been timed.
        self.assertFalse(extra & {"numpy", "trilink", "checks", "harness", "tracer", "xml", "csv"}, sorted(extra))

    def test_fastest_per_command(self):
        executions = [("a", 3.0), ("b", 5.0), ("a", 1.0), ("b", 6.0), ("a", 2.0)]
        self.assertEqual(workload.fastest_per_command(executions), [1.0, 5.0, 1.0, 5.0, 1.0])


class SelfTimeTests(unittest.TestCase):
    # op [0,10] > A [1,6] > (B [2,3], C [4,5]); op > D [7,9]
    SPANS = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["invariants.kauffman_bracket", 1.0, 6.0, 0, 0, 64],
        ["diagram.to_diagram", 2.0, 3.0, 1, 0, None],
        ["diagram.to_diagram", 4.0, 5.0, 1, 0, None],
        ["geometry.curve_distance", 7.0, 9.0, 0, 0, 100],
    ]

    def test_self_time_subtracts_direct_children(self):
        self.assertEqual(tracer.self_times(self.SPANS), [3.0, 3.0, 1.0, 1.0, 2.0])

    def test_layer_metrics_are_means_per_operation(self):
        m = tracer.layer_metrics(self.SPANS, ops=2, overhead_ratio=1.5)
        self.assertEqual(m["diagram.to_diagram.calls"], 1.0)
        self.assertEqual(m["diagram.to_diagram.self_ms"], 1000.0)
        self.assertEqual(m["invariants.kauffman_bracket.self_ms"], 1500.0)
        self.assertEqual(m["invariants.bracket_states"], 32.0)
        self.assertEqual(m["geometry.ns_per_segment_pair"], 2e9 / 100)
        self.assertEqual(m["trace.overhead_ratio"], 1.5)
        self.assertEqual(set(m), set(tracer.PER_LAYER_METRICS))

    def test_tracer_nests_spans_and_marks_raised_ones(self):
        ticks = iter(range(100))
        t = tracer.Tracer(clock=lambda: float(next(ticks)))

        def inner(x):
            if x < 0:
                raise ValueError(x)
            return "abc"

        wrapped_inner = t.wrap("render.svg_scene", inner)
        outer = t.wrap("cli.main", lambda: [wrapped_inner(1), wrapped_inner(2)])
        outer()  # outside an operation: not recorded
        self.assertEqual(t.spans, [])
        t.begin_op()
        outer()
        with self.assertRaises(ValueError):
            wrapped_inner(-1)
        t.end_op()
        names = [(s[0], s[3], s[5]) for s in t.spans]
        self.assertEqual(names, [
            ("op", -1, None),
            ("cli.main", 0, None),
            ("render.svg_scene", 1, 3),
            ("render.svg_scene", 1, 3),
            ("render.svg_scene", 0, "ValueError"),
        ])
        self.assertEqual(tracer.self_times(t.spans), [3.0, 3.0, 1.0, 1.0, 1.0])


def laurent(text: str) -> dict[int, int]:
    """``-A^-12 + 3A^-8 - 2A^-4 + 4`` as {exponent: coefficient}."""
    poly: dict[int, int] = {}
    for sign, coef, a, exp in re.findall(r"([+-]?)(\d*)(A?)(?:\^(-?\d+))?", text.replace(" ", "")):
        if not (coef or a):
            continue
        k = (int(exp) if exp else 1) if a else 0
        poly[k] = poly.get(k, 0) + (-1 if sign == "-" else 1) * int(coef or 1)
    return {k: v for k, v in poly.items() if v}


def times(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: v for k, v in out.items() if v}


def mirrored(p: dict[int, int]) -> dict[int, int]:
    return {-k: v for k, v in p.items()}


class ReferenceTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = checks.load_reference()

    def test_totals_reproduce_the_paper(self):
        self.assertEqual(checks.reference_problems(self.ref), [])
        self.assertEqual(checks.depiction_counts(self.ref),
                         {"TorusLink33": 8, "Chain3": 24, "HopfWithSplit": 24, "Trivial3": 6, "Borromean": 2})

    def test_linking_and_type_follow_from_the_bits(self):
        # A pair is linked iff its two crossings have different over-strands.
        types = {3: "TorusLink33", 2: "Chain3", 1: "HopfWithSplit"}
        for word, row in self.ref.items():
            lk = tuple(int(word[2 * p] != word[2 * p + 1]) for p in range(3))
            self.assertEqual(row.lk, lk, word)
            woven = word in ("000000", "111111")
            self.assertEqual(row.type, types.get(sum(lk), "Borromean" if woven else "Trivial3"), word)

    def test_orbits_follow_from_the_group(self):
        # The twelve symmetries permute the three site pairs (keeping inner
        # before outer) and may complement the word; reflections complement.
        def images(word):
            pairs = [word[0:2], word[2:4], word[4:6]]
            for perm in itertools.permutations(range(3)):
                moved = "".join(pairs[i] for i in perm)
                yield moved
                yield moved.translate(str.maketrans("01", "10"))

        for word, row in self.ref.items():
            orbit = set(images(word))
            self.assertEqual((row.rep, row.size), (min(orbit), len(orbit)), word)

    def test_writhe_follows_from_the_bits(self):
        # The two crossings of a pair have opposite signs when one circle
        # is over at both, and equal signs when the over-strand changes;
        # in the diagram's orientation "01" is a +1 pair and "10" a -1 pair.
        for word, row in self.ref.items():
            signs = [{"01": 1, "10": -1}.get(word[2 * p:2 * p + 2], 0) for p in range(3)]
            self.assertEqual(row.writhe, 2 * sum(signs), word)

    def test_bracket_relations(self):
        for word, row in self.ref.items():
            bracket, normalized = laurent(row.bracket), laurent(row.normalized)
            # f = (-A^3)^-w <L>
            self.assertEqual(normalized, times({-3 * row.writhe: (-1) ** row.writhe}, bracket), word)
            # Changing every crossing mirrors the link: <L*>(A) = <L>(1/A).
            mirror = self.ref[word.translate(str.maketrans("01", "10"))]
            self.assertEqual(laurent(mirror.bracket), mirrored(bracket), word)
            # Symmetries preserve the link or mirror it.
            rep = laurent(self.ref[row.rep].bracket)
            self.assertIn(bracket, (rep, mirrored(rep)), word)

    def test_normalized_bracket_of_split_and_chained_hopf_links(self):
        # Split union multiplies the normalized bracket by d = -A^2 - A^-2,
        # a connected sum multiplies the factors; a Hopf link of writhe
        # +2 has -A^-2 - A^-10.  Borromean rings: the Jones polynomial
        # -t^3 + 3t^2 - 2t + 4 - 2/t + 3/t^2 - 1/t^3 at t = A^-4.
        d = {2: -1, -2: -1}
        hopf = {-2: -1, -10: -1}
        borromean = {-12: -1, -8: 3, -4: -2, 0: 4, 4: -2, 8: 3, 12: -1}
        for word, row in self.ref.items():
            if row.type == "TorusLink33":
                continue  # regression value only; the relations above still hold
            expected = borromean if row.type == "Borromean" else {0: 1}
            if row.type != "Borromean":
                for p in range(3):
                    bits = word[2 * p:2 * p + 2]
                    expected = times(expected, {"01": hopf, "10": mirrored(hopf)}.get(bits, {0: 1}))
                for _ in range(2 - sum(row.lk)):
                    expected = times(expected, d)
            self.assertEqual(laurent(row.normalized), expected, word)

    def test_corrupted_table_is_flagged(self):
        rows = dict(self.ref)
        rows["010101"] = rows["010101"].__class__(**{**rows["010101"].__dict__, "type": "Chain3"})
        self.assertNotEqual(checks.reference_problems(rows), [])


class KnownAnswerTests(unittest.TestCase):
    """Every check passes the program's real output and flags a corrupted one."""

    @classmethod
    def setUpClass(cls):
        import trilink.cli
        from trilink import diagram, geometry, invariants, render

        cls.runner = harness.Runner(trilink.cli, diagram, geometry, invariants, render)
        cls.ref = checks.load_reference()

    def outcome(self, op, result):
        return self.runner.check(op, result, self.ref)

    def assertPasses(self, op, result):
        o = self.outcome(op, result)
        self.assertEqual((o.failed, o.wrong, o.problems), (0, False, []))

    def assertFlags(self, op, result):
        o = self.outcome(op, result)
        self.assertTrue(o.wrong and o.failed == o.attempted, (op, o))

    def corrupt(self, result, old, new):
        code, out, err = result[:3]
        self.assertIn(old, out)
        return (code, out.replace(old, new, 1), err) + tuple(result[3:])

    def test_classify_flipped_linking_number(self):
        op = workload.Op("classify", ("classify", "010101"), "010101")
        result = self.runner.run(op)
        self.assertPasses(op, result)
        self.assertFlags(op, self.corrupt(result, "linking profile  1,1,1", "linking profile  0,1,1"))

    def test_invariants_wrong_writhe(self):
        op = workload.Op("invariants", ("invariants", "010101"), "010101")
        result = self.runner.run(op)
        self.assertPasses(op, result)
        self.assertFlags(op, self.corrupt(result, "writhe           6", "writhe           4"))

    def test_export_flipped_crossing(self):
        op = workload.Op("export", ("export", "010101"), "010101")
        result = self.runner.run(op)
        self.assertPasses(op, result)
        # Crossing 0: B over A becomes A over B (slots swap between the strands).
        flipped = self.corrupt(self.corrupt(result, "A : 1.1 4.1 0.0", "A : 1.1 4.1 0.1"),
                               "B : 3.1 0.1", "B : 3.1 0.0")
        self.assertFlags(op, flipped)

    def test_render_gaps_and_colors(self):
        colors = {"A": "#010203", "B": "#040506", "C": "#070809"}
        spec = ",".join(f"{k}={v}" for k, v in colors.items())
        op = workload.Op("render", ("render", "000011", "--color", spec), ("000011", colors))
        result = self.runner.run(op)
        self.assertPasses(op, result)
        self.assertFlags(op, self.corrupt(result, 'data-gaps="2"', 'data-gaps="1"'))
        self.assertFlags(op, self.corrupt(result, "#040506", "#040507"))
        self.assertFlags(op, self.corrupt(result, "</svg>", "</sv>"))

    def test_render_3d(self):
        for subject, flag in (("tangent-spheres", "--scene"), ("torus-villarceau", "--realize")):
            op = workload.Op("render-3d", ("render", flag, subject), subject)
            result = self.runner.run(op)
            self.assertPasses(op, result)
            self.assertFlags(op, self.corrupt(result, "<circle" if flag == "--scene" else "<line", "<ellipse"))

    def test_census_wrong_counts(self):
        cases = {
            "json": ('"orbit_count": 10', '"orbit_count": 11'),
            "csv": ("010101,", "010110,"),
            "table": ("TorusLink33=2", "TorusLink33=3"),
        }
        for fmt, (old, new) in cases.items():
            with self.subTest(fmt=fmt):
                op = workload.Op("census", ("census", "--format", fmt), fmt)
                result = self.runner.run(op)
                self.assertPasses(op, result)
                self.assertFlags(op, self.corrupt(result, old, new))

    def test_verify_counts_failing_checks(self):
        op = workload.VERIFY_OP

        def report(failing=(), names=checks.VERIFY_CHECKS):
            passed = [name not in failing for name in names]
            doc = {"all_passed": all(passed),
                   "checks": [{"name": n, "passed": p, "detail": ""} for n, p in zip(names, passed)]}
            return (0 if all(passed) else 1, json.dumps(doc), "")

        self.assertPasses(op, report())
        o = self.outcome(op, report(failing=("pattern-count",)))
        self.assertEqual((o.attempted, o.failed, o.wrong), (16, 1, False))
        self.assertFlags(op, report(names=checks.VERIFY_CHECKS[:-1]))
        self.assertFlags(op, (1, '{"checks": [', ""))  # does not read back
        code, out, err = report(failing=("pattern-count",))
        self.assertFlags(op, (0, out, err))  # exit status disagrees with the report


    def test_realize_flipped_linking_number(self):
        rng = random.Random(1)
        for kind in workload.REALIZATION_KINDS:
            op = workload.realize_op(kind, rng, segments=128)
            with self.subTest(kind=kind):
                result = self.runner.run(op)
                self.assertPasses(op, result)
                lk = "1" if kind == "torus-villarceau" else "0"
                self.assertFlags(op, self.corrupt(result, f"lk(A,B) = {lk}", "lk(A,B) = 2"))
                self.assertFlags(op, result[:3] + ([g + 0.01 for g in result[3]], result[4]))
                self.assertFlags(op, result[:4] + ("Chain3",))


class TracerCountTests(unittest.TestCase):
    def test_one_verify_makes_the_known_calls(self):
        import trilink.cli
        from trilink import census

        t = tracer.Tracer()
        original = census.to_diagram
        t.install()
        try:
            self.assertIsNot(census.to_diagram, original)
            t.begin_op()
            trilink.cli.main(["verify", "--format", "json", "-o", "/dev/null"])
            t.end_op()
        finally:
            t.uninstall()
        self.assertIs(census.to_diagram, original)
        m = tracer.layer_metrics(t.spans, ops=1, overhead_ratio=1.0)
        self.assertEqual(
            {k: m[k] for k in ("diagram.to_diagram.calls", "invariants.kauffman_bracket.calls",
                               "geometry.curve_distance.calls", "diagram.diagram_from_strands.calls",
                               "symmetry.orbit_partition.calls")},
            {"diagram.to_diagram.calls": 192, "invariants.kauffman_bracket.calls": 345,
             "geometry.curve_distance.calls": 18, "diagram.diagram_from_strands.calls": 9,
             "symmetry.orbit_partition.calls": 3},
        )


class BenchmarkFileTests(unittest.TestCase):
    def test_benchmark_json_names_what_the_harness_emits(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in doc["workloads"]}, set(workload.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
                         tracer.PER_LAYER_METRICS)


if __name__ == "__main__":
    unittest.main()
