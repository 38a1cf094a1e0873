import csv
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trilink import census, diagram, geometry, invariants
from trilink.census import (
    EXPECTED_ORBITS_PER_TYPE,
    CensusRecord,
    census_summary,
    census_table,
    census_to_csv,
    census_to_json,
    run_census,
)
from trilink.diagram import (
    all_assignments,
    assignment_from_index,
    diagram_to_text,
    flip_crossings,
    to_diagram,
)
from trilink.invariants import EmbeddingType
from trilink.symmetry import orbit_partition


class TestCounts:
    def test_total_and_orbit_count(self, census_records):
        summary = census_summary(census_records)
        assert len(census_records) == 64
        assert summary.total_depictions == 64
        assert summary.orbit_count == 10

    def test_orbit_counts_per_type(self, census_records):
        summary = census_summary(census_records)
        assert summary.per_type_orbit_counts == EXPECTED_ORBITS_PER_TYPE

    def test_depiction_counts_per_type(self, census_records):
        summary = census_summary(census_records)
        assert summary.per_type_depiction_counts == {
            EmbeddingType.TorusLink33: 8,
            EmbeddingType.Chain3: 24,
            EmbeddingType.HopfWithSplit: 24,
            EmbeddingType.Trivial3: 6,
            EmbeddingType.Borromean: 2,
        }
        assert sum(summary.per_type_depiction_counts.values()) == 64
        assert sum(summary.per_type_orbit_counts.values()) == summary.orbit_count

    def test_orbit_counts_under_its_smallest_word(self, census_records):
        # Retype 111111, the larger word of the Borromean orbit {000000, 111111}.
        retyped = tuple(
            r._replace(embedding_type=EmbeddingType.Trivial3)
            if r.assignment.word == "111111"
            else r
            for r in census_records
        )
        summary = census_summary(retyped)
        assert summary.per_type_orbit_counts == EXPECTED_ORBITS_PER_TYPE
        assert summary.per_type_depiction_counts[EmbeddingType.Borromean] == 1

    def test_orbit_members_share_type_and_linking(self, census_records):
        by_orbit = {}
        for r in census_records:
            by_orbit.setdefault(r.orbit_id, []).append(r)
        for members in by_orbit.values():
            assert len({m.embedding_type for m in members}) == 1
            assert len({m.linking_profile.linked_pairs for m in members}) == 1
            assert len({m.orbit_size for m in members}) == 1
            assert len(members) == members[0].orbit_size

    def test_records_indexed_by_word(self, census_records):
        assert [r.assignment.index for r in census_records] == list(range(64))

    def test_exports_in_orbit_order(self, census_records):
        csv_words = [row[0] for row in csv.reader(io.StringIO(census_to_csv(census_records)))]
        json_words = [
            rec["bitword"] for rec in json.loads(census_to_json(census_records))["records"]
        ]
        table_words = [line.split()[0] for line in census_table(census_records).splitlines()]
        in_order = sorted(census_records, key=lambda r: (r.orbit_id, r.assignment.index))
        words = [r.assignment.word for r in in_order]
        assert in_order != list(census_records)
        assert csv_words == ["bitword"] + words
        assert json_words == words
        assert table_words[2:66] == words


class TestCensusDiagrams:
    def test_built_once_per_process(self):
        assert census.census_diagrams() is census.census_diagrams()

    def test_entries_equal_fresh_diagrams(self):
        diagrams = census.census_diagrams()
        assert len(diagrams) == 64
        for i, d in enumerate(diagrams):
            assert d == to_diagram(assignment_from_index(i))


def layout_records(radius):
    """Census records of the layout whose three circles have ``radius``.

    The layout's shadow is built afresh, so the process's cached shadow and
    census diagrams keep the fixed layout.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "CIRCLE_RADIUS", radius)
        mp.setattr(diagram, "SITES", diagram._sites())
        shadow = diagram._shadow.__wrapped__()
    orbit_of_word = {
        member: (orbit_id, orbit.size)
        for orbit_id, orbit in enumerate(orbit_partition())
        for member in orbit.members
    }
    records = []
    for asg, bracket in zip(all_assignments(), invariants._flip_brackets(shadow)):
        d = flip_crossings(shadow, asg.index)
        profile = invariants.pairwise_linking(d)
        kind = invariants.embedding_type(
            profile, functools.partial(invariants._normalized, bracket, invariants.writhe(d))
        )
        records.append(CensusRecord(asg, *orbit_of_word[asg], kind, profile, bracket))
    return records


def rows(records):
    return [(r.embedding_type, r.linking_profile, r.bracket) for r in records]


class TestLayout:
    # CPU speed can vary by about 1.6x between runs, so this property runs
    # without a per-example deadline.  Radius 1.0 (= CENTER_DISTANCE) puts the
    # three inner crossings at the origin, a triple point that
    # test_diagram.py's test_triple_point_layout_raises covers; just above it
    # the shadow is already the symmetric 3-Venn diagram.
    @settings(deadline=None)
    @given(st.floats(min_value=1.000001, max_value=1e4))
    @example(1.000001)
    @example(1e4)
    def test_answer_depends_only_on_the_venn_shadow(self, radius):
        assert rows(layout_records(radius)) == rows(run_census())

    def test_wrong_figure_fails_the_type_counts(self):
        # Radius 0.9 < CENTER_DISTANCE: no region lies inside all three circles.
        evidence = types.SimpleNamespace(summary=census_summary(layout_records(0.9)))
        passed, detail = census._pattern_counts_by_type(evidence)
        assert not passed
        assert detail == "TorusLink33=2, Chain3=3, HopfWithSplit=3, Trivial3=2, Borromean=0"

    def test_wrong_figure_fails_the_brunnian_cuts(self):
        # That census has no Borromean depiction to cut, where the paper's has two.
        evidence = types.SimpleNamespace(records=layout_records(0.9), orbits=orbit_partition())
        assert census._brunnian_cut_property(evidence) == (
            False,
            "0 of 6 expected cuts split cleanly (0 cuts made)",
        )


class TestShadowTables:
    """Each word's profile, writhe and bracket, read off the shadow, are its diagram's."""

    @pytest.mark.parametrize("asg", all_assignments(), ids=str)
    def test_equal_the_word_diagram(self, asg):
        d = to_diagram(asg)
        signs = list(census._flip_signs(diagram._shadow()))[asg.index]
        assert signs == (invariants.pairwise_linking(d), invariants.writhe(d))
        assert census.word_brackets()[asg.index] == invariants.kauffman_bracket(d)

    def test_run_census_builds_no_word_diagram(self, monkeypatch):
        calls = []
        for name in ("to_diagram", "flip_crossings", "pairwise_linking", "writhe"):
            for module in (census, diagram, invariants):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(
                        module, name, lambda *args, real=real: calls.append(real) or real(*args)
                    )
        run_census()
        assert calls == []


class TestStateTable:
    def test_run_census_makes_no_bracket_call(self, monkeypatch):
        # All 64 brackets come from one state table, none from the contraction.
        real, calls = invariants.kauffman_bracket, []

        def counted(d):
            calls.append(d)
            return real(d)

        for module in (census, invariants):
            monkeypatch.setattr(module, "kauffman_bracket", counted)
        run_census()
        assert calls == []
        # The seam does count: classifying the zero-linked 000000 brackets it.
        invariants.classify(census.census_diagrams()[0])
        assert len(calls) == 1

    def test_verify_makes_the_known_bracket_calls(self, monkeypatch):
        # case-mapping reads the records' brackets; the other checks bracket
        # cut pairs, all-flips depictions, builtins and the two realizations.
        real, calls = invariants.kauffman_bracket, []

        def counted(d):
            calls.append(d)
            return real(d)

        for module in (census, invariants):
            monkeypatch.setattr(module, "kauffman_bracket", counted)
        assert census.verify_claims().all_passed
        assert len(calls) == 109

    def test_run_census_contracts_once(self, monkeypatch):
        real, calls = invariants._smoothing_tally, []

        def counted(d, a_steps):
            calls.append(a_steps)
            return real(d, a_steps)

        monkeypatch.setattr(invariants, "_smoothing_tally", counted)
        run_census()
        assert calls == [[32, 16, 8, 4, 2, 1]]

    def test_run_census_makes_one_state_sum_per_histogram(self, monkeypatch):
        # The shadow's 64 flips have 7 distinct packed histograms, 6 brackets.
        real, calls = invariants._state_sum, []

        def counted(tally, c):
            calls.append(tally)
            return real(tally, c)

        monkeypatch.setattr(invariants, "_state_sum", counted)
        records = run_census()
        assert len(calls) == 7
        assert len({r.bracket for r in records}) == 6


class TestSerialization:
    def test_runs_are_byte_identical(self, census_records):
        again = run_census()
        for export in (census_to_json, census_to_csv, census_table):
            assert export(census_records) == export(again)

    def test_json_declares_schema_version(self, census_records):
        assert '"schema_version": 1' in census_to_json(census_records)

    def test_table_headline(self, census_records):
        table = census_table(census_records)
        assert table.rstrip().endswith(
            "10 patterns in 5 embedding types; 64 depictions"
        )

    def test_table_headline_counts_the_types_it_observed(self, census_records):
        relabeled = tuple(
            r._replace(embedding_type=EmbeddingType.Trivial3)
            if r.embedding_type is EmbeddingType.Borromean
            else r
            for r in census_records
        )
        assert census_table(relabeled).rstrip().endswith(
            "10 patterns in 4 embedding types; 64 depictions"
        )


class TestCutChecks:
    def test_cut_counts_are_exact(self, verification_report):
        # 2 Borromean and 8 TorusLink33 depictions, three rings cut in each.
        found = {c.name: c for c in verification_report.checks}
        for name, cuts in (
            ("brunnian-cut-property", 6),
            ("torus-pair-persistence", 24),
        ):
            check = found[name]
            assert check.passed, check.detail
            assert check.detail.startswith(f"{cuts} of {cuts} expected cuts ")
            assert f"({cuts} cuts made)" in check.detail


class TestCheckDetails:
    """Exhaustive checks keep their text on a pass and name the first failure."""

    PASS_DETAILS = {
        "case-mapping": "all 64 depictions follow the four linked-pair cases; "
        "8 zero-linked depictions split by bracket",
        "brunnian-exactness": "the Brunnian test accepts exactly the woven depictions (64 checked)",
        "mirror-relation": "bracket of the all-flips depiction inverts the variable (64 checked)",
        "classification-equivariance": "embedding type is constant along every symmetry "
        "action (768 checks)",
        "census-determinism": "two consecutive census runs serialize byte-identically",
    }

    @staticmethod
    def details(report):
        return {c.name: (c.passed, c.detail) for c in report.checks}

    def test_pass_details_unchanged(self, verification_report):
        found = self.details(verification_report)
        for name, detail in self.PASS_DETAILS.items():
            assert found[name] == (True, detail)

    def test_brunnian_failure_names_the_word(self, monkeypatch, all_diagrams):
        # Report the Trivial3 depiction 111100 as Brunnian.
        stack = diagram_to_text(all_diagrams[0b111100])
        real = census.is_brunnian
        monkeypatch.setattr(
            census, "is_brunnian", lambda d: real(d) or diagram_to_text(d) == stack
        )
        found = self.details(census.verify_claims())
        assert found["brunnian-exactness"] == (
            False,
            "63 of 64 depictions are Brunnian exactly when woven (expected 64); "
            "first failure: 111100 of type Trivial3 is Brunnian",
        )
        for name in (
            "case-mapping",
            "mirror-relation",
            "classification-equivariance",
            "census-determinism",
        ):
            assert found[name] == (True, self.PASS_DETAILS[name])

    def test_mirror_failure_names_the_word(self, monkeypatch, all_diagrams):
        # Leave the crossings of 010101 unflipped; its bracket is not palindromic.
        word = diagram_to_text(all_diagrams[0b010101])
        real = census.flip_all_crossings
        monkeypatch.setattr(
            census,
            "flip_all_crossings",
            lambda d: d if diagram_to_text(d) == word else real(d),
        )
        passed, detail = self.details(census.verify_claims())["mirror-relation"]
        assert not passed
        assert detail == (
            "63 of 64 all-flips depictions invert the bracket's variable (expected 64); "
            "first failure: 010101: bracket of its all-flips depiction is not the "
            "inverted bracket"
        )

    def test_type_failure_names_word_and_action(self, monkeypatch):
        # Retype the Trivial3 depiction 111100 as Borromean in the census.
        real = census.run_census

        def retyped():
            return tuple(
                r._replace(embedding_type=EmbeddingType.Borromean)
                if r.assignment.word == "111100"
                else r
                for r in real()
            )

        monkeypatch.setattr(census, "run_census", retyped)
        found = self.details(census.verify_claims())
        assert found["case-mapping"] == (
            False,
            "64 of 64 depictions follow the four linked-pair cases (expected 64); "
            "7 of 8 zero-linked depictions split by bracket (expected 8); "
            "first failure: 111100 is zero-linked with type Borromean, "
            "but its bracket is the 3-unlink's",
        )
        # Ten of the twelve symmetries move 111100 within its orbit of six,
        # each in both directions.
        assert found["classification-equivariance"] == (
            False,
            "748 of 768 symmetry actions keep the embedding type (expected 768); "
            "first failure: rot120 maps 110011 (Trivial3) to 111100 (Borromean)",
        )

    def test_gauss_failure_on_a_nan_integral(self, monkeypatch):
        # One pair's integral is nan; max() would keep the other pairs' largest residual.
        real = geometry.gauss_linking_integral
        monkeypatch.setattr(
            geometry,
            "gauss_linking_integral",
            lambda a, b: math.nan if (a.label, b.label) == ("B", "C") else real(a, b),
        )
        found = self.details(census.verify_claims())
        assert found["gauss-vs-combinatorial"] == (
            False,
            "largest |integral - crossing count/2| = nan "
            f"over 6 pairs at {census.VERIFY_SEGMENTS} segments (tolerance 1e-3)",
        )
        assert found["case-mapping"] == (True, self.PASS_DETAILS["case-mapping"])

    def test_determinism_failure_names_the_format(self, monkeypatch):
        # Every CSV export comes out different from the one before.
        real = census.census_to_csv
        exports = iter(range(1000))
        monkeypatch.setattr(
            census, "census_to_csv", lambda records: real(records) + f"#{next(exports)}\n"
        )
        found = self.details(census.verify_claims())
        assert found["census-determinism"] == (
            False,
            "1 of 2 export formats serialize byte-identically (expected 2); "
            "first failure: the CSV exports of the two runs differ",
        )

    def test_determinism_check_runs_the_census_twice(self, monkeypatch):
        # Retype 111100 during the second census pass only; a census served
        # from a cache on the second pass would hide the difference.
        # ``run_census`` types the words once each, in index order.
        real_run, real_type = census.run_census, census.embedding_type
        passes, typed = [], []

        def counted():
            passes.append(1)
            typed.clear()
            return real_run()

        def retyping(profile, normalized):
            typed.append(1)
            if len(passes) == 2 and len(typed) == 0b111100 + 1:
                return EmbeddingType.Borromean
            return real_type(profile, normalized)

        monkeypatch.setattr(census, "run_census", counted)
        monkeypatch.setattr(census, "embedding_type", retyping)
        found = self.details(census.verify_claims())
        assert len(passes) == 2
        assert len(typed) == 64
        assert found["census-determinism"] == (
            False,
            "0 of 2 export formats serialize byte-identically (expected 2); "
            "first failure: the JSON exports of the two runs differ",
        )
        for name in ("case-mapping", "brunnian-exactness", "classification-equivariance"):
            assert found[name] == (True, self.PASS_DETAILS[name])


ROOT = Path(__file__).resolve().parents[1]
CHECK_NAMES = [name for name, _check in census.CHECKS]
#: The checks that build a realization, or a builtin from a ``PlanarStrand``, so import numpy.
NUMPY_CHECKS = (
    "twist-invariance",
    "villarceau-roundtrip",
    "ellipse-roundtrip",
    "gauss-vs-combinatorial",
)


class TestCheckTable:
    """``verify_claims`` runs the ``CHECKS`` table; each entry stands alone."""

    def test_names_match_the_benchmark(self, monkeypatch):
        # Load perfbench's known answers without writing its bytecode next to it.
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        source = ROOT / "perfbench" / "checks.py"
        spec = importlib.util.spec_from_file_location("perfbench_checks", source)
        checks = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, checks)
        spec.loader.exec_module(checks)
        assert tuple(CHECK_NAMES) == checks.VERIFY_CHECKS

    def test_each_check_alone_gives_its_report_line(self, verification_report):
        lines = {c.name: (c.passed, c.detail) for c in verification_report.checks}
        assert [c.name for c in verification_report.checks] == CHECK_NAMES
        for name, check in census.CHECKS:
            assert check(census.Evidence()) == lines[name], name

    @pytest.mark.parametrize("forced", CHECK_NAMES)
    def test_a_forced_failure_fails_only_its_check(self, monkeypatch, verification_report, forced):
        monkeypatch.setattr(
            census,
            "CHECKS",
            tuple(
                (name, (lambda ev: (False, "forced")) if name == forced else check)
                for name, check in census.CHECKS
            ),
        )
        report = census.verify_claims()
        expected = [
            f"{forced}: FAIL (forced)" if line.startswith(f"{forced}: ") else line
            for line in verification_report.to_text().splitlines()[:-1]
        ]
        assert report.to_text().splitlines() == expected + ["SOME CHECKS FAILED"]
        assert [c.name for c in report.checks if not c.passed] == [forced]

    def test_checks_without_geometry_import_no_numpy(self):
        # A fresh interpreter runs the other twelve checks on one Evidence.
        probe = (
            "import sys\n"
            "from trilink import census\n"
            "evidence = census.Evidence()\n"
            "ran = [name for name, check in census.CHECKS\n"
            "       if name not in sys.argv[1:] and check(evidence)[0]]\n"
            "print(len(ran), 'numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, *NUMPY_CHECKS],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert done.stdout.split() == ["12", "False", "False"]
