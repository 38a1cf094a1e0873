"""Full enumeration of the 64 depictions, joined with orbits and invariants.

The census is one table: ``run_census`` returns the 64 records indexed by
word (``records[i].assignment.index == i``), as ``census_diagrams`` is, and
``census_summary`` derives the headline counts from them.  The exporters
take only the records and write them in orbit order (by orbit id, orbits
numbered by their smallest member, then by word) with a fixed key order,
so repeated runs emit byte-identical output.  The exports are written
only, never read back: the census is recomputed on demand.
``verify_claims`` re-checks every headline property of the census and of
the 3D realizations: it runs each ``(name, check)`` pair of the ``CHECKS``
table, in report order, on one shared ``Evidence`` and returns a pass/fail
report.  To add a check, write a function from ``Evidence`` to ``(passed,
detail)`` and add its pair to ``CHECKS``; the same commit must extend
perfbench's ``VERIFY_CHECKS`` and the check count in its README.  The 64
diagrams (``census_diagrams``, each a flip of one shadow), the orbit
partition (``symmetry.orbit_partition``) and the shadow are computed
once per process and shared by every run; invariants (the 64 brackets
from the shadow's state table) and realizations are derived anew on each call.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
import json
from collections.abc import Callable
from typing import NamedTuple

from .diagram import (
    CENTERS,
    CrossingAssignment,
    LinkDiagram,
    all_assignments,
    builtin_diagram,
    flip_all_crossings,
    remove_component,
    to_diagram,
)
from .invariants import (
    THREE_UNLINK_BRACKET,
    TWO_UNLINK_BRACKET,
    EmbeddingType,
    LinkingProfile,
    _flip_brackets,
    _normalized,
    classify,
    embedding_type,
    is_brunnian,
    kauffman_bracket,
    linking_numbers,
    normalized_invariant,
    pairwise_linking,
    signed_linking_numbers,
)
from .laurent import LaurentPoly, equal_up_to_inversion
from .symmetry import (
    _group_actions,
    apply_action,
    burnside_count,
    group_elements,
    orbit_partition,
)

CENSUS_SCHEMA_VERSION = 1

#: Orbit counts per embedding type that the census must reproduce.
EXPECTED_ORBITS_PER_TYPE = {
    EmbeddingType.TorusLink33: 2,
    EmbeddingType.Chain3: 3,
    EmbeddingType.HopfWithSplit: 3,
    EmbeddingType.Trivial3: 1,
    EmbeddingType.Borromean: 1,
}

_TYPE_ORDER = tuple(EmbeddingType)

#: The embedding types a depiction with each linked-pair count may have; the
#: zero-linked case is split by the bracket.
_TYPES_BY_LINKED_PAIRS = {
    3: (EmbeddingType.TorusLink33,),
    2: (EmbeddingType.Chain3,),
    1: (EmbeddingType.HopfWithSplit,),
    0: (EmbeddingType.Trivial3, EmbeddingType.Borromean),
}


class CensusRecord(NamedTuple):
    assignment: CrossingAssignment
    orbit_id: int
    orbit_size: int
    embedding_type: EmbeddingType
    linking_profile: LinkingProfile
    bracket: LaurentPoly


class CensusSummary(NamedTuple):
    total_depictions: int
    orbit_count: int
    per_type_orbit_counts: dict[EmbeddingType, int]
    per_type_depiction_counts: dict[EmbeddingType, int]


@functools.cache
def census_diagrams() -> tuple[LinkDiagram, ...]:
    """The 64 depictions' diagrams, indexed by assignment index; built once."""
    return tuple(map(to_diagram, all_assignments()))


def run_census() -> tuple[CensusRecord, ...]:
    """Classify all 64 depictions; the records are indexed by assignment index.

    A word's diagram is the shadow, word 000000's diagram, flipped at the
    word's index, so the shadow's one table of flip brackets gives all 64.
    """
    orbit_of_word = {
        member: (orbit_id, orbit.size)
        for orbit_id, orbit in enumerate(orbit_partition())
        for member in orbit.members
    }
    diagrams = census_diagrams()
    records = []
    for asg, d, bracket in zip(all_assignments(), diagrams, _flip_brackets(diagrams[0])):
        profile = pairwise_linking(d)
        kind = embedding_type(profile, functools.partial(_normalized, bracket, d))
        records.append(CensusRecord(asg, *orbit_of_word[asg], kind, profile, bracket))
    return tuple(records)


def census_summary(records: tuple[CensusRecord, ...]) -> CensusSummary:
    """The headline counts of word-indexed records.

    An orbit counts under its representative's type: the type of its
    smallest word, the first of its records.
    """
    orbit_types: dict[int, EmbeddingType] = {}
    for r in records:
        orbit_types.setdefault(r.orbit_id, r.embedding_type)
    orbits = collections.Counter(orbit_types.values())
    depictions = collections.Counter(r.embedding_type for r in records)
    return CensusSummary(
        total_depictions=len(records),
        orbit_count=len(orbit_types),
        per_type_orbit_counts={t: orbits[t] for t in _TYPE_ORDER},
        per_type_depiction_counts={t: depictions[t] for t in _TYPE_ORDER},
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_FIELDS = (
    "bitword",
    "orbit_id",
    "orbit_size",
    "embedding_type",
    "lk_ab",
    "lk_bc",
    "lk_ca",
    "linked_pairs",
    "bracket",
)


def _in_orbit_order(records: tuple[CensusRecord, ...]) -> list[CensusRecord]:
    """The order every export writes: by orbit id, then by word."""
    return sorted(records, key=lambda r: (r.orbit_id, r.assignment.bits))


def census_to_csv(records: tuple[CensusRecord, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in _in_orbit_order(records):
        writer.writerow(
            [
                r.assignment.word,
                r.orbit_id,
                r.orbit_size,
                r.embedding_type.value,
                *r.linking_profile,
                r.linking_profile.linked_pairs,
                r.bracket.to_text(),
            ]
        )
    return out.getvalue()


def census_to_json(records: tuple[CensusRecord, ...]) -> str:
    summary = census_summary(records)
    doc = {
        "schema_version": CENSUS_SCHEMA_VERSION,
        "kind": "trilink-census",
        "total_depictions": summary.total_depictions,
        "orbit_count": summary.orbit_count,
        "per_type_orbit_counts": {
            t.value: summary.per_type_orbit_counts[t] for t in _TYPE_ORDER
        },
        "per_type_depiction_counts": {
            t.value: summary.per_type_depiction_counts[t] for t in _TYPE_ORDER
        },
        "records": [
            {
                "bitword": r.assignment.word,
                "orbit_id": r.orbit_id,
                "orbit_size": r.orbit_size,
                "embedding_type": r.embedding_type.value,
                "linking_profile": list(r.linking_profile),
                "linked_pairs": r.linking_profile.linked_pairs,
                "bracket": r.bracket.to_text(),
            }
            for r in _in_orbit_order(records)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def census_table(records: tuple[CensusRecord, ...]) -> str:
    """Human-readable table; the final line repeats the headline counts."""
    summary = census_summary(records)
    lines = [
        f"{'bitword':<8} {'orbit':>5} {'size':>4} {'type':<14} {'lk':<6} bracket",
        "-" * 64,
    ]
    for r in _in_orbit_order(records):
        lines.append(
            f"{r.assignment.word:<8} {r.orbit_id:>5} {r.orbit_size:>4} "
            f"{r.embedding_type.value:<14} {str(r.linking_profile):<6} "
            f"{r.bracket.to_text()}"
        )
    lines.append("-" * 64)
    per_type = ", ".join(
        f"{t.value}={summary.per_type_orbit_counts[t]}" for t in _TYPE_ORDER
    )
    lines.append(f"patterns per type: {per_type}")
    observed = sum(1 for count in summary.per_type_orbit_counts.values() if count)
    lines.append(
        f"{summary.orbit_count} patterns in {observed} embedding types; "
        f"{summary.total_depictions} depictions"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"{c.name}: {'PASS' if c.passed else 'FAIL'} ({c.detail})"
            for c in self.checks
        ]
        verdict = "ALL CHECKS PASSED" if self.all_passed else "SOME CHECKS FAILED"
        return "\n".join(lines + [verdict]) + "\n"

    def to_json(self) -> str:
        doc = {
            "schema_version": CENSUS_SCHEMA_VERSION,
            "kind": "trilink-verification",
            "all_passed": self.all_passed,
            "checks": [c._asdict() for c in self.checks],
        }
        return json.dumps(doc, indent=2) + "\n"


#: Curve segments of each realization that ``verify_claims`` checks.
VERIFY_SEGMENTS = 512


class Realized:
    """A realization at ``VERIFY_SEGMENTS``; Gauss integrals, projection diagram, lks, type."""

    def __init__(self, kind: str) -> None:
        from . import geometry  # numpy; only the realization checks need it
        self.realization = geometry.realize(kind, segments=VERIFY_SEGMENTS)
        # The integrals certify their pairs, so the projection measures no distance.
        self.integrals = {
            frozenset((a.label, b.label)): geometry.gauss_linking_integral(a, b)
            for a, b in itertools.combinations(self.realization.curves, 2)
        }
        self.diagram = geometry.diagram_from_curves(self.realization)
        self.lks = signed_linking_numbers(self.diagram)
        self.type = classify(self.diagram)


class Evidence:
    """What the checks read: one census run, its orbits, and the realizations built on first use."""

    def __init__(self) -> None:
        self.records = run_census()
        self.summary = census_summary(self.records)
        self.diagrams = census_diagrams()
        self.orbits = orbit_partition()

    @functools.cached_property
    def realized(self) -> dict[str, Realized]:
        return {kind: Realized(kind) for kind in ("torus-villarceau", "borromean-ellipses")}


def _exhaustive(pass_detail: str, *parts: tuple[list[str], int, str]) -> tuple[bool, str]:
    """Pass with ``pass_detail``, or fail with each part's tally and the first failure."""
    failures = [failure for part, _total, _what in parts for failure in part]
    if not failures:
        return True, pass_detail
    tallies = "; ".join(
        f"{total - len(part)} of {total} {what} (expected {total})" for part, total, what in parts
    )
    return False, f"{tallies}; first failure: {failures[0]}"


def _census_cardinality(ev: Evidence) -> tuple[bool, str]:
    total = ev.summary.total_depictions
    return total == 64, f"enumerated {total} depictions (expected 64)"


def _pattern_count(ev: Evidence) -> tuple[bool, str]:
    count = ev.summary.orbit_count
    return count == 10, f"found {count} patterns (expected 10)"


def _pattern_counts_by_type(ev: Evidence) -> tuple[bool, str]:
    counts = ev.summary.per_type_orbit_counts
    return counts == EXPECTED_ORBITS_PER_TYPE, ", ".join(
        f"{t.value}={counts[t]}" for t in _TYPE_ORDER
    )


def _burnside_vs_partition(ev: Evidence) -> tuple[bool, str]:
    burnside, _table = burnside_count()
    count = ev.summary.orbit_count
    return burnside == count, f"group-averaged fixed points {burnside} = direct partition {count}"


def _case_mapping(ev: Evidence) -> tuple[bool, str]:
    """The linked-pair count determines the type; the bracket splits the zero-linked case."""
    case_failures, split_failures, zero_linked = [], [], 0
    for r, d in zip(ev.records, ev.diagrams):
        lp = r.linking_profile.linked_pairs
        if r.embedding_type not in _TYPES_BY_LINKED_PAIRS[lp]:
            case_failures.append(
                f"{r.assignment.word} has {lp} linked pairs but type {r.embedding_type}"
            )
        if lp == 0:
            zero_linked += 1
            trivial = equal_up_to_inversion(_normalized(r.bracket, d), THREE_UNLINK_BRACKET)
            if trivial != (r.embedding_type is EmbeddingType.Trivial3):
                split_failures.append(
                    f"{r.assignment.word} is zero-linked with type {r.embedding_type}, "
                    f"but its bracket is {'' if trivial else 'not '}the 3-unlink's"
                )
    return _exhaustive(
        f"all 64 depictions follow the four linked-pair cases; "
        f"{zero_linked} zero-linked depictions split by bracket",
        (case_failures, len(ev.records), "depictions follow the four linked-pair cases"),
        (split_failures, zero_linked, "zero-linked depictions split by bracket"),
    )


def _hopf_linking(ev: Evidence) -> tuple[bool, str]:
    pair = frozenset(("A", "B"))
    hopf_lk = linking_numbers(builtin_diagram("hopf"))[pair]
    unlink_lk = linking_numbers(builtin_diagram("unlink2"))[pair]
    return (
        hopf_lk == 1 and unlink_lk == 0,
        f"hopf pair links {hopf_lk} (expected 1), split pair {unlink_lk} (expected 0)",
    )


def _cuts(ev: Evidence, kind: EmbeddingType, linked: int, verb: str) -> tuple[bool, str]:
    """Cut every ring of every depiction of ``kind``, three cuts per depiction in the summary.

    Each remaining pair must link ``linked`` times; an unlinked pair must be the 2-unlink.
    """
    depictions = [
        member
        for orbit in ev.orbits
        if ev.records[orbit.representative.index].embedding_type is kind
        for member in orbit.members
    ]
    expected = 3 * ev.summary.per_type_depiction_counts[kind]
    cuts = 3 * len(depictions)
    failures = []
    for member in depictions:
        for label in CENTERS:
            reduced = remove_component(ev.diagrams[member.index], label)
            lk = next(iter(linking_numbers(reduced).values()))
            if lk != linked:
                failures.append(f"{member.word} cut at {label}: pair links {lk}")
            elif not linked and not equal_up_to_inversion(
                normalized_invariant(reduced), TWO_UNLINK_BRACKET
            ):
                failures.append(f"{member.word} cut at {label}: pair is not the 2-unlink")
    detail = f"{cuts - len(failures)} of {expected} expected cuts {verb} ({cuts} cuts made)"
    if failures:
        detail += f"; first failing cut: {failures[0]}"
    return cuts == expected and not failures, detail


def _brunnian_cut_property(ev: Evidence) -> tuple[bool, str]:
    return _cuts(ev, EmbeddingType.Borromean, 0, "split cleanly")


def _torus_pair_persistence(ev: Evidence) -> tuple[bool, str]:
    return _cuts(ev, EmbeddingType.TorusLink33, 1, "leave a linked pair")


def _brunnian_exactness(ev: Evidence) -> tuple[bool, str]:
    failures = []
    for r in ev.records:
        brunnian = is_brunnian(ev.diagrams[r.assignment.index])
        if brunnian != (r.embedding_type is EmbeddingType.Borromean):
            failures.append(
                f"{r.assignment.word} of type {r.embedding_type} is "
                f"{'' if brunnian else 'not '}Brunnian"
            )
    return _exhaustive(
        "the Brunnian test accepts exactly the woven depictions (64 checked)",
        (failures, len(ev.records), "depictions are Brunnian exactly when woven"),
    )


def _twist_invariance(ev: Evidence) -> tuple[bool, str]:
    twist = normalized_invariant(builtin_diagram("twist-unknot"))
    unknot = normalized_invariant(builtin_diagram("unknot"))
    return (
        twist == unknot,
        f"normalized single-kink value {twist.to_text()} equals unknot value {unknot.to_text()}",
    )


def _mirror_relation(ev: Evidence) -> tuple[bool, str]:
    failures = [
        f"{r.assignment.word}: bracket of its all-flips depiction is not the inverted bracket"
        for r, d in zip(ev.records, ev.diagrams)
        if kauffman_bracket(flip_all_crossings(d)) != r.bracket.substitute_inverse()
    ]
    return _exhaustive(
        "bracket of the all-flips depiction inverts the variable (64 checked)",
        (failures, 64, "all-flips depictions invert the bracket's variable"),
    )


def _classification_equivariance(ev: Evidence) -> tuple[bool, str]:
    failures = []
    for g, action in zip(group_elements(), _group_actions()):
        for r in ev.records:
            image = ev.records[apply_action(action, r.assignment).index]
            if r.embedding_type is not image.embedding_type:
                failures.append(
                    f"{g} maps {r.assignment.word} ({r.embedding_type}) "
                    f"to {image.assignment.word} ({image.embedding_type})"
                )
    return _exhaustive(
        "embedding type is constant along every symmetry action (768 checks)",
        (failures, len(group_elements()) * 64, "symmetry actions keep the embedding type"),
    )


def _villarceau_roundtrip(ev: Evidence) -> tuple[bool, str]:
    from . import geometry
    v = ev.realized["torus-villarceau"]
    roundness = max(geometry.roundness_deviation(c) for c in v.realization.curves)
    return (
        v.type is EmbeddingType.TorusLink33
        and all(abs(lk) == 1 for lk in v.lks.values())
        and roundness < 1e-9,
        f"classified {v.type.value}, pairwise |lk|="
        f"{sorted(abs(lk) for lk in v.lks.values())}, roundness {roundness:.2e}",
    )


def _ellipse_roundtrip(ev: Evidence) -> tuple[bool, str]:
    from . import geometry
    e = ev.realized["borromean-ellipses"]
    ratio = min(geometry.noncircularity_ratio(c) for c in e.realization.curves)
    unlinked = all(lk == 0 for lk in e.lks.values())
    return (
        e.type is EmbeddingType.Borromean
        and unlinked
        and is_brunnian(e.diagram)
        and ratio >= e.realization.params["a"] / e.realization.params["b"] - 1e-9,
        f"classified {e.type.value}, pairwise lk all zero: {unlinked}, stretch ratio {ratio:.6f}",
    )


def _gauss_vs_combinatorial(ev: Evidence) -> tuple[bool, str]:
    import numpy as np

    residuals = [
        abs(integral - realized.lks[pair])
        for realized in ev.realized.values()
        for pair, integral in realized.integrals.items()
    ]
    worst = float(np.max(residuals))  # nan when any residual is, unlike max()
    return (
        worst < 1e-3,
        f"largest |integral - crossing count/2| = {worst:.2e} "
        f"over 6 pairs at {VERIFY_SEGMENTS} segments (tolerance 1e-3)",
    )


def _census_determinism(ev: Evidence) -> tuple[bool, str]:
    """A second census run, not served from any cache, exports the same bytes."""
    again = run_census()
    failures = [
        f"the {name} exports of the two runs differ"
        for name, export in (("JSON", census_to_json), ("CSV", census_to_csv))
        if export(ev.records) != export(again)
    ]
    return _exhaustive(
        "two consecutive census runs serialize byte-identically",
        (failures, 2, "export formats serialize byte-identically"),
    )


#: (name, check) pairs in report order; a check maps ``Evidence`` to ``(passed, detail)``.
CHECKS: tuple[tuple[str, Callable[[Evidence], tuple[bool, str]]], ...] = (
    ("census-cardinality", _census_cardinality),
    ("pattern-count", _pattern_count),
    ("pattern-counts-by-type", _pattern_counts_by_type),
    ("burnside-vs-partition", _burnside_vs_partition),
    ("case-mapping", _case_mapping),
    ("hopf-linking", _hopf_linking),
    ("brunnian-cut-property", _brunnian_cut_property),
    ("torus-pair-persistence", _torus_pair_persistence),
    ("brunnian-exactness", _brunnian_exactness),
    ("twist-invariance", _twist_invariance),
    ("mirror-relation", _mirror_relation),
    ("classification-equivariance", _classification_equivariance),
    ("villarceau-roundtrip", _villarceau_roundtrip),
    ("ellipse-roundtrip", _ellipse_roundtrip),
    ("gauss-vs-combinatorial", _gauss_vs_combinatorial),
    ("census-determinism", _census_determinism),
)


def verify_claims() -> VerificationReport:
    """Re-derive and check every headline property: run ``CHECKS`` in order on one ``Evidence``.

    Only the 64 diagrams, the orbit partition and the shadow are shared
    with earlier runs in the process; the rest is derived anew.
    """
    evidence = Evidence()
    results = []
    for name, check in CHECKS:
        passed, detail = check(evidence)
        results.append(CheckResult(name, bool(passed), detail))
    return VerificationReport(tuple(results))
