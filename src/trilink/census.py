"""Full enumeration of the 64 depictions, joined with orbits and invariants.

The census is one table: ``run_census`` returns the 64 records indexed by
word (``records[i].assignment.index == i``), as ``census_diagrams`` is, and
``census_summary`` derives the headline counts from them.  The exporters
take only the records and write them in orbit order (by orbit id, orbits
numbered by their smallest member, then by word) with a fixed key order,
so repeated runs emit byte-identical output.  The exports are written
only, never read back: the census is recomputed on demand.
``verify_claims`` re-checks every headline property of the census and of
the 3D realizations and returns a structured pass/fail report.  The 64
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
    apply_action,
    burnside_count,
    group_elements,
    orbit_partition,
    site_action,
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
    lines.append(
        f"{summary.orbit_count} patterns in {len(_TYPE_ORDER)} embedding types; "
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


def verify_claims() -> VerificationReport:
    """Re-derive and check every headline property.

    Only the 64 diagrams, the orbit partition and the shadow are shared
    with earlier runs in the process; the rest is derived anew.
    """
    from . import geometry  # numpy; only the realization checks need it
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    def add_exhaustive(
        name: str, pass_detail: str, failures: list[str], observed: str
    ) -> None:
        """Pass with ``pass_detail``, or fail naming ``observed`` and the first failure."""
        if failures:
            add(name, False, f"{observed}; first failure: {failures[0]}")
        else:
            add(name, True, pass_detail)

    def tally(failures: list[str], total: int, what: str) -> str:
        return f"{total - len(failures)} of {total} {what} (expected {total})"

    records = run_census()
    summary = census_summary(records)
    diagrams = census_diagrams()
    orbits = orbit_partition()

    # 1. Census cardinality.
    add(
        "census-cardinality",
        summary.total_depictions == 64,
        f"enumerated {summary.total_depictions} depictions (expected 64)",
    )

    # 2. Pattern counts per type.
    add(
        "pattern-count",
        summary.orbit_count == 10,
        f"found {summary.orbit_count} patterns (expected 10)",
    )
    add(
        "pattern-counts-by-type",
        summary.per_type_orbit_counts == EXPECTED_ORBITS_PER_TYPE,
        ", ".join(
            f"{t.value}={summary.per_type_orbit_counts[t]}" for t in _TYPE_ORDER
        ),
    )

    # 3. Burnside consistency.
    burnside, _table = burnside_count()
    add(
        "burnside-vs-partition",
        burnside == summary.orbit_count,
        f"group-averaged fixed points {burnside} = direct partition {summary.orbit_count}",
    )

    # 4. Case mapping: linked-pairs count determines the type, with the
    # zero-linked case split by the bracket invariant.
    case_failures = []
    for r in records:
        lp = r.linking_profile.linked_pairs
        if r.embedding_type not in _TYPES_BY_LINKED_PAIRS[lp]:
            case_failures.append(
                f"{r.assignment.word} has {lp} linked pairs but type {r.embedding_type}"
            )
    zero_linked = [r for r in records if r.linking_profile.linked_pairs == 0]
    split_failures = []
    for r in zero_linked:
        trivial_bracket = equal_up_to_inversion(
            _normalized(r.bracket, diagrams[r.assignment.index]), THREE_UNLINK_BRACKET
        )
        if trivial_bracket != (r.embedding_type is EmbeddingType.Trivial3):
            split_failures.append(
                f"{r.assignment.word} is zero-linked with type {r.embedding_type}, "
                f"but its bracket is {'' if trivial_bracket else 'not '}the 3-unlink's"
            )
    add_exhaustive(
        "case-mapping",
        f"all 64 depictions follow the four linked-pair cases; "
        f"{len(zero_linked)} zero-linked depictions split by bracket",
        case_failures + split_failures,
        tally(case_failures, len(records), "depictions follow the four linked-pair cases")
        + "; "
        + tally(split_failures, len(zero_linked), "zero-linked depictions split by bracket"),
    )

    # 5. Hopf and trivial 2-link linking numbers.
    hopf = builtin_diagram("hopf")
    unlink2 = builtin_diagram("unlink2")
    hopf_lk = linking_numbers(hopf)[frozenset(("A", "B"))]
    unlink_lk = linking_numbers(unlink2)[frozenset(("A", "B"))]
    add(
        "hopf-linking",
        hopf_lk == 1 and unlink_lk == 0,
        f"hopf pair links {hopf_lk} (expected 1), split pair {unlink_lk} (expected 0)",
    )

    # 6. Brunnian cut property and torus pair persistence.  Each check cuts
    # every ring of every depiction of its type, so it must make exactly
    # three cuts per depiction of that type in the census summary.
    def cut_check(
        name: str,
        kind: EmbeddingType,
        verb: str,
        fault: Callable[[LinkDiagram], str],
    ) -> None:
        depictions = [
            member
            for orbit in orbits
            if records[orbit.representative.index].embedding_type is kind
            for member in orbit.members
        ]
        expected = 3 * summary.per_type_depiction_counts[kind]
        cuts = 3 * len(depictions)
        failures = []
        for member in depictions:
            for label in ("A", "B", "C"):
                problem = fault(remove_component(diagrams[member.index], label))
                if problem:
                    failures.append(f"{member.word} cut at {label}: {problem}")
        detail = (
            f"{cuts - len(failures)} of {expected} expected cuts {verb} "
            f"({cuts} cuts made)"
        )
        if failures:
            detail += f"; first failing cut: {failures[0]}"
        add(name, cuts == expected and not failures, detail)

    def pair_lk(reduced: LinkDiagram) -> int:
        return next(iter(linking_numbers(reduced).values()))

    def split_fault(reduced: LinkDiagram) -> str:
        lk = pair_lk(reduced)
        if lk != 0:
            return f"pair links {lk}"
        if not equal_up_to_inversion(
            normalized_invariant(reduced), TWO_UNLINK_BRACKET
        ):
            return "pair is not the 2-unlink"
        return ""

    def persist_fault(reduced: LinkDiagram) -> str:
        lk = pair_lk(reduced)
        return "" if lk == 1 else f"pair links {lk}"

    cut_check(
        "brunnian-cut-property", EmbeddingType.Borromean, "split cleanly",
        split_fault,
    )
    cut_check(
        "torus-pair-persistence", EmbeddingType.TorusLink33,
        "leave a linked pair", persist_fault,
    )

    # 7. Brunnian detection matches the classification exactly.
    brunnian_failures = []
    for r in records:
        brunnian = is_brunnian(diagrams[r.assignment.index])
        if brunnian != (r.embedding_type is EmbeddingType.Borromean):
            brunnian_failures.append(
                f"{r.assignment.word} of type {r.embedding_type} is "
                f"{'' if brunnian else 'not '}Brunnian"
            )
    add_exhaustive(
        "brunnian-exactness",
        "the Brunnian test accepts exactly the woven depictions (64 checked)",
        brunnian_failures,
        tally(brunnian_failures, len(records), "depictions are Brunnian exactly when woven"),
    )

    # 8. Twist invariance.
    twist = normalized_invariant(builtin_diagram("twist-unknot"))
    unknot = normalized_invariant(builtin_diagram("unknot"))
    add(
        "twist-invariance",
        twist == unknot,
        f"normalized single-kink value {twist.to_text()} equals unknot value {unknot.to_text()}",
    )

    # 9. Mirror relation, exhaustively.
    mirror_failures = [
        f"{r.assignment.word}: bracket of its all-flips depiction is not the inverted bracket"
        for r, d in zip(records, diagrams)
        if kauffman_bracket(flip_all_crossings(d)) != r.bracket.substitute_inverse()
    ]
    add_exhaustive(
        "mirror-relation",
        "bracket of the all-flips depiction inverts the variable (64 checked)",
        mirror_failures,
        tally(mirror_failures, 64, "all-flips depictions invert the bracket's variable"),
    )

    # 10. Classification equivariance over all 64 x 12 pairs.
    equivariance_failures = []
    for g in group_elements():
        action = site_action(g)
        for r in records:
            image = records[apply_action(action, r.assignment).index]
            if r.embedding_type is not image.embedding_type:
                equivariance_failures.append(
                    f"{g} maps {r.assignment.word} ({r.embedding_type}) "
                    f"to {image.assignment.word} ({image.embedding_type})"
                )
    add_exhaustive(
        "classification-equivariance",
        "embedding type is constant along every symmetry action (768 checks)",
        equivariance_failures,
        tally(
            equivariance_failures,
            len(group_elements()) * 64,
            "symmetry actions keep the embedding type",
        ),
    )

    # 11. Geometry round trips: one projection per realization gives every
    # pair's signed linking number and the classification.
    villarceau = geometry.realize("torus-villarceau", segments=VERIFY_SEGMENTS)
    roundness = max(geometry.roundness_deviation(c) for c in villarceau.curves)
    v_diagram = geometry.diagram_from_curves(villarceau)
    v_lks = signed_linking_numbers(v_diagram)
    v_class = classify(v_diagram)
    add(
        "villarceau-roundtrip",
        v_class is EmbeddingType.TorusLink33
        and all(abs(v) == 1 for v in v_lks.values())
        and roundness < 1e-9,
        f"classified {v_class.value}, pairwise |lk|="
        f"{sorted(abs(v) for v in v_lks.values())}, roundness {roundness:.2e}",
    )

    ellipses = geometry.realize("borromean-ellipses", segments=VERIFY_SEGMENTS)
    a, b = ellipses.params["a"], ellipses.params["b"]
    ratio = min(geometry.noncircularity_ratio(c) for c in ellipses.curves)
    e_diagram = geometry.diagram_from_curves(ellipses)
    e_lks = signed_linking_numbers(e_diagram)
    e_class = classify(e_diagram)
    add(
        "ellipse-roundtrip",
        e_class is EmbeddingType.Borromean
        and all(v == 0 for v in e_lks.values())
        and is_brunnian(e_diagram)
        and ratio >= a / b - 1e-9,
        f"classified {e_class.value}, pairwise lk all zero: "
        f"{all(v == 0 for v in e_lks.values())}, stretch ratio {ratio:.6f}",
    )

    # 12. Numeric cross-check of the two linking-number routes.
    integral_ok = True
    worst = 0.0
    for realization, lks in ((villarceau, v_lks), (ellipses, e_lks)):
        for a, b in itertools.combinations(realization.curves, 2):
            combinatorial = lks[frozenset((a.label, b.label))]
            integral = geometry.gauss_linking_integral(a, b)
            worst = max(worst, abs(integral - combinatorial))
            if abs(integral - combinatorial) >= 1e-3:
                integral_ok = False
    add(
        "gauss-vs-combinatorial",
        integral_ok,
        f"largest |integral - crossing count/2| = {worst:.2e} "
        f"over 6 pairs at {VERIFY_SEGMENTS} segments (tolerance 1e-3)",
    )

    # 13. Census determinism.
    records2 = run_census()
    determinism_failures = [
        f"the {name} exports of the two runs differ"
        for name, export in (("JSON", census_to_json), ("CSV", census_to_csv))
        if export(records) != export(records2)
    ]
    add_exhaustive(
        "census-determinism",
        "two consecutive census runs serialize byte-identically",
        determinism_failures,
        tally(determinism_failures, 2, "export formats serialize byte-identically"),
    )

    return VerificationReport(tuple(checks))
