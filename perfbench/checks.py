"""Known-answer checks for every benchmark operation.

Each check returns an :class:`Outcome`, or raises ``LookupError``,
``ValueError``, ``TypeError`` or ``SyntaxError`` (XML) when the output does
not read back at all; the caller counts that as a wrong answer.
``failed`` counts attempted operations that raised, exited non-zero or
gave an output that differs from the known answer.  ``wrong`` is set only when an output the program
presented as a success differs from the known answer; a check that the
program itself reports as FAIL (``trilink verify``) is a failed operation,
not a wrong one.

Known answers come from the paper and from ``reference.csv``, the 64-row
census table (word -> type, orbit representative and size, linking
profile, writhe, bracket and normalized bracket).  The table's own totals
are checked against the paper when it is loaded.
"""

from __future__ import annotations

import csv
import io
import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_CSV = Path(__file__).with_name("reference.csv")

TYPES = ("TorusLink33", "Chain3", "HopfWithSplit", "Trivial3", "Borromean")
#: Patterns (symmetry orbits) per embedding type, from the paper.
PAPER_ORBITS_PER_TYPE = {"TorusLink33": 2, "Chain3": 3, "HopfWithSplit": 3, "Trivial3": 1, "Borromean": 1}
PAPER_PATTERNS = 10
DEPICTIONS = 64
CROSSINGS = 6

#: Site pairs in site order; the first circle of a pair passes over when its bit is 1.
SITE_PAIRS = (("A", "B"), ("B", "C"), ("C", "A"))

#: The sixteen checks of ``trilink verify``, in report order; each should pass.
VERIFY_CHECKS = (
    "census-cardinality",
    "pattern-count",
    "pattern-counts-by-type",
    "burnside-vs-partition",
    "case-mapping",
    "hopf-linking",
    "brunnian-cut-property",
    "torus-pair-persistence",
    "brunnian-exactness",
    "twist-invariance",
    "mirror-relation",
    "classification-equivariance",
    "villarceau-roundtrip",
    "ellipse-roundtrip",
    "gauss-vs-combinatorial",
    "census-determinism",
)

#: Expected |lk| of every curve pair, and embedding type, of each realization.
REALIZE_ANSWERS = {"torus-villarceau": (1, "TorusLink33"), "borromean-ellipses": (0, "Borromean")}
GAUSS_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Row:
    word: str
    type: str
    rep: str
    size: int
    lk: tuple[int, int, int]
    writhe: int
    bracket: str
    normalized: str


@dataclass
class Outcome:
    attempted: int = 1
    failed: int = 0
    wrong: bool = False
    problems: list[str] = field(default_factory=list)

    def wrong_answer(self, message: str) -> None:
        self.problems.append(message)
        self.wrong = True
        self.failed = self.attempted


def load_reference(path=REFERENCE_CSV) -> dict[str, Row]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = {
            r["word"]: Row(
                r["word"], r["type"], r["rep"], int(r["size"]),
                (int(r["lk_ab"]), int(r["lk_bc"]), int(r["lk_ca"])),
                int(r["writhe"]), r["bracket"], r["normalized"],
            )
            for r in csv.DictReader(fh)
        }
    problems = reference_problems(rows)
    if problems:
        raise ValueError("reference table disagrees with the paper: " + "; ".join(problems))
    return rows


def reference_problems(rows: dict[str, Row]) -> list[str]:
    """Differences between the table's totals and the paper's counts."""
    problems = []
    if sorted(rows) != [format(i, "06b") for i in range(DEPICTIONS)]:
        problems.append("table does not list each of the 64 words once")
    reps = {r.rep for r in rows.values()}
    if len(reps) != PAPER_PATTERNS:
        problems.append(f"{len(reps)} patterns, paper has {PAPER_PATTERNS}")
    per_type = {t: sum(1 for rep in reps if rows[rep].type == t) for t in TYPES}
    if per_type != PAPER_ORBITS_PER_TYPE:
        problems.append(f"patterns per type {per_type}, paper has {PAPER_ORBITS_PER_TYPE}")
    for rep in reps:
        members = [r for r in rows.values() if r.rep == rep]
        if len(members) != rows[rep].size or any(m.type != rows[rep].type for m in members):
            problems.append(f"orbit of {rep} is inconsistent")
    return problems


def depiction_counts(rows: dict[str, Row]) -> dict[str, int]:
    return {t: sum(1 for r in rows.values() if r.type == t) for t in TYPES}


def over_circle(word: str, site: int) -> str:
    lead, partner = SITE_PAIRS[site // 2]
    return lead if word[site] == "1" else partner


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            out[parts[0]] = parts[1]
    return out


def _expect(outcome: Outcome, what: str, observed, expected) -> None:
    if observed != expected:
        outcome.wrong_answer(f"{what}: expected {expected!r}, observed {observed!r}")


def _exit_ok(outcome: Outcome, code: int, err: str) -> bool:
    if code != 0:
        outcome.failed = outcome.attempted
        outcome.problems.append(f"exit status {code}: {err.strip()[:200]}")
        return False
    return True


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def check_classify(ref, word, code, out, err) -> Outcome:
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    row = ref[word]
    got = _kv(out)
    _expect(o, "classify bitword", got.get("bitword"), word)
    _expect(o, "classify type", got.get("embedding type"), row.type)
    _expect(o, "classify orbit", got.get("orbit rep"), f"{row.rep} (size {row.size})")
    _expect(o, "classify linking", got.get("linking profile"), ",".join(map(str, row.lk)))
    _expect(o, "classify bracket", got.get("bracket"), row.bracket)
    return o


def check_invariants(ref, word, code, out, err) -> Outcome:
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    row = ref[word]
    ab, bc, ca = row.lk
    got = _kv(out)
    _expect(o, "invariants components", got.get("components"), "3")
    _expect(o, "invariants crossings", got.get("crossings"), str(CROSSINGS))
    _expect(o, "invariants linking", got.get("linking"),
            f"A-B={ab}, A-C={ca}, B-C={bc} (profile {ab},{bc},{ca})")
    _expect(o, "invariants writhe", got.get("writhe"), str(row.writhe))
    _expect(o, "invariants bracket", got.get("bracket"), row.bracket)
    _expect(o, "invariants normalized", got.get("normalized"), row.normalized)
    return o


def check_export(word, code, out, err, diagram_from_text, diagram_to_text) -> Outcome:
    """Round trip through the parser, and the over-strand of every crossing."""
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    d = diagram_from_text(out)
    _expect(o, "export round trip", diagram_to_text(d), out)
    visits = {c.label: [(v.crossing, v.entry_slot) for v in c.visits] for c in d.components}
    text_visits = {}
    for line in out.splitlines():
        if line.startswith("component "):
            label, _, cycle = line[len("component "):].partition(":")
            text_visits[label.strip()] = [tuple(map(int, t.split("."))) for t in cycle.split()]
    _expect(o, "export visits", visits, text_visits)
    _expect(o, "export crossings", d.crossing_count, CROSSINGS)
    over = {}
    for label, cycle in visits.items():
        for crossing, slot in cycle:
            if slot != 0:
                over.setdefault(crossing, []).append(label)
    expected = {site: [over_circle(word, site)] for site in range(CROSSINGS)}
    _expect(o, "export over-strands", over, expected)
    return o


def under_counts(word: str) -> dict[str, int]:
    """How often each circle passes under, i.e. the gaps its SVG stroke has."""
    counts = {"A": 0, "B": 0, "C": 0}
    for site in range(CROSSINGS):
        lead, partner = SITE_PAIRS[site // 2]
        counts[partner if over_circle(word, site) == lead else lead] += 1
    return counts


SVG = "{http://www.w3.org/2000/svg}"


def _parse_svg(o: Outcome, text: str):
    root = ET.fromstring(text.encode("utf-8"))
    _expect(o, "SVG root element", root.tag, f"{SVG}svg")
    return root


def check_render_diagram(word, colors, code, out, err) -> Outcome:
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    root = _parse_svg(o, out)
    gaps, strokes = {}, {}
    for g in root.iter(f"{SVG}g"):
        label = g.get("id", "").removeprefix("component-")
        gaps[label] = int(g.get("data-gaps", "-1"))
        path = g.find(f"{SVG}path")
        strokes[label] = None if path is None else path.get("stroke")
    _expect(o, "render gap total", sum(gaps.values()), CROSSINGS)
    _expect(o, "render gaps per component", gaps, under_counts(word))
    _expect(o, "render colors", strokes, colors)
    return o


#: SVG circles of class ``sphere`` in each scene.
SCENE_SPHERES = {"tangent-circles": 0, "great-circles": 1, "horn-torus": 0, "tangent-spheres": 3}


def check_render_3d(subject, segments, code, out, err) -> Outcome:
    """``render --scene`` / ``render --realize``: well-formed SVG with the right content."""
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    root = _parse_svg(o, out)
    if subject in SCENE_SPHERES:
        spheres = sum(1 for c in root.iter(f"{SVG}circle") if c.get("class") == "sphere")
        _expect(o, f"{subject} spheres", spheres, SCENE_SPHERES[subject])
    else:
        lines = {}
        for line in root.iter(f"{SVG}line"):
            lines[line.get("class")] = lines.get(line.get("class"), 0) + 1
        _expect(o, f"{subject} segments per curve", lines,
                {f"curve-{c}": segments for c in "ABC"})
    return o


def _census_row_problems(ref, word, orbit_id, size, type_, lk, bracket, orbit_reps) -> list[str]:
    row = ref.get(word)
    if row is None:
        return [f"unknown word {word!r}"]
    got = (size, type_, tuple(lk), bracket)
    want = (row.size, row.type, row.lk, row.bracket)
    problems = [] if got == want else [f"{word}: expected {want}, observed {got}"]
    if orbit_reps.setdefault(orbit_id, row.rep) != row.rep:
        problems.append(f"orbit {orbit_id} mixes patterns {orbit_reps[orbit_id]} and {row.rep}")
    return problems


def check_census(ref, fmt, code, out, err) -> Outcome:
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    orbit_reps: dict[int, str] = {}
    words = []
    problems = []
    if fmt == "json":
        doc = json.loads(out)
        _expect(o, "census total", doc["total_depictions"], DEPICTIONS)
        _expect(o, "census orbit count", doc["orbit_count"], PAPER_PATTERNS)
        _expect(o, "census orbits per type", doc["per_type_orbit_counts"], PAPER_ORBITS_PER_TYPE)
        _expect(o, "census depictions per type", doc["per_type_depiction_counts"],
                depiction_counts(ref))
        for rec in doc["records"]:
            words.append(rec["bitword"])
            problems += _census_row_problems(
                ref, rec["bitword"], rec["orbit_id"], rec["orbit_size"],
                rec["embedding_type"], rec["linking_profile"], rec["bracket"], orbit_reps)
    elif fmt == "csv":
        for rec in csv.DictReader(io.StringIO(out)):
            words.append(rec["bitword"])
            lk = (int(rec["lk_ab"]), int(rec["lk_bc"]), int(rec["lk_ca"]))
            if int(rec["linked_pairs"]) != sum(1 for v in lk if v):
                problems.append(f"{rec['bitword']}: linked_pairs disagrees with lk")
            problems += _census_row_problems(
                ref, rec["bitword"], int(rec["orbit_id"]), int(rec["orbit_size"]),
                rec["embedding_type"], lk, rec["bracket"], orbit_reps)
    else:
        lines = out.splitlines()
        for line in lines[2:-3]:
            word, orbit_id, size, type_, lk, bracket = line.split(None, 5)
            words.append(word)
            problems += _census_row_problems(
                ref, word, int(orbit_id), int(size), type_,
                tuple(map(int, lk.split(","))), bracket, orbit_reps)
        per_type = ", ".join(f"{t}={n}" for t, n in PAPER_ORBITS_PER_TYPE.items())
        _expect(o, "census table summary", lines[-2:], [
            f"patterns per type: {per_type}",
            f"{PAPER_PATTERNS} patterns in {len(TYPES)} embedding types; {DEPICTIONS} depictions",
        ])
    for p in problems[:5]:
        o.wrong_answer(p)
    _expect(o, "census words", sorted(words), sorted(ref))
    _expect(o, "census patterns", len(orbit_reps), PAPER_PATTERNS)
    return o


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def check_verify(code, out, err) -> Outcome:
    """Every one of the sixteen checks should pass; each counts as one operation."""
    o = Outcome(attempted=len(VERIFY_CHECKS))
    doc = json.loads(out)
    names = [c["name"] for c in doc["checks"]]
    passed = [c["passed"] for c in doc["checks"]]
    _expect(o, "verify check names", tuple(names), VERIFY_CHECKS)
    _expect(o, "verify verdict", doc["all_passed"], all(passed))
    _expect(o, "verify exit status", code, 0 if all(passed) else 1)
    if not o.wrong:
        failing = [c for c in doc["checks"] if not c["passed"]]
        o.failed = len(failing)
        o.problems += [f"check {c['name']} FAIL ({c['detail']})" for c in failing]
    return o


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def check_realize(kind, params, segments, min_separation, code, out, err, gauss, embedding) -> Outcome:
    o = Outcome()
    if not _exit_ok(o, code, err):
        return o
    lines = out.splitlines()
    expected_lk, expected_type = REALIZE_ANSWERS[kind]
    _expect(o, "realize header", lines[0] if lines else None, f"trilink-curves v1 kind={kind}")
    _expect(o, "realize params",
            {ln.split()[1]: float(ln.split()[2]) for ln in lines if ln.startswith("param ")}, params)
    curves = [ln for ln in lines if ln.startswith("curve ")]
    _expect(o, "realize curves", curves, [f"curve {c} n={segments}" for c in "ABC"])
    points = sum(1 for ln in lines if ln and ln[0] in "-0123456789")
    _expect(o, "realize points", points, 3 * segments)
    lks = {}
    distance = None
    for ln in lines:
        m = re.fullmatch(r"lk\((\w),(\w)\) = (-?\d+)", ln)
        if m:
            lks[(m.group(1), m.group(2))] = int(m.group(3))
        elif ln.startswith("min pairwise curve distance = "):
            distance = float(ln.rpartition("= ")[2])
    pairs = [("A", "B"), ("A", "C"), ("B", "C")]
    _expect(o, "realize |lk|", {p: abs(v) for p, v in lks.items()}, {p: expected_lk for p in pairs})
    if distance is None or not distance > min_separation:
        o.wrong_answer(f"min curve distance {distance} not above {min_separation}")
    worst = max(abs(g - lks[p]) for g, p in zip(gauss, pairs, strict=True))
    if not worst < GAUSS_TOLERANCE:
        o.wrong_answer(f"|Gauss - lk| = {worst:.3g} not below {GAUSS_TOLERANCE}")
    _expect(o, "realize embedding type", embedding, expected_type)
    return o
