"""Planar link diagrams for the three-circle census and its test fixtures.

The fixed projection consists of three equal circles whose centers sit at
unit distance from the origin at angles 90, 210 and 330 degrees, with a
common radius of 1.2.  Any two circles meet in exactly two points (one
"inner" point close to the origin, one "outer" point), giving six crossing
sites.  A depiction chooses over/under at each site; there are 2^6 = 64.

Bit convention
--------------
Site indices are fixed: 0=AB-inner, 1=AB-outer, 2=BC-inner, 3=BC-outer,
4=CA-inner, 5=CA-outer.  The bit of a site is true when the *first-named*
circle of its pair passes over: A at AB sites, B at BC sites, C at CA
sites.  With this convention "111100" is the height stack A above B above
C, and the 120-degree rotation carries bits around without negating them.

Diagram model
-------------
A crossing is a 4-valent vertex with dart slots 0..3 in counterclockwise
planar order.  The under-strand always enters at slot 0 and leaves at
slot 2; the over-strand enters at slot 1 or slot 3 and leaves two slots
later.  A component is a closed strand recorded as the cyclic sequence of
(crossing, entry slot) visits in traversal order; the traversal order *is*
the component's orientation.  Census circles are traversed
counterclockwise.

Crossing sign (right-hand rule): rotating the under-strand direction
counterclockwise by a quarter turn aligns it with the over-strand
direction exactly when the over-strand enters at slot 1, so a crossing is
positive iff its over-entry slot is 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DegeneracyError, InputError

if TYPE_CHECKING:
    from .polyline import PlanarStrand

EXPORT_SCHEMA = "trilink-diagram v1"

_CIRCLE_PATH_POINTS = 240


#: Pairs of circle labels in site order; the first of each pair is the bit-reference circle.
SITE_PAIRS = (("A", "B"), ("B", "C"), ("C", "A"))

CENTER_DISTANCE = 1.0
CIRCLE_RADIUS = 1.2


class CrossingSite(NamedTuple):
    """One of the six intersection points of the fixed projection."""

    site_index: int
    pair: tuple[str, str]  # (lead, partner) in site-name order
    depth: str  # "inner" | "outer"
    position: tuple[float, float]


def _circle_intersections(
    c1: tuple[float, float], c2: tuple[float, float], radius: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Both intersection points of two equal-radius circles."""
    dx, dy = c2[0] - c1[0], c2[1] - c1[1]
    d = math.hypot(dx, dy)
    if d <= 0 or d >= 2 * radius:
        raise InputError("circles do not meet in two points")
    half = d / 2.0
    h = math.sqrt(radius * radius - half * half)
    mx, my = (c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0
    ux, uy = dx / d, dy / d
    # normal to the center line
    nx, ny = -uy, ux
    return ((mx + h * nx, my + h * ny), (mx - h * nx, my - h * ny))


_HALF_SQRT3 = math.sqrt(3.0) / 2.0

#: Center of each circle of the fixed projection, keyed by its label in A, B, C order.
CENTERS: dict[str, tuple[float, float]] = {
    "A": (0.0, CENTER_DISTANCE),
    "B": (-_HALF_SQRT3 * CENTER_DISTANCE, -0.5 * CENTER_DISTANCE),
    "C": (_HALF_SQRT3 * CENTER_DISTANCE, -0.5 * CENTER_DISTANCE),
}


def _sites() -> tuple[CrossingSite, ...]:
    sites: list[CrossingSite] = []
    for pair_index, (lead, partner) in enumerate(SITE_PAIRS):
        p1, p2 = _circle_intersections(CENTERS[lead], CENTERS[partner], CIRCLE_RADIUS)
        inner, outer = (p1, p2) if math.hypot(*p1) <= math.hypot(*p2) else (p2, p1)
        sites.append(CrossingSite(2 * pair_index, (lead, partner), "inner", inner))
        sites.append(CrossingSite(2 * pair_index + 1, (lead, partner), "outer", outer))
    return tuple(sites)


#: The six crossing sites of the fixed projection, in site-index order.
SITES = _sites()


# ---------------------------------------------------------------------------
# Crossing assignments
# ---------------------------------------------------------------------------


class CrossingAssignment(NamedTuple):
    """Over/under choice at each of the six sites, as a 6-bit word."""

    bits: tuple[bool, bool, bool, bool, bool, bool]

    @property
    def word(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def index(self) -> int:
        return sum(itertools.compress((32, 16, 8, 4, 2, 1), self.bits))

    def __str__(self) -> str:
        return self.word


def assignment_from_text(word: str) -> CrossingAssignment:
    """Parse a 6-character 0/1 word; index 0 is the leftmost character."""
    if not isinstance(word, str):
        raise InputError(f"assignment word must be a str, got {word!r}")
    if len(word) != 6:
        raise InputError(f"assignment word must have length 6, got length {len(word)}")
    bits = []
    for pos, ch in enumerate(word):
        if ch not in "01":
            raise InputError(
                f"invalid character {ch!r} at position {pos} (expected '0' or '1')"
            )
        bits.append(ch == "1")
    return CrossingAssignment(tuple(bits))  # type: ignore[arg-type]


def assignment_from_index(index: int) -> CrossingAssignment:
    if type(index) is not int or not 0 <= index < 64:
        raise InputError(f"assignment index must be an int in 0..63, got {index!r}")
    return assignment_from_text(format(index, "06b"))


@functools.cache
def all_assignments() -> tuple[CrossingAssignment, ...]:
    return tuple(assignment_from_index(i) for i in range(64))


# ---------------------------------------------------------------------------
# Link diagrams
# ---------------------------------------------------------------------------


class Visit(NamedTuple):
    """One passage of a component through a crossing."""

    crossing: int
    entry_slot: int  # 0 = under; 1 or 3 = over
    path_param: float | None = None  # arclength along the component path

    @property
    def role(self) -> str:
        return "under" if self.entry_slot in (0, 2) else "over"


class Crossing(NamedTuple):
    """A 4-valent diagram vertex (slots counterclockwise, under on 0/2)."""

    over_entry_slot: int  # 1 or 3
    position: tuple[float, float] | None = None
    site_index: int | None = None

    @property
    def sign(self) -> int:
        return 1 if self.over_entry_slot == 1 else -1


class Component(NamedTuple):
    """A closed oriented strand: visits in traversal order plus draw geometry."""

    label: str
    visits: tuple[Visit, ...]
    path: tuple[tuple[float, float], ...] | None = None


class LinkDiagram(NamedTuple):
    """A combinatorial planar diagram of a link."""

    components: tuple[Component, ...]
    crossings: tuple[Crossing, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def component_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.components)

    def component(self, label: str) -> Component:
        for comp in self.components:
            if comp.label == label:
                return comp
        raise InputError(
            f"no component labeled {label!r}; valid labels: "
            + ", ".join(self.component_labels())
        )

    def arc_mates(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Pairing of exit darts with the next entry dart along each strand.

        Darts are (crossing, slot).  Every dart of every crossing appears
        exactly once in the involution, which is what makes state-sum loop
        tracing terminate and partition all arcs.
        """
        mates: dict[tuple[int, int], tuple[int, int]] = {}
        for comp in self.components:
            n = len(comp.visits)
            for i, visit in enumerate(comp.visits):
                nxt = comp.visits[(i + 1) % n]
                exit_dart = (visit.crossing, (visit.entry_slot + 2) % 4)
                entry_dart = (nxt.crossing, nxt.entry_slot)
                mates[exit_dart] = entry_dart
                mates[entry_dart] = exit_dart
        return mates

    def free_component_count(self) -> int:
        """Components that pass through no crossing."""
        return sum(1 for comp in self.components if not comp.visits)


def validate_diagram(d: LinkDiagram) -> None:
    """Raise if the structural invariants of the diagram model are violated.

    Besides distinct labels and the dart structure, two components must
    share an even number of crossings, as two closed curves in the plane do.
    """
    labels = d.component_labels()
    if len(set(labels)) != len(labels):
        raise InputError("component labels repeat: " + ", ".join(labels))
    seen: dict[int, list[tuple[int, str]]] = {i: [] for i in range(len(d.crossings))}
    for comp in d.components:
        if len(comp.visits) % 2 != 0:
            raise InputError(
                f"component {comp.label} has an odd number of crossing visits"
            )
        for visit in comp.visits:
            if visit.crossing not in seen:
                raise InputError(f"visit references unknown crossing {visit.crossing}")
            seen[visit.crossing].append((visit.entry_slot, comp.label))
    for idx, passes in seen.items():
        slots = sorted(slot for slot, _ in passes)
        expected = sorted((0, d.crossings[idx].over_entry_slot))
        if slots != expected:
            raise InputError(
                f"crossing {idx} has entry slots {slots}, expected {expected}"
            )
    mates = d.arc_mates()
    darts = {(i, s) for i in range(len(d.crossings)) for s in range(4)}
    if set(mates) != darts:
        raise InputError("arc structure does not cover every dart exactly once")
    shared: dict[tuple[str, ...], int] = {}
    for passes in seen.values():
        pair = tuple(sorted(label for _, label in passes))
        if pair[0] != pair[1]:
            shared[pair] = shared.get(pair, 0) + 1
    for (first, second), count in shared.items():
        if count % 2:
            raise InputError(
                f"components {first} and {second} cross {count} times, an odd number"
            )


def _over_entry_slot(t_under: tuple[float, float], t_over: tuple[float, float]) -> int:
    """Slot (1 or 3) at which the over-strand enters, from travel directions."""
    cross = t_under[0] * t_over[1] - t_under[1] * t_over[0]
    if cross == 0.0:
        raise DegeneracyError("tangent strands at a crossing")
    return 1 if cross > 0 else 3


# ---------------------------------------------------------------------------
# Census diagrams (analytic construction from the fixed projection)
# ---------------------------------------------------------------------------


def _ccw_tangent(point: tuple[float, float], center: tuple[float, float]) -> tuple[float, float]:
    rx, ry = point[0] - center[0], point[1] - center[1]
    return (-ry, rx)


@functools.cache
def _circle_path(center: tuple[float, float], radius: float) -> tuple[tuple[float, float], ...]:
    """Draw path of a round circle, counterclockwise from angle -pi; built once per circle."""
    pts = []
    for k in range(_CIRCLE_PATH_POINTS):
        a = -math.pi + 2.0 * math.pi * k / _CIRCLE_PATH_POINTS
        pts.append((center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)))
    return tuple(pts)


#: Tolerance of the genericity tests of a projected picture (vertex hits,
#: tangency, coincident crossings, equal depths).
GENERIC_TOL = 1e-9


def _reject_coincident(points) -> None:
    """Raise :class:`DegeneracyError` if two crossings nearly coincide: a triple point or tangency."""
    for p, q in itertools.combinations(points, 2):
        if math.dist(p, q) < GENERIC_TOL:
            raise DegeneracyError("two crossings nearly coincide")


def _circle_diagram(
    circles: Sequence[tuple[str, tuple[float, float], float]],
    meetings: Sequence[tuple[str, str, tuple[float, float], int | None]],
) -> LinkDiagram:
    """Diagram of labelled round circles, each traversed counterclockwise from angle -pi.

    ``meetings`` lists ``(over, under, point, site)`` per crossing; crossing
    ids follow its order.
    """
    _reject_coincident(point for _, _, point, _ in meetings)
    centers = {label: center for label, center, _ in circles}
    crossings = [
        Crossing(
            over_entry_slot=_over_entry_slot(
                _ccw_tangent(point, centers[under]), _ccw_tangent(point, centers[over])
            ),
            position=point,
            site_index=site,
        )
        for over, under, point, site in meetings
    ]
    components: list[Component] = []
    for label, center, radius in circles:
        passages = []
        for idx, (over, under, point, _) in enumerate(meetings):
            if label in (over, under):
                angle = math.atan2(point[1] - center[1], point[0] - center[0])
                slot = crossings[idx].over_entry_slot if over == label else 0
                param = radius * ((angle + math.pi) % (2.0 * math.pi))
                passages.append((angle, Visit(idx, slot, param)))
        passages.sort(key=lambda item: item[0])
        components.append(
            Component(
                label=label,
                visits=tuple(visit for _, visit in passages),
                path=_circle_path(center, radius),
            )
        )
    return LinkDiagram(components=tuple(components), crossings=tuple(crossings))


@functools.cache
def _shadow() -> LinkDiagram:
    """The depiction of word 000000, the partner circle over at every site; built once."""
    meetings = [(x.pair[1], x.pair[0], x.position, x.site_index) for x in SITES]
    circles = [(label, center, CIRCLE_RADIUS) for label, center in CENTERS.items()]
    return _circle_diagram(circles, meetings)


def to_diagram(asg: CrossingAssignment) -> LinkDiagram:
    """The depiction of ``asg``: the shadow flipped at the word's index as a mask.

    Crossing ids coincide with site indices.  Components are the circles
    A, B, C, each traversed counterclockwise from angle -pi.
    """
    return flip_crossings(_shadow(), asg.index)


# ---------------------------------------------------------------------------
# Generic polyline construction (self-crossings allowed)
# ---------------------------------------------------------------------------


class Meeting(NamedTuple):
    strand_i: int
    param_i: float  # arclength along strand_i
    tangent_i: tuple[float, float]
    depth_i: float
    strand_j: int
    param_j: float
    tangent_j: tuple[float, float]
    depth_j: float
    point: tuple[float, float]


def diagram_from_strands(strands: Sequence[PlanarStrand]) -> LinkDiagram:
    """Assemble a diagram from closed planar polylines.

    At each meeting the passage of larger depth, interpolated along its
    segment, goes over.  Raises :class:`DegeneracyError` for non-generic
    pictures (tangency, vertex hits, near-coincident crossings, depths
    equal within ``GENERIC_TOL``, two distinct strands crossing an odd
    number of times).  The strands were checked when they were built
    (:class:`~trilink.polyline.PlanarStrand`).
    """
    from .polyline import segment_meetings

    meetings: list[Meeting] = []
    for i, a in enumerate(strands):
        for j, b in enumerate(strands[i:], start=i):
            recs = segment_meetings(a, b, GENERIC_TOL)
            if i != j and len(recs) % 2:
                # Two closed curves in general position cross an even number of times.
                raise DegeneracyError(
                    f"strands {a.label!r} and {b.label!r} cross {len(recs)} times, an odd number"
                )
            for seg_a, t_a, seg_b, t_b, point, depth_a, depth_b in recs:
                ta, tb = a.steps[seg_a].tolist(), b.steps[seg_b].tolist()
                meetings.append(
                    Meeting(
                        i, a.arclength(seg_a, t_a), tuple(ta), depth_a,
                        j, b.arclength(seg_b, t_b), tuple(tb), depth_b, point,
                    )
                )

    _reject_coincident(m.point for m in meetings)

    meetings.sort(key=lambda m: (m.strand_i, m.param_i, m.strand_j, m.param_j))

    crossings: list[Crossing] = []
    passages: list[list[tuple[float, int, int]]] = [[] for _ in strands]
    for idx, m in enumerate(meetings):
        if abs(m.depth_i - m.depth_j) < GENERIC_TOL:
            raise DegeneracyError("ambiguous depth at a crossing")
        first_over = m.depth_i > m.depth_j
        if first_over:
            t_over, t_under = m.tangent_i, m.tangent_j
        else:
            t_over, t_under = m.tangent_j, m.tangent_i
        over_slot = _over_entry_slot(t_under, t_over)
        crossings.append(Crossing(over_entry_slot=over_slot, position=m.point))
        passages[m.strand_i].append((m.param_i, idx, over_slot if first_over else 0))
        passages[m.strand_j].append((m.param_j, idx, 0 if first_over else over_slot))

    components = []
    for i, strand in enumerate(strands):
        visits = tuple(
            Visit(crossing, slot, param)
            for param, crossing, slot in sorted(passages[i])
        )
        path = tuple(map(tuple, strand.points.tolist()))
        components.append(Component(label=strand.label, visits=visits, path=path))
    diagram = LinkDiagram(components=tuple(components), crossings=tuple(crossings))
    validate_diagram(diagram)
    return diagram


# ---------------------------------------------------------------------------
# Builtin fixture diagrams
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("unknot", "twist-unknot", "trefoil", "hopf", "unlink2", "unlink3")

# The CLI parser's choices and default for ``geometry.realize`` and
# ``geometry.scene``; they live here so that parsing a command imports no numpy.
REALIZE_KINDS = ("torus-villarceau", "borromean-ellipses")
SCENE_KINDS = ("tangent-circles", "great-circles", "horn-torus", "tangent-spheres")
DEFAULT_SEGMENTS = 256


#: Crossing-free builtins as ``(label, center, radius)`` round circles.
_FREE_CIRCLES = {
    "unknot": (("K", (0.0, 0.0), 1.0),),
    "unlink2": (("A", (-1.0, 0.0), 0.8), ("B", (1.0, 0.0), 0.8)),
    "unlink3": (("A", (-2.0, 0.0), 0.8), ("B", (0.0, 0.0), 0.8), ("C", (2.0, 0.0), 0.8)),
}

#: Sampled one-strand builtins as ``samples, t -> (x, y, depth)``; the strand
#: ``K`` takes its vertices at ``t = 2 pi k / samples``.
_STRANDS = {
    # Single-kink unknot drawn as an inner-loop limacon.  Depth sin(t) puts the
    # earlier passage through the crossing (t = 2pi/3, before 4pi/3) over; the
    # resulting writhe is +1.
    "twist-unknot": (
        256,
        lambda t: (
            (0.5 + math.cos(t)) * math.cos(t), (0.5 + math.cos(t)) * math.sin(t), math.sin(t)
        ),
    ),
    # Alternating 3-crossing trefoil from the standard parametric space curve.
    "trefoil": (
        240,
        lambda t: (
            math.sin(t) + 2.0 * math.sin(2.0 * t),
            math.cos(t) - 2.0 * math.cos(2.0 * t),
            -math.sin(3.0 * t),
        ),
    ),
}


def _hopf() -> LinkDiagram:
    # Circle A is over at the upper crossing, B at the lower one.
    circles = [("A", (-0.5, 0.0), 0.8), ("B", (0.5, 0.0), 0.8)]
    meetings = [
        ("A", "B", p, None) if p[1] > 0 else ("B", "A", p, None)
        for p in _circle_intersections((-0.5, 0.0), (0.5, 0.0), 0.8)
    ]
    return _circle_diagram(circles, meetings)


def builtin_diagram(name: str) -> LinkDiagram:
    """A fixed fixture diagram by name (see ``BUILTIN_NAMES``)."""
    if name in _FREE_CIRCLES:
        return _circle_diagram(_FREE_CIRCLES[name], [])
    if name in _STRANDS:
        from .polyline import PlanarStrand

        samples, curve = _STRANDS[name]
        x, y, depth = zip(*(curve(2.0 * math.pi * k / samples) for k in range(samples)))
        return diagram_from_strands([PlanarStrand("K", list(zip(x, y)), depth)])
    if name == "hopf":
        return _hopf()
    raise InputError(
        f"unknown builtin {name!r}; valid names: " + ", ".join(BUILTIN_NAMES)
    )


# ---------------------------------------------------------------------------
# Diagram surgery
# ---------------------------------------------------------------------------


def remove_component(d: LinkDiagram, label: str) -> LinkDiagram:
    """Delete a component and every crossing it participates in.

    Strands that pass through a deleted crossing are re-joined simply by
    dropping the visit: the remaining visits of each component still form
    a closed strand.
    """
    target = d.component(label)  # raises InputError for unknown labels
    doomed = {v.crossing for v in target.visits}
    keep_old = [i for i in range(len(d.crossings)) if i not in doomed]
    renumber = {old: new for new, old in enumerate(keep_old)}
    crossings = tuple(d.crossings[i] for i in keep_old)
    components = []
    for comp in d.components:
        if comp.label == target.label:
            continue
        visits = tuple(
            Visit(renumber[v.crossing], v.entry_slot, v.path_param)
            for v in comp.visits
            if v.crossing not in doomed
        )
        components.append(Component(comp.label, visits, comp.path))
    return LinkDiagram(components=tuple(components), crossings=crossings)


def flip_crossings(d: LinkDiagram, mask: int) -> LinkDiagram:
    """Swap over and under at the crossings of ``mask``, read like a word.

    Crossing 0 is the most significant of ``d.crossing_count`` bits.  Slot
    labels at each flipped crossing rotate so the new under-strand enters
    at slot 0 again; the planar cyclic order is unchanged.  A mask that is
    not an int in 0..2^c - 1 raises :class:`InputError`.
    """
    c = d.crossing_count
    if type(mask) is not int or not 0 <= mask < 1 << c:
        raise InputError(f"flip mask must be an int in 0..{(1 << c) - 1}, got {mask!r}")
    shifts = [x.over_entry_slot * (mask >> (c - 1 - k) & 1) for k, x in enumerate(d.crossings)]
    crossings = tuple(
        Crossing((x.over_entry_slot - 2 * shift) % 4, x.position, x.site_index)
        for x, shift in zip(d.crossings, shifts)
    )
    components = []
    for comp in d.components:
        visits = tuple(
            Visit(v.crossing, (v.entry_slot - shifts[v.crossing]) % 4, v.path_param)
            for v in comp.visits
        )
        components.append(Component(comp.label, visits, comp.path))
    return LinkDiagram(components=tuple(components), crossings=crossings)


def flip_all_crossings(d: LinkDiagram) -> LinkDiagram:
    """Swap over and under at every crossing (the mirror depiction)."""
    return flip_crossings(d, (1 << d.crossing_count) - 1)


# ---------------------------------------------------------------------------
# Versioned structured-text export
# ---------------------------------------------------------------------------


def diagram_to_text(d: LinkDiagram) -> str:
    """Serialize component cycles and the crossing table (schema ``trilink-diagram v1``)."""
    lines = [EXPORT_SCHEMA]
    lines.append(f"components {len(d.components)}")
    for comp in d.components:
        cycle = " ".join(f"{v.crossing}.{v.entry_slot}" for v in comp.visits)
        lines.append(f"component {comp.label} : {cycle}".rstrip())
    lines.append(f"crossings {len(d.crossings)}")
    for idx, c in enumerate(d.crossings):
        entry = f"crossing {idx} : over-entry {c.over_entry_slot}"
        if c.site_index is not None:
            entry += f" site {c.site_index}"
        if c.position is not None:
            entry += f" pos {c.position[0]:.12g} {c.position[1]:.12g}"
        lines.append(entry)
    return "\n".join(lines) + "\n"


#: Each line of a record after the header: its documented form, and a
#: pattern of exactly that form (numbers of at most 9 digits).
_RECORD_LINES = {
    "components": ("components N", re.compile(r"components (\d{1,9})")),
    "crossings": ("crossings N", re.compile(r"crossings (\d{1,9})")),
    "component": (
        "component LABEL : c.s ...",
        re.compile(r"component (\S+) :((?: \d{1,9}\.\d{1,9})*)"),
    ),
    "crossing": (
        "crossing K : over-entry S [site N] [pos X Y], S 1 or 3",
        re.compile(
            r"crossing (\d{1,9}) : over-entry ([13])"
            r"(?: site (\d{1,9}))?(?: pos (\S+) (\S+))?"
        ),
    ),
}


def _coordinate(token: str) -> float:
    """A ``pos`` coordinate, kept at the 12 significant digits a record is written with."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"coordinate {token} is not finite")
    return float(f"{value:.12g}")


def diagram_from_text(text: str) -> LinkDiagram:
    """Parse the output of :func:`diagram_to_text` (combinatorics only, no paths).

    Every line after the header must have one of the forms of
    ``_RECORD_LINES``, fields in that order; anything else raises
    :class:`InputError`.
    """
    lines = [" ".join(ln.split()) for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != EXPORT_SCHEMA:
        raise InputError(f"expected header {EXPORT_SCHEMA!r}")
    components: list[Component] = []
    crossings: list[Crossing] = []
    counts: dict[str, int] = {}
    for line in lines[1:]:
        head = line.partition(" ")[0]
        if head not in _RECORD_LINES:
            raise InputError(f"unrecognized record {line!r}")
        form, pattern = _RECORD_LINES[head]
        match = pattern.fullmatch(line)
        try:
            if match is None:
                raise ValueError(f"expected {form!r}")
            if head == "component":
                label, cycle = match.groups()
                visits = (Visit(*map(int, token.split("."))) for token in cycle.split())
                components.append(Component(label, tuple(visits)))
            elif head == "crossing":
                number, over_entry, site, x, y = match.groups()
                if int(number) != len(crossings):
                    raise ValueError(f"expected crossing {len(crossings)}")
                position = None if x is None else (_coordinate(x), _coordinate(y))
                site_index = None if site is None else int(site)
                crossings.append(Crossing(int(over_entry), position, site_index))
            elif head in counts:
                raise ValueError(f"a second {head} line")
            else:
                counts[head] = int(match.group(1))
        except ValueError as exc:
            raise InputError(f"malformed record {line!r}: {exc}") from exc
    found = {"components": len(components), "crossings": len(crossings)}
    for head, count in counts.items():
        if count != found[head]:
            raise InputError(f"record says {head} {count}, but {found[head]} are listed")
    d = LinkDiagram(components=tuple(components), crossings=tuple(crossings))
    validate_diagram(d)
    return d
