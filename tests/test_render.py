"""SVG output: structure, style, and byte equality with reference renderers.

The references are the straightforward versions of the path cutter, the
path writer and the 3D renderer: every vertex re-located on the polyline
and re-interpolated, every coordinate formatted on its own, and every 3D
segment built and sorted as a Python tuple.  The module's renderers must
give the same bytes.
"""

import bisect
import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trilink import geometry as G
from trilink import render as R
from trilink.diagram import (
    BUILTIN_NAMES,
    SITES,
    Component,
    LinkDiagram,
    all_assignments,
    assignment_from_text,
    builtin_diagram,
    remove_component,
    to_diagram,
)
from trilink.errors import DegeneracyError, InputError
from trilink.render import DEFAULT_COLORS, svg_diagram, svg_scene

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(text: str) -> ET.Element:
    return ET.fromstring(text)


def _strokes(text: str) -> dict[str, str]:
    return {
        g.get("id").removeprefix("component-"): g.find(f"{SVG_NS}path").get("stroke")
        for g in _parse(text).findall(f"{SVG_NS}g")
    }


class TestRenderStyle:
    def test_default_palette(self):
        d = to_diagram(assignment_from_text("111100"))
        assert _strokes(svg_diagram(d)) == DEFAULT_COLORS
        assert _strokes(svg_diagram(builtin_diagram("unknot"))) == {"K": "#444444"}


class TestSvgDiagram:
    def test_census_structure(self):
        d = to_diagram(assignment_from_text("111100"))
        root = _parse(svg_diagram(d))
        assert root.get("version") == "1.1"
        groups = root.findall(f"{SVG_NS}g")
        assert len(groups) == 3
        assert sum(int(g.get("data-gaps")) for g in groups) == 6

    def test_gap_count_equals_crossing_count(self):
        for word in ("000000", "010101", "000110", "111111"):
            d = to_diagram(assignment_from_text(word))
            root = _parse(svg_diagram(d))
            gaps = sum(
                int(g.get("data-gaps")) for g in root.findall(f"{SVG_NS}g")
            )
            assert gaps == d.crossing_count

    def test_gap_breaks_appear_as_subpaths(self):
        d = to_diagram(assignment_from_text("111100"))
        root = _parse(svg_diagram(d))
        for group in root.findall(f"{SVG_NS}g"):
            gaps = int(group.get("data-gaps"))
            path = group.find(f"{SVG_NS}path").get("d")
            if gaps == 0:
                assert path.count("M") == 1 and path.rstrip().endswith("Z")
            else:
                assert path.count("M") == gaps

    def test_deterministic(self):
        d = to_diagram(assignment_from_text("010101"))
        assert svg_diagram(d) == svg_diagram(d)

    def test_borromean_weave_structure(self):
        # In the woven depiction every circle passes over one neighbor at
        # both shared crossings and under the other neighbor at both.
        d = to_diagram(assignment_from_text("000000"))
        over_partners = {label: [] for label in "ABC"}
        for comp in d.components:
            for visit in comp.visits:
                site = d.crossings[visit.crossing].site_index
                pair = SITES[site].pair
                partner = pair[0] if pair[1] == comp.label else pair[1]
                if visit.role == "over":
                    over_partners[comp.label].append(partner)
        for label, partners in over_partners.items():
            assert len(partners) == 2
            assert partners[0] == partners[1]  # over the same neighbor twice
        root = _parse(svg_diagram(d))
        gaps = [int(g.get("data-gaps")) for g in root.findall(f"{SVG_NS}g")]
        assert gaps == [2, 2, 2]

    def test_color_override(self):
        d = to_diagram(assignment_from_text("111100"))
        colors = {"A": "#123456", "B": "#654321", "C": "#abcdef"}
        assert _strokes(svg_diagram(d, colors)) == colors
        assert _strokes(svg_diagram(builtin_diagram("unknot"), colors)) == {"K": "#444444"}

    def test_missing_positions_rejected(self):
        bare = LinkDiagram(
            components=(Component("K", tuple()),), crossings=tuple()
        )
        with pytest.raises(InputError, match="position"):
            svg_diagram(bare)

    def test_builtin_with_self_crossing_renders(self):
        root = _parse(svg_diagram(builtin_diagram("trefoil")))
        groups = root.findall(f"{SVG_NS}g")
        assert len(groups) == 1
        assert int(groups[0].get("data-gaps")) == 3


class TestSvgScene:
    def test_tangent_circles_scene(self):
        root = _parse(svg_scene(G.scene("tangent-circles")))
        assert root.get("version") == "1.1"
        markers = [
            el for el in root.iter(f"{SVG_NS}circle")
            if el.get("class") == "tangency"
        ]
        assert len(markers) == 3
        circle_segments = {
            el.get("class") for el in root.iter(f"{SVG_NS}line")
        }
        assert "circle" in circle_segments

    def test_realization_renders_three_curves(self):
        v = G.realize("torus-villarceau", segments=96)
        root = _parse(svg_scene(v))
        classes = {el.get("class") for el in root.iter(f"{SVG_NS}line")}
        assert classes == {"curve-A", "curve-B", "curve-C"}

    def test_horn_torus_scene(self):
        root = _parse(svg_scene(G.scene("horn-torus")))
        classes = {el.get("class") for el in root.iter(f"{SVG_NS}line")}
        assert "patch" in classes and "sweep" in classes
        cusps = [
            el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "cusp"
        ]
        assert len(cusps) == 1

    def test_tangent_spheres_scene(self):
        root = _parse(svg_scene(G.scene("tangent-spheres")))
        spheres = [
            el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "sphere"
        ]
        assert len(spheres) == 3

    def test_deterministic(self):
        scene = G.scene("great-circles")
        assert svg_scene(scene) == svg_scene(scene)

    def test_other_subjects_rejected(self):
        with pytest.raises(InputError, match="cannot render object of type object"):
            svg_scene(object())


def reference_cut_closed_path(points, cut_params, gap):
    """Sweep of sorted window and vertex events; every point re-interpolated."""
    n = len(points)
    seg_vec = [
        (x1 - x0, y1 - y0)
        for (x0, y0), (x1, y1) in zip(points, itertools.chain(points[1:], points[:1]))
    ]
    seg_len = [math.sqrt(dx * dx + dy * dy) for dx, dy in seg_vec]
    cumulative = list(itertools.accumulate(seg_len, initial=0.0))
    total = cumulative[-1]

    def at(s):
        s = s % total
        k = bisect.bisect_right(cumulative, s) - 1
        k = min(max(k, 0), n - 1)
        t = (s - cumulative[k]) / seg_len[k] if seg_len[k] > 0 else 0.0
        (x, y), (dx, dy) = points[k], seg_vec[k]
        return (float(x + t * dx), float(y + t * dy))

    # A window start counts +1 and an end -1; the stroke is drawn where the
    # count is 0, starting from the windows that wrap through arclength 0.
    events = []
    depth = 0
    for c in cut_params:
        s0 = (c - gap / 2.0) % total
        s1 = (s0 + gap) % total
        if s0 > s1:
            depth += 1
        events.append((s0, 0, "start"))
        events.append((s1, 0, "end"))
    for k in range(n):
        events.append((cumulative[k], 1, "vertex"))
    events.sort(key=lambda e: (e[0], e[1]))

    arcs = []
    inside_at_zero = depth > 0
    current = []
    for s, _, kind in events:
        if kind == "vertex":
            if depth == 0:
                current.append(at(s))
        elif kind == "start":
            if depth == 0:
                current.append(at(s))
                arcs.append(current)
                current = []
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                current = [at(s)]
    if depth == 0 and current:
        if arcs and not inside_at_zero:
            arcs[0] = current + arcs[0]
        else:
            current.append(at(0.0))
            arcs.append(current)
    return arcs


def reference_path_from_points(points, close):
    cmds = [f"M {R._fmt(points[0][0])} {R._fmt(points[0][1])}"]
    for x, y in points[1:]:
        cmds.append(f"L {R._fmt(x)} {R._fmt(y)}")
    if close:
        cmds.append("Z")
    return " ".join(cmds)


def reference_svg_diagram(d, colors=DEFAULT_COLORS):
    xs, ys = zip(*itertools.chain.from_iterable(comp.path for comp in d.components))
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    margin = 0.08 * max(x1 - x0, y1 - y0)
    x0, y0, x1, y1 = x0 - margin, y0 - margin, x1 + margin, y1 + margin
    scale = min(R._CANVAS_PX / (x1 - x0), R._CANVAS_PX / (y1 - y0))

    def to_px(p):
        return ((p[0] - x0) * scale, R._CANVAS_PX - (p[1] - y0) * scale)

    groups = []
    for comp in d.components:
        cuts = [v.path_param for v in comp.visits if v.role == "under"]
        color = colors.get(comp.label, R._FALLBACK_COLOR)
        if cuts:
            arcs = reference_cut_closed_path(comp.path, cuts, R._GAP_WIDTH)
            body = " ".join(
                reference_path_from_points([to_px(p) for p in arc], close=False)
                for arc in arcs
            )
        else:
            body = reference_path_from_points([to_px(p) for p in comp.path], close=True)
        groups.append(
            f'  <g id="component-{comp.label}" data-gaps="{len(cuts)}">\n'
            f'    <path d="{body}" fill="none" stroke="{color}" '
            f'stroke-width="{R._fmt(R._STROKE_WIDTH * scale)}" stroke-linecap="round"/>\n'
            f"  </g>"
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{R._CANVAS_PX}" height="{R._CANVAS_PX}" '
        f'viewBox="0 0 {R._CANVAS_PX} {R._CANVAS_PX}">',
        *groups,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def reference_svg_scene(subject):
    """Every 3D segment a Python tuple, sorted by mid-depth, formatted field by field."""
    u, v, d = G._projection_frame(np.asarray(R._CAMERA))
    if isinstance(subject, G.Realization3D):
        curves = [(f"curve-{curve.label}", curve.points, True) for curve in subject.curves]
        spheres, markers = [], []
        colors = DEFAULT_COLORS
    else:
        curves, spheres, markers = subject.curves, subject.spheres, subject.markers
        colors = {}

    segments, all_xy = [], []
    for tag, pts, closed in curves:
        xy = np.stack([pts @ u, pts @ v], axis=1)
        depth = pts @ d
        all_xy.append(xy)
        count = len(pts) if closed else len(pts) - 1
        for k in range(count):
            k2 = (k + 1) % len(pts)
            segments.append(
                (
                    float(depth[k] + depth[k2]) / 2.0,
                    tag,
                    (float(xy[k][0]), float(xy[k][1])),
                    (float(xy[k2][0]), float(xy[k2][1])),
                )
            )
    sphere_records = []
    for center, radius in spheres:
        c = np.asarray(center)
        sphere_records.append((float(c @ d), (float(c @ u), float(c @ v)), radius))
        ring = np.linspace(0.0, 2.0 * math.pi, 8)
        all_xy.append(
            np.stack(
                [c @ u + radius * np.cos(ring), c @ v + radius * np.sin(ring)],
                axis=1,
            )
        )
    marker_records = []
    for tag, position in markers:
        p = np.asarray(position)
        marker_records.append((tag, (float(p @ u), float(p @ v))))
        all_xy.append(np.array([[float(p @ u), float(p @ v)]]))

    stacked = np.vstack(all_xy)
    x0, y0 = stacked.min(axis=0)
    x1, y1 = stacked.max(axis=0)
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.08 * span
    x0, y0, span = x0 - margin, y0 - margin, span + 2 * margin
    scale = R._SCENE_PX / span

    def to_px(p):
        return ((p[0] - x0) * scale, R._SCENE_PX - (p[1] - y0) * scale)

    fmt = R._fmt
    body = []
    for depth, center_xy, radius in sorted(sphere_records, key=lambda rec: rec[0]):
        cx, cy = to_px(center_xy)
        body.append(
            f'  <circle class="sphere" cx="{fmt(cx)}" cy="{fmt(cy)}" '
            f'r="{fmt(radius * scale)}" fill="#f3f3f3" fill-opacity="0.85" '
            f'stroke="#666666" stroke-width="1.5"/>'
        )
    for depth, tag, p1, p2 in sorted(segments, key=lambda rec: rec[0]):
        a = to_px(p1)
        b = to_px(p2)
        color = colors.get(tag.removeprefix("curve-"), "#333333")
        body.append(
            f'  <line class="{tag}" x1="{fmt(a[0])}" y1="{fmt(a[1])}" '
            f'x2="{fmt(b[0])}" y2="{fmt(b[1])}" stroke="{color}" '
            f'stroke-width="2.4" stroke-linecap="round"/>'
        )
    for tag, pos in marker_records:
        cx, cy = to_px(pos)
        body.append(
            f'  <circle class="{tag}" cx="{fmt(cx)}" cy="{fmt(cy)}" r="4" '
            f'fill="#111111"/>'
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{R._SCENE_PX}" height="{R._SCENE_PX}" '
        f'viewBox="0 0 {R._SCENE_PX} {R._SCENE_PX}">',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


_OVERRIDE_COLORS = {"A": "#123456", "B": "navy", "C": "#abc"}


def _realization_diagrams():
    """Projections of both realization kinds at several sizes, along seeded directions."""
    out = []
    for kind in G.REALIZE_KINDS:
        for segments in (64, 256, 1000):
            curves = G.realize(kind, segments=segments)
            for seed in range(3):
                direction = np.random.default_rng(seed).normal(size=3)
                try:
                    out.append(G.diagram_from_curves(curves, direction=direction))
                except DegeneracyError:
                    continue
    return out


class TestSameBytesAsReference:
    @pytest.mark.parametrize("colors", [DEFAULT_COLORS, _OVERRIDE_COLORS])
    def test_every_word(self, colors):
        for asg in all_assignments():
            d = to_diagram(asg)
            assert svg_diagram(d, colors) == reference_svg_diagram(d, colors), asg.word

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin(self, name):
        d = builtin_diagram(name)
        assert svg_diagram(d) == reference_svg_diagram(d)

    def test_realization_diagrams(self):
        diagrams = _realization_diagrams()
        assert len(diagrams) >= 12
        for d in diagrams:
            assert svg_diagram(d) == reference_svg_diagram(d)

    @pytest.mark.parametrize("kind", G.SCENE_KINDS)
    def test_scene(self, kind):
        subject = G.scene(kind)
        assert svg_scene(subject) == reference_svg_scene(subject)

    def test_path_writer_prints_no_negative_zero(self):
        points = [(-0.00001, 1.0), (-0.0, -2.5), (3.00004, -0.00004), (-10.00001, -0.0)]
        marks = [R._point_text(p) for p in points]
        for close in (False, True):
            assert R._path_text(marks, close) == reference_path_from_points(points, close)

    def test_equal_depths_keep_the_primitive_order(self):
        # Twin curves give every segment an exact tie in mid-depth with a
        # segment of another class; the tied segments keep the scene's order.
        turn = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
        circle = G._circle((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), 1.0, turn)
        arc = G._circle((0.5, 0.0, 0.0), (0.3, -0.2, 0.9), 0.7, np.linspace(0.0, 2.0, 48))
        twins = tuple(
            curve
            for tag in ("a", "b")
            for curve in ((tag, circle, True), (f"{tag}-arc", arc, False))
        )
        subject = G.Scene3D("twins", twins)
        assert svg_scene(subject) == reference_svg_scene(subject)

    @pytest.mark.parametrize("segments", [64, 777])
    @pytest.mark.parametrize(
        "kind, params",
        [("torus-villarceau", {"R": 3.5, "r": 1.25}), ("borromean-ellipses", {"a": 2.2, "b": 0.6})],
    )
    def test_realization(self, kind, params, segments):
        subject = G.realize(kind, segments=segments, **params)
        assert svg_scene(subject) == reference_svg_scene(subject)


def _arclengths(points):
    """Vertex arclengths as the path cutter sums them, then the perimeter."""
    closing = itertools.chain(points[1:], points[:1])
    lengths = [
        math.sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0))
        for (x0, y0), (x1, y1) in zip(points, closing)
    ]
    return list(itertools.accumulate(lengths, initial=0.0))


@st.composite
def cut_cases(draw):
    """A closed polyline, cuts along it, and a gap shorter than its perimeter.

    Half the polylines keep lattice points of a rectangle's boundary, with
    gaps that are binary fractions, so a cut at a vertex's arclength plus or
    minus half the gap puts a window edge exactly on that vertex.  Cuts fall
    anywhere from before 0 to past the perimeter, so windows wrap through
    arclength 0 and overlap one another.
    """
    if draw(st.booleans()):
        w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        ring = (
            [(x, 0) for x in range(w)] + [(w, y) for y in range(h)]
            + [(x, h) for x in range(w, 0, -1)] + [(0, y) for y in range(h, 0, -1)]
        )
        keep = draw(st.lists(st.booleans(), min_size=len(ring), max_size=len(ring)))
        points = [(float(x), float(y)) for (x, y), kept in zip(ring, keep) if kept]
        gaps = st.sampled_from([0.25, 0.5, 1.0, 2.5])
    else:
        coord = st.floats(-10.0, 10.0, allow_nan=False)
        points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=24))
        gaps = st.floats(0.01, 8.0)
    assume(len(points) >= 3)
    assume(all(math.dist(p, q) > 1e-3 for p, q in zip(points, points[1:] + points[:1])))
    cumulative = _arclengths(points)
    total = cumulative[-1]
    gap = draw(gaps)
    assume(gap < total)
    anywhere = st.floats(-0.25, 1.25).map(lambda f: f * total)
    on_vertex = st.tuples(st.sampled_from(cumulative[:-1]), st.sampled_from([-0.5, 0.5])).map(
        lambda pair: pair[0] + pair[1] * gap
    )
    cuts = draw(st.lists(st.one_of(anywhere, on_vertex), max_size=6))
    return points, cuts, gap


_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _cut(points, cuts, gap):
    """The module's path cutter with each point as its own mark."""
    return R._cut_closed_path(R._loop(points, points), cuts, gap, tuple)


# The VM's CPU speed switches between two levels about 1.6x apart, so this
# test runs without a per-example deadline.
@settings(deadline=None)
@given(cut_cases())
# A window through arclength 0, and two windows that overlap.
@example((_SQUARE, [0.1, 1.5, 1.7], 0.5))
# Window edges exactly on the vertices at arclengths 1 and 3, one of them
# closing and one opening.
@example((_SQUARE, [1.25, 2.75], 0.5))
# Two cuts at one arclength: their boundaries keep the cut order.
@example((_SQUARE, [2.0, 2.0, 3.75], 0.5))
def test_cut_closed_path_equals_reference(case):
    points, cuts, gap = case
    assert _cut(points, cuts, gap) == reference_cut_closed_path(points, cuts, gap)


def _kept_vertex_distances(points, cuts, gap):
    """Arclength around the loop from each kept input vertex to its nearest cut."""
    cumulative = _arclengths(points)
    total = cumulative[-1]
    where = dict(zip(points, cumulative))
    kept = [where[p] for arc in _cut(points, cuts, gap) for p in arc if p in where]
    return [min(min((s - c) % total, (c - s) % total) for c in cuts) for s in kept]


@settings(deadline=None)
@given(cut_cases())
# The first window ends inside the second, which covers the vertex at 1.
@example((_SQUARE, [0.7, 1.0], 0.5))
def test_kept_vertices_lie_outside_every_window(case):
    points, cuts, gap = case
    assume(cuts and len(set(points)) == len(points))  # each kept point names one vertex
    assert min(_kept_vertex_distances(points, cuts, gap), default=gap) >= gap / 2 - 1e-9


def test_realization_projections_keep_every_vertex_out_of_the_gaps():
    # The default borromean-ellipses projection has overlapping windows on
    # components A and C.
    defaults = [G.diagram_from_curves(G.realize(kind)) for kind in G.REALIZE_KINDS]
    for d in defaults + _realization_diagrams():
        for comp in d.components:
            cuts = [v.path_param for v in comp.visits if v.role == "under"]
            if cuts:
                assert min(_kept_vertex_distances(comp.path, cuts, R._GAP_WIDTH)) >= R._GAP_WIDTH / 2


def _repeated_points(svg):
    """Points of the paths of ``svg`` that equal the point before them in their subpath."""
    repeats = []
    for path in _parse(svg).iter(f"{SVG_NS}path"):
        for subpath in path.get("d").replace("Z", "").split("M")[1:]:
            points = [point.strip() for point in subpath.split("L")]
            repeats += [q for p, q in zip(points, points[1:]) if p == q]
    return repeats


def test_no_diagram_path_repeats_a_point():
    diagrams = [to_diagram(asg) for asg in all_assignments()]
    diagrams += [builtin_diagram(name) for name in BUILTIN_NAMES]
    diagrams += [G.diagram_from_curves(G.realize(kind)) for kind in G.REALIZE_KINDS]
    for d in diagrams + _realization_diagrams():
        assert _repeated_points(svg_diagram(d)) == []


class TestShortComponent:
    def test_component_shorter_than_gap_is_rejected(self):
        tiny = G.diagram_from_curves(G.realize("borromean-ellipses", a=0.02, b=0.01))
        with pytest.raises(InputError, match=r"component A: perimeter 0\.09\d* is not longer"):
            svg_diagram(tiny)

    def test_path_cutter_rejects_a_gap_as_long_as_the_perimeter(self):
        with pytest.raises(InputError, match="perimeter 4 is not longer than the gap 4"):
            _cut(_SQUARE, [1.0], 4.0)


def _drawn(*paths):
    return LinkDiagram(tuple(Component(label, (), path) for label, path in zip("ABC", paths)), ())


class TestBadDrawing:
    def test_no_components(self):
        with pytest.raises(InputError, match="no path points to draw"):
            svg_diagram(LinkDiagram((), ()))

    @pytest.mark.parametrize(
        "paths", [[((1.0, 2.0),)], [((1.0, 2.0),) * 3, ((1.0, 2.0),)]], ids=["one-point", "all-equal"]
    )
    def test_zero_extent(self, paths):
        with pytest.raises(InputError, match=r"every path point is at \(1, 2\): zero extent"):
            svg_diagram(_drawn(*paths))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate(self, bad):
        good = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(InputError, match="component B has a non-finite coordinate"):
            svg_diagram(_drawn(good, ((0.0, 0.0), (bad, 1.0), (1.0, 1.0))))

    @pytest.mark.parametrize("size", [1e308, 5e-324], ids=["overflow", "subnormal"])
    def test_extent_out_of_range(self, size):
        with pytest.raises(InputError, match="drawing extent .* is out of range"):
            svg_diagram(_drawn(((-size, 0.0), (size, 0.0), (0.0, size))))

    def test_a_rejected_drawing_is_not_kept(self):
        d = _drawn(((1.0, 2.0),))
        for _ in range(2):
            with pytest.raises(InputError, match="zero extent"):
                svg_diagram(d)


class TestDrawingCache:
    """Draw data is built once per set of component paths and never goes stale."""

    def test_interleaved_renders_equal_the_reference(self):
        # Consecutive subjects draw different sets of paths that share some
        # paths, components or counts: a census word and the same word less
        # one circle share two or all but one of their paths.
        builtins = [builtin_diagram(name) for name in ("hopf", "trefoil", "twist-unknot")]
        projections = _realization_diagrams()[:4]
        subjects = []
        for i, asg in enumerate(all_assignments()[::9]):
            d = to_diagram(asg)
            subjects += [d, remove_component(d, "A"), d, remove_component(d, "C")]
            subjects += [builtins[i % 3], d, projections[i % 4], builtins[(i + 1) % 3]]
        for d in subjects:
            for colors in (DEFAULT_COLORS, _OVERRIDE_COLORS):
                assert svg_diagram(d, colors) == reference_svg_diagram(d, colors)

    def test_census_words_share_one_entry(self, monkeypatch):
        builds = []

        def counted(d):
            builds.append(d)
            return build(d)

        build = R._build_drawing
        monkeypatch.setattr(R, "_build_drawing", counted)
        svg_diagram(builtin_diagram("trefoil"))
        builds.clear()
        drawings = set()
        for asg in all_assignments():
            svg_diagram(to_diagram(asg))
            drawings.add(id(R._drawing(to_diagram(asg))))
        assert len(builds) == 1 and len(drawings) == 1
        assert len(R._drawings) == 1

    def test_entry_holds_its_paths(self):
        d = remove_component(to_diagram(all_assignments()[5]), "B")
        svg_diagram(d)
        ((key, (paths, *_)),) = R._drawings.items()
        assert key == tuple(map(id, paths))
        assert all(kept is comp.path for kept, comp in zip(paths, d.components))
