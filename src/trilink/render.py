"""Publication-style SVG output for diagrams, scenes and 3D realizations.

Diagrams are drawn one path group per component; wherever a component
passes under a crossing its stroke is cut by a gap centered on the
crossing.  ``data-gaps`` counts these cuts; gaps that overlap merge as
their union, so a path can have fewer breaks than cuts.  A component with
a cut whose perimeter is not longer than the gap raises InputError, as
does a drawing with no points, of zero extent, of an extent that does
not scale to the canvas in floating point, or with a non-finite
coordinate.  What a drawing takes from its component paths alone
(bounds, scale, arclengths, each vertex's pixel text) is computed on the
first render of those paths and kept for the last set of paths drawn;
all census depictions share the shadow's paths, so each of their renders
formats only the points at its gap boundaries.  Scenes and realizations are
projected orthographically and painted back-to-front per segment.  Output is
deterministic: fixed float formatting, fixed element order, and fixed
measurements (gap, stroke, canvas, camera) below.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

from .diagram import LinkDiagram
from .errors import InputError

if TYPE_CHECKING:
    from .geometry import Realization3D, Scene3D

    #: A closed polyline, its segment lengths, the arclength at each vertex
    #: then the perimeter, and a mark per vertex.
    _Loop = tuple[Sequence[tuple[float, float]], list[float], list[float], Sequence]
    #: What a diagram's SVG takes from its component paths alone: the paths
    #: (held, so no id in the cache key is reused while it is kept), the
    #: stroke width as written, a loop per path with each vertex's pixel
    #: text as its marks, and the pixel text of any diagram point.
    _Drawing = tuple[tuple, str, tuple[_Loop, ...], Callable[[tuple[float, float]], str]]

#: Default strand colors (first ring green, second blue, third red).
DEFAULT_COLORS = {"A": "#2e8b57", "B": "#27519f", "C": "#c23b22"}
_FALLBACK_COLOR = "#444444"

#: Diagram measurements in diagram units; the gap exceeds the stroke so
#: under-strand breaks stay visible.
_GAP_WIDTH = 0.22
_STROKE_WIDTH = 0.055
#: Side of the square diagram canvas, in pixels.
_CANVAS_PX = 480

#: Viewing direction (toward the viewer) and canvas side of 3D renders.
_CAMERA = (0.55, -1.0, 0.6)
_SCENE_PX = 420

_Mark = TypeVar("_Mark")


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _point_text(p: tuple[float, float]) -> str:
    # Each number has 4 decimals and a minus sign only in front, so
    # "-0.0000" occurs only as a whole number: _fmt's rule.
    return ("%.4f %.4f" % p).replace("-0.0000", "0.0000")


def _path_text(marks: Sequence[str], close: bool) -> str:
    return "M " + " L ".join(marks) + (" Z" if close else "")


def _loop(points: Sequence[tuple[float, float]], marks: Sequence) -> _Loop:
    seg_len = [
        math.sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0))
        for (x0, y0), (x1, y1) in zip(points, itertools.chain(points[1:], points[:1]))
    ]
    return points, seg_len, list(itertools.accumulate(seg_len, initial=0.0)), marks


def _cut_closed_path(
    loop: _Loop,
    cut_params: Sequence[float],
    gap: float,
    mark: Callable[[tuple[float, float]], _Mark],
) -> list[list[_Mark]]:
    """Split a closed polyline into sub-arcs, removing a window at each cut.

    ``cut_params`` are arclength positions along the polyline; each cut
    removes the interval of length ``gap`` centered there.  Returns the
    kept arcs as mark lists: each kept vertex's mark from ``loop``, plus
    ``mark(p)`` for the point ``p`` interpolated at each window boundary.
    """
    points, seg_len, cumulative, marks = loop
    n = len(points)
    total = cumulative[-1]
    if total <= gap:
        raise InputError(f"perimeter {total:.4g} is not longer than the gap {gap}")

    def at(s: float) -> _Mark:
        s = s % total
        k = bisect.bisect_right(cumulative, s) - 1
        k = min(max(k, 0), n - 1)
        t = (s - cumulative[k]) / seg_len[k] if seg_len[k] > 0 else 0.0
        (x, y), (x1, y1) = points[k], points[(k + 1) % n]
        return mark((float(x + t * (x1 - x)), float(y + t * (y1 - y))))

    # Window boundaries as (arclength, +1 at a start, -1 at an end), in
    # arclength order (stable, so one arclength keeps the cut order); each
    # comes before a vertex at the same arclength.  ``depth`` counts the
    # windows covering the sweep, starting with those that wrap through 0.
    windows: list[tuple[float, int]] = []
    depth = 0
    for c in cut_params:
        s0 = (c - gap / 2.0) % total
        s1 = (s0 + gap) % total
        depth += s0 > s1
        windows += [(s0, 1), (s1, -1)]
    windows.sort(key=lambda e: e[0])

    # Walk the vertices once; the stroke is drawn where no window covers it,
    # so overlapping windows cut their union.
    arcs: list[list[_Mark]] = []
    current: list[_Mark] = []
    k = 0
    for s, step in windows:
        end = bisect.bisect_left(cumulative, s, k, n)
        if not depth:
            current.extend(marks[k:end])
        k = end
        if not depth or depth + step == 0:  # the first window opens, or the last ends
            current.append(at(s))
            if step > 0:
                arcs.append(current)
                current = []
        depth += step
    if not depth:  # the sweep ends as it began, drawing at arclength 0
        current.extend(marks[k:])
        if arcs:
            arcs[0] = current + arcs[0]  # wraps through param 0
        else:
            arcs.append(current + [marks[0]])
    return arcs


#: The drawing of the last set of component paths rendered, keyed by the
#: paths' ids.  All census depictions share the shadow's paths.
_drawings: dict[tuple[int, ...], _Drawing] = {}


def _drawing(d: LinkDiagram) -> _Drawing:
    """The drawing of ``d``'s component paths; built when they change.

    Paths are compared by identity, not by value: a component's path is a
    tuple of points and never changes once built.
    """
    key = tuple(id(comp.path) for comp in d.components)
    drawing = _drawings.get(key)
    if drawing is None:
        drawing = _build_drawing(d)
        _drawings.clear()
        _drawings[key] = drawing
    return drawing


def _build_drawing(d: LinkDiagram) -> _Drawing:
    for comp in d.components:
        if comp.path is None:
            raise InputError(
                f"component {comp.label} lacks planar position data; cannot render"
            )
        if not all(math.isfinite(v) for point in comp.path for v in point):
            raise InputError(f"component {comp.label} has a non-finite coordinate; cannot render")
    paths = tuple(comp.path for comp in d.components)
    points = list(itertools.chain.from_iterable(paths))
    if not points:
        raise InputError("the diagram has no path points to draw; cannot render")
    xs, ys = zip(*points)
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    span = max(x1 - x0, y1 - y0)
    if span == 0.0:
        raise InputError(
            f"every path point is at ({x0:.4g}, {y0:.4g}): zero extent; cannot render"
        )
    margin = 0.08 * span
    x0, y0, x1, y1 = x0 - margin, y0 - margin, x1 + margin, y1 + margin
    scale = min(_CANVAS_PX / (x1 - x0), _CANVAS_PX / (y1 - y0))
    if not 0.0 < scale < math.inf:
        raise InputError(f"drawing extent {span:.4g} is out of range; cannot render")

    def mark(p: tuple[float, float]) -> str:
        return _point_text(((p[0] - x0) * scale, _CANVAS_PX - (p[1] - y0) * scale))

    loops = tuple(_loop(path, list(map(mark, path))) for path in paths)
    return paths, _fmt(_STROKE_WIDTH * scale), loops, mark


def svg_diagram(d: LinkDiagram, colors: Mapping[str, str] = DEFAULT_COLORS) -> str:
    """Render a diagram with under-strand gaps; deterministic SVG 1.1 text.

    ``colors`` maps component labels to stroke colors; other labels are gray.
    """
    _, stroke, loops, mark = _drawing(d)
    groups: list[str] = []
    for comp, loop in zip(d.components, loops):
        cuts = [
            v.path_param
            for v in comp.visits
            if v.role == "under" and v.path_param is not None
        ]
        under_count = sum(1 for v in comp.visits if v.role == "under")
        if len(cuts) != under_count:
            raise InputError(
                f"component {comp.label} lacks path parameters for its crossings"
            )
        color = colors.get(comp.label, _FALLBACK_COLOR)
        if cuts:
            try:
                arcs = _cut_closed_path(loop, cuts, _GAP_WIDTH, mark)
            except InputError as exc:
                raise InputError(f"component {comp.label}: {exc}; cannot render") from None
            body = " ".join(_path_text(arc, close=False) for arc in arcs)
        else:
            body = _path_text(loop[3], close=True)  # every vertex's mark
        groups.append(
            f'  <g id="component-{comp.label}" data-gaps="{len(cuts)}">\n'
            f'    <path d="{body}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke}" stroke-linecap="round"/>\n'
            f"  </g>"
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_CANVAS_PX}" height="{_CANVAS_PX}" viewBox="0 0 {_CANVAS_PX} {_CANVAS_PX}">',
        *groups,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Orthographic 3D rendering
# ---------------------------------------------------------------------------


def svg_scene(subject: Scene3D | Realization3D) -> str:
    """Orthographic projection of a scene or realization as SVG 1.1.

    A realization is drawn as the scene of its closed curves, tagged
    ``curve-<label>`` and colored by ``DEFAULT_COLORS`` (other tags are
    ``#333333``).  Curves are split into segments and painted back-to-front;
    spheres become silhouette circles ordered by center depth; markers
    become dots.  The view is along the fixed camera direction.
    """
    import numpy as np

    from .geometry import Realization3D, Scene3D, _projection_frame
    if isinstance(subject, Realization3D):
        subject = Scene3D(
            subject.kind, tuple((f"curve-{c.label}", c.points, True) for c in subject.curves)
        )
    elif not isinstance(subject, Scene3D):
        raise InputError(f"cannot render object of type {type(subject).__name__}")
    u, v, d = _projection_frame(np.asarray(_CAMERA))

    # Per segment: its ends in the view plane (x1 y1 x2 y2), its mid-depth
    # and the index of its curve.
    ends: list[np.ndarray] = [np.empty((0, 4))]
    mids: list[np.ndarray] = [np.empty(0)]
    owners: list[np.ndarray] = [np.empty(0, dtype=int)]
    all_xy: list[np.ndarray] = []
    for i, (tag, pts, closed) in enumerate(subject.curves):
        xy = np.stack([pts @ u, pts @ v], axis=1)
        depth = pts @ d
        all_xy.append(xy)
        count = len(pts) if closed else len(pts) - 1
        k2 = (np.arange(count) + 1) % len(pts)
        ends.append(np.hstack([xy[:count], xy[k2]]))
        mids.append((depth[:count] + depth[k2]) / 2.0)
        owners.append(np.full(count, i))
    sphere_records = []
    for center, radius in subject.spheres:
        c = np.asarray(center)
        sphere_records.append((float(c @ d), (float(c @ u), float(c @ v)), radius))
        ring = np.linspace(0.0, 2.0 * math.pi, 8)
        all_xy.append(
            np.stack([c @ u + radius * np.cos(ring), c @ v + radius * np.sin(ring)], axis=1)
        )
    marker_records = []
    for tag, position in subject.markers:
        p = np.asarray(position)
        marker_records.append((tag, (float(p @ u), float(p @ v))))
        all_xy.append(np.array([[float(p @ u), float(p @ v)]]))

    stacked = np.vstack(all_xy)
    x0, y0 = stacked.min(axis=0)
    x1, y1 = stacked.max(axis=0)
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.08 * span
    x0, y0, span = x0 - margin, y0 - margin, span + 2 * margin
    scale = _SCENE_PX / span

    def to_px(p: tuple[float, float]) -> tuple[float, float]:
        return ((p[0] - x0) * scale, _SCENE_PX - (p[1] - y0) * scale)

    segment_px = (np.vstack(ends) - [x0, y0, x0, y0]) * scale
    segment_px[:, 1::2] = _SCENE_PX - segment_px[:, 1::2]
    # Back to front; stable, so equal depths keep the curves' order.
    order = np.argsort(np.concatenate(mids), kind="stable")
    styles = [
        (tag, DEFAULT_COLORS.get(tag.removeprefix("curve-"), "#333333"))
        for tag, _, _ in subject.curves
    ]
    line = (
        '  <line class="%s" x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" stroke="%s" '
        'stroke-width="2.4" stroke-linecap="round"/>'
    )
    body: list[str] = []
    for depth, center_xy, radius in sorted(sphere_records, key=lambda rec: rec[0]):
        cx, cy = to_px(center_xy)
        body.append(
            f'  <circle class="sphere" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(radius * scale)}" fill="#f3f3f3" fill-opacity="0.85" '
            f'stroke="#666666" stroke-width="1.5"/>'
        )
    for i, row in zip(np.concatenate(owners)[order].tolist(), segment_px[order].tolist()):
        tag, color = styles[i]
        body.append(line % (tag, *row, color))
    for tag, pos in marker_records:
        cx, cy = to_px(pos)
        body.append(
            f'  <circle class="{tag}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" '
            f'fill="#111111"/>'
        )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SCENE_PX}" height="{_SCENE_PX}" viewBox="0 0 {_SCENE_PX} {_SCENE_PX}">',
        *body,
        "</svg>",
    ]
    # _fmt's rule for the segment ends, which are formatted with %.4f.
    return ("\n".join(parts) + "\n").replace('="-0.0000"', '="0.0000"')
