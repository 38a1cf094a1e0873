"""Closed polylines as numpy records, and the pruned kernels that pair their segments.

A record builds its lengths, arclengths and box levels on first use and keeps
them, so a polyline's boxes are built once however many pairs it is part of.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegeneracyError, InputError

#: Segments per leaf box, and leaves per group box, of :func:`near_segment_pairs`.
_LEAF_SEGMENTS = 4
_GROUP_LEAVES = 16


class Polyline:
    """A closed polyline: ``points`` (n, dim), segment ``k`` from ``points[k]`` to ``ends[k]``."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self.ends = np.concatenate((points[1:], points[:1]))
        self.steps = self.ends - points
        self._boxes: dict[float, tuple[np.ndarray, ...]] = {}

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.steps, axis=1)

    @functools.cached_property
    def arclengths(self) -> np.ndarray:
        """Arclength at each vertex, from 0 at the first to the perimeter after the last."""
        return np.concatenate(([0.0], np.cumsum(self.lengths)))

    def arclength(self, segment: int, t: float) -> float:
        """Arclength of the point at fraction ``t`` along ``segment``."""
        s = self.arclengths
        return float(s[segment] + t * (s[segment + 1] - s[segment]))

    def boxes(self, widen: float) -> tuple[np.ndarray, ...]:
        """:func:`_box_levels` of the record, built once per ``widen``."""
        if widen not in self._boxes:
            self._boxes[widen] = _box_levels(self, widen)
        return self._boxes[widen]


class PlanarStrand(Polyline):
    """A labelled closed planar polyline with a depth per vertex.

    Building one raises :class:`InputError`, naming the strand, unless it
    has at least 3 finite (x, y) points and a finite depth for each.
    """

    def __init__(self, label: str, points, depths):
        name, count = f"strand {label!r}", len(points)
        if count < 3:
            raise InputError(f"{name} has {count} points; a closed strand needs at least 3")
        if len(depths) != count:
            raise InputError(f"{name} has {count} points but {len(depths)} depths")
        try:
            xy = np.array(points, dtype=float)
            depths = np.array(depths, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{name} points and depths form no numeric array: {exc}") from exc
        finite = np.isfinite(xy).all() and np.isfinite(depths).all()
        if xy.shape != (count, 2) or depths.shape != (count,) or not finite:
            raise InputError(f"{name} needs finite (x, y) points and finite depths")
        super().__init__(xy)
        self.label = label
        self.depths = depths


def _box_gaps_squared(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Squared distances between boxes, broadcast over the leading axes.

    Pass ``lo_a[:, None]``, ``hi_a[:, None]``, ``lo_b[None]``, ``hi_b[None]``
    for the table of every box of one list against every box of another.
    A point is a box whose corners coincide.
    """
    total = 0.0
    for k in range(lo_a.shape[-1]):
        gap = np.maximum(lo_a[..., k] - hi_b[..., k], lo_b[..., k] - hi_a[..., k])
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        total += gap
    return total


def _box_levels(line: Polyline, widen: float) -> tuple[np.ndarray, ...]:
    """Leaf boxes, group boxes and leaf first vertices of a closed polyline.

    Leaf ``k`` holds segments ``4k .. 4k+3`` and group ``g`` holds leaves
    ``16g .. 16g+15``.  The leaf arrays are padded to whole groups, shaped
    (groups, 16, dim): a padding leaf's box is empty (``lo`` = +inf, ``hi``
    = -inf) and its first vertex repeats the polyline's last vertex.
    """
    p, q = line.points, line.ends
    n, dim = p.shape
    starts = np.arange(0, n, _LEAF_SEGMENTS)
    lo = np.minimum.reduceat(np.minimum(p, q), starts)
    hi = np.maximum.reduceat(np.maximum(p, q), starts)
    if widen:
        longest = np.maximum.reduceat(line.lengths, starts)[:, None]
        lo, hi = lo - widen * longest, hi + widen * longest
    shape = (-(-len(starts) // _GROUP_LEAVES), _GROUP_LEAVES, dim)
    padding = np.full((shape[0] * _GROUP_LEAVES - len(starts), dim), np.inf)
    lo = np.concatenate((lo, padding)).reshape(shape)
    hi = np.concatenate((hi, -padding)).reshape(shape)
    leaf_starts = np.arange(shape[0] * _GROUP_LEAVES) * _LEAF_SEGMENTS
    firsts = p[np.minimum(leaf_starts, n - 1)].reshape(shape)
    return lo, hi, lo.min(axis=1), hi.max(axis=1), firsts


def near_segment_pairs(
    a: Polyline, b: Polyline, reach: float | None, widen: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Segment index pairs (I, J) of two closed polylines that may lie within ``reach``.

    Each polyline is cut into leaves of 4 consecutive segments and the
    leaves into groups of 16 (64 segments; the last leaf and group may be
    shorter).  A leaf's axis-aligned box holds its segments, widened on
    every side by ``widen`` times its longest segment, and a group's box
    holds its leaves' boxes.  Group boxes are compared all to all; leaf
    boxes only within the group pairs whose boxes are at most ``reach``
    apart.  The pairs of every leaf pair whose boxes are at most ``reach``
    apart are returned, in no particular order; every other segment pair
    is farther apart than ``reach``.

    ``reach=None`` stands for an upper bound on the polylines' distance:
    the smallest distance between the groups' first vertices, then the
    smallest distance between the leaves' first vertices within the group
    pairs that the first bound keeps (those include the closest groups'
    first vertices, so it is no larger).  Both are distances of real
    vertices.  Memory is O(groups² + 256 · near group pairs + returned pairs).
    """
    lo_a, hi_a, glo_a, ghi_a, firsts_a = a.boxes(widen)
    lo_b, hi_b, glo_b, ghi_b, firsts_b = b.boxes(widen)
    group_gaps = _box_gaps_squared(glo_a[:, None], ghi_a[:, None], glo_b[None], ghi_b[None])
    if reach is None:
        heads_a, heads_b = firsts_a[:, 0], firsts_b[:, 0]
        reach_squared = _box_gaps_squared(
            heads_a[:, None], heads_a[:, None], heads_b[None], heads_b[None]
        ).min()
        group_a, group_b = np.nonzero(group_gaps <= reach_squared)
        fa, fb = firsts_a[group_a][:, :, None], firsts_b[group_b][:, None]
        reach_squared = _box_gaps_squared(fa, fa, fb, fb).min()
        near = group_gaps[group_a, group_b] <= reach_squared
        group_a, group_b = group_a[near], group_b[near]
    else:
        reach_squared = reach * reach
        group_a, group_b = np.nonzero(group_gaps <= reach_squared)
    leaf_gaps = _box_gaps_squared(
        lo_a[group_a][:, :, None],
        hi_a[group_a][:, :, None],
        lo_b[group_b][:, None],
        hi_b[group_b][:, None],
    )
    pair, leaf_a, leaf_b = np.nonzero(leaf_gaps <= reach_squared)
    offsets = np.arange(_LEAF_SEGMENTS)
    I = (group_a[pair] * _GROUP_LEAVES + leaf_a)[:, None, None] * _LEAF_SEGMENTS + offsets[:, None]
    J = (group_b[pair] * _GROUP_LEAVES + leaf_b)[:, None, None] * _LEAF_SEGMENTS + offsets
    inside = (I < len(a.points)) & (J < len(b.points))
    return np.broadcast_to(I, inside.shape)[inside], np.broadcast_to(J, inside.shape)[inside]


def _certified_convex(line: Polyline, tol: float) -> bool:
    """Whether no two non-adjacent segments of a closed polyline meet, even ``tol`` past their ends.

    Certifies a strictly convex polyline with a margin: every turn
    ``cross(s_k, s_k+1)`` has one sign and exceeds
    ``2 tol L max(|s_k|, |s_k+1|)`` in magnitude, where ``L`` is the
    longest segment, and the turning angles sum to less than 3π in
    magnitude, so to ±2π: the segment directions turn around once.  The
    distance to the line of segment ``k`` then rises and falls once along
    the polyline, so among the vertices off that segment it is smallest at
    ``v_k-1`` and ``v_k+2``, where it is |turn| / |s_k| > 2 tol L.
    Extending a segment by ``tol`` of its length at each end moves it at
    most ``tol L`` closer to a line, so no extended segment reaches the
    line of a non-adjacent one, and :func:`segment_meetings` has nothing
    to find.
    """
    s, lengths = line.steps, line.lengths
    following, next_lengths = (np.concatenate((x[1:], x[:1])) for x in (s, lengths))
    with np.errstate(over="ignore", invalid="ignore"):
        turns = s[:, 0] * following[:, 1] - s[:, 1] * following[:, 0]
        margin = 2.0 * tol * lengths.max() * np.maximum(lengths, next_lengths)
        if not (np.all(turns > margin) or np.all(-turns > margin)):
            return False
        dots = np.einsum("ij,ij->i", s, following)
        return abs(float(np.arctan2(turns, dots).sum())) < 3.0 * np.pi


def segment_meetings(
    a: PlanarStrand, b: PlanarStrand, tol: float
) -> list[tuple[int, float, int, float, tuple[float, float], float, float]]:
    """All transverse interior intersections of two strands, or of a strand with itself.

    Returns (seg_a, t_a, seg_b, t_b, point, depth_a, depth_b) records.
    Rejects (raises DegeneracyError) near-parallel meetings and meetings
    too close to a segment endpoint, so callers can retry another
    projection direction.  Records come in (seg_a, seg_b) order, with
    seg_a < seg_b when ``a is b``.

    Only segment pairs whose 4-segment leaves have overlapping boxes are
    tested (:func:`near_segment_pairs`); each box is widened by ``tol``
    times its leaf's longest segment, as far as the ``t``/``u`` tolerance
    reaches past a segment's ends.  A strand that :func:`_certified_convex`
    certifies meets itself nowhere, and is not swept.
    """
    if a is b and _certified_convex(a, tol):
        return []
    na, nb = len(a.points), len(b.points)
    r, s = a.steps, b.steps
    da, db = a.depths, b.depths

    I, J = near_segment_pairs(a, b, 0.0, widen=tol)
    if a is b:
        # i < j, and a segment and its neighbors share endpoints.
        keep = (I < J) & (J - I != 1) & (J - I != na - 1)
        I, J = I[keep], J[keep]
    rI, sJ = r[I], s[J]
    denom = rI[:, 0] * sJ[:, 1] - rI[:, 1] * sJ[:, 0]
    qp = b.points[J] - a.points[I]
    t_num = qp[:, 0] * sJ[:, 1] - qp[:, 1] * sJ[:, 0]
    u_num = qp[:, 0] * rI[:, 1] - qp[:, 1] * rI[:, 0]

    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom != 0.0, t_num / denom, np.inf)
        u = np.where(denom != 0.0, u_num / denom, np.inf)

    hits = (t > -tol) & (t < 1.0 + tol) & (u > -tol) & (u < 1.0 + tol) & np.isfinite(t)
    I, J, t, u = I[hits], J[hits], t[hits], u[hits]
    order = np.lexsort((J, I))

    out = []
    for i, j, ti, uj in zip(
        I[order].tolist(), J[order].tolist(), t[order].tolist(), u[order].tolist()
    ):
        if min(ti, uj) < tol or max(ti, uj) > 1.0 - tol:
            raise DegeneracyError("crossing too close to a polyline vertex")
        # Norms as np.linalg.norm takes them: a BLAS dot, which may fuse its multiply-add.
        (rx, ry), (sx, sy) = r[i].tolist(), s[j].tolist()
        nr, ns = math.sqrt(r[i].dot(r[i])), math.sqrt(s[j].dot(s[j]))
        if abs(rx / nr * (sy / ns) - ry / nr * (sx / ns)) < tol:
            raise DegeneracyError("near-tangent crossing")
        point = a.points[i] + ti * r[i]
        depth_a = float(da[i] + ti * (da[(i + 1) % na] - da[i]))
        depth_b = float(db[j] + uj * (db[(j + 1) % nb] - db[j]))
        out.append((i, ti, j, uj, (float(point[0]), float(point[1])), depth_a, depth_b))
    return out
