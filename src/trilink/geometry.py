"""3D curve realizations, linking numbers of space curves, scene generators.

A gallery scene (``Scene3D``, a ``NamedTuple`` like ``Realization3D``) holds
the sampled curves, spheres and markers that ``render.svg_scene`` draws.

Two independent routes to the linking number are provided: a combinatorial
one (signed crossings of a generic planar projection, halved) and a
numeric one (midpoint-rule double sum over segment pairs approximating the
linking integral).  They must agree on every realized pair.

Projection directions are drawn from a seeded generator
(``numpy.random.default_rng(DIRECTION_SEED)``) so retries are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import weakref
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .diagram import CENTERS, DEFAULT_SEGMENTS, REALIZE_KINDS, SCENE_KINDS, LinkDiagram
from .diagram import diagram_from_strands
from .errors import DegeneracyError, InputError
from .invariants import signed_linking_numbers
from .polyline import PlanarStrand, Polyline, near_segment_pairs

DIRECTION_SEED = 61803
MIN_CURVE_SEPARATION = 1e-6
MAX_DIRECTION_RETRIES = 100
#: Largest ``segments`` that :func:`realize` accepts; the pruned kernels
#: hold it to about 60 MB peak RSS in ``trilink realize``.
MAX_SEGMENTS = 16384


class PolyCurve3(Polyline):
    """A closed polygonal curve in 3-space (last point connects to first), finite throughout.

    Curves compare by identity and their points are read-only, so each
    curve keeps the curves it is known to be farther than
    ``MIN_CURVE_SEPARATION`` from, measured or certified by a Gauss
    integral, in ``separated``, keyed weakly by the other curve.
    """

    def __init__(self, label: str, points):
        try:
            pts = np.array(points, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"curve points form no numeric array: {exc}") from exc
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 8:
            raise InputError("a curve needs at least 8 points of dimension 3")
        if not np.all(np.isfinite(pts)):
            raise InputError("curve points must be finite")
        pts.setflags(write=False)
        with np.errstate(over="ignore"):
            super().__init__(pts)
            lengths = self.lengths
        if np.any(lengths == 0.0):
            raise InputError("curve has a zero-length segment")
        if not np.all(np.isfinite(lengths)):
            raise InputError("curve has a segment too long to measure")
        self.label = label
        self.separated: weakref.WeakSet[PolyCurve3] = weakref.WeakSet()

    @property
    def segment_count(self) -> int:
        return len(self.points)

    @functools.cached_property
    def magnitude(self) -> float:
        """Largest |coordinate| of the curve's points."""
        return float(np.abs(self.points).max())


class Realization3D(NamedTuple):
    """A set of closed space curves with construction metadata (``params`` is never written to)."""

    curves: tuple[PolyCurve3, ...]
    kind: str
    params: Mapping[str, float] = {}


class Scene3D(NamedTuple):
    """A gallery scene as drawn, sampled when it is built.

    ``curves`` holds ``(tag, points (n, 3), closed)`` triples, ``spheres``
    ``(center, radius)`` pairs and ``markers`` ``(tag, position)`` pairs.
    """

    kind: str
    curves: tuple[tuple[str, np.ndarray, bool], ...]
    spheres: tuple[tuple[tuple[float, float, float], float], ...] = ()
    markers: tuple[tuple[str, tuple[float, float, float]], ...] = ()


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


def _rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _villarceau_curves(R: float, r: float, segments: int) -> list[np.ndarray]:
    """Three same-family bitangent-plane circles of the torus (R, r).

    The cutting plane through the axis point makes angle asin(r/R) with
    the equatorial plane; each section circle has radius R and center at
    distance r from the axis, inside the plane.  Rotating one such circle
    about the axis by 120 and 240 degrees stays on the same torus, and
    distinct family members are pairwise linked once.
    """
    alpha = math.asin(r / R)
    t = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    base = np.stack(
        [
            R * math.cos(alpha) * np.cos(t),
            r + R * np.sin(t),
            R * math.sin(alpha) * np.cos(t),
        ],
        axis=1,
    )
    return [base @ _rotation_z(2.0 * math.pi * k / 3.0).T for k in range(3)]


def _ellipse_curves(a: float, b: float, segments: int) -> list[np.ndarray]:
    """Three axis-aligned ellipses, one per coordinate plane, cyclic semi-axes."""
    t = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    ca, sb = a * np.cos(t), b * np.sin(t)
    zero = np.zeros_like(t)
    in_xy = np.stack([ca, sb, zero], axis=1)  # a along x, b along y
    in_yz = np.stack([zero, ca, sb], axis=1)  # a along y, b along z
    in_zx = np.stack([sb, zero, ca], axis=1)  # a along z, b along x
    return [in_xy, in_yz, in_zx]


#: Parameters of each realization kind and their defaults, larger first.
_REALIZE_PARAMS = {
    "torus-villarceau": {"R": 2.0, "r": 1.0},
    "borromean-ellipses": {"a": 1.5, "b": 0.8},
}


def realize(kind: str, segments: int = DEFAULT_SEGMENTS, **params: float) -> Realization3D:
    """Build a named 3D realization.

    ``torus-villarceau`` accepts ``R`` and ``r`` (defaults 2, 1) with
    R > r > 0; ``borromean-ellipses`` accepts ``a`` and ``b`` (defaults
    1.5, 0.8) with a > b > 0.  Parameters must be finite real numbers, and
    ``segments`` an integer in 64..MAX_SEGMENTS.
    """
    if isinstance(segments, bool) or not isinstance(segments, numbers.Integral):
        raise InputError(f"segments must be an integer, got {segments!r}")
    if not 64 <= segments <= MAX_SEGMENTS:
        raise InputError(f"segments must be in 64..{MAX_SEGMENTS}, got {segments}")
    if kind not in _REALIZE_PARAMS:
        raise InputError(
            f"unknown realization {kind!r}; valid kinds: " + ", ".join(REALIZE_KINDS)
        )
    defaults = _REALIZE_PARAMS[kind]
    if set(params) - set(defaults):
        raise InputError(
            f"unknown parameters: {sorted(set(params) - set(defaults))}; "
            f"{kind} takes " + " and ".join(defaults)
        )
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InputError(f"parameter {name} must be a real number, got {value!r}")
    used = {name: float(params.get(name, value)) for name, value in defaults.items()}
    (big_name, big), (small_name, small) = used.items()
    if not (math.isfinite(big) and math.isfinite(small)):
        raise InputError(f"parameters must be finite ({big_name}={big}, {small_name}={small})")
    if not (big > small > 0):
        raise InputError(
            f"constraint {big_name} > {small_name} > 0 violated "
            f"({big_name}={big}, {small_name}={small})"
        )
    build = _villarceau_curves if kind == "torus-villarceau" else _ellipse_curves
    labeled = tuple(
        PolyCurve3(label, pts)
        for label, pts in zip(CENTERS, build(big, small, segments))
    )
    return Realization3D(labeled, kind, used)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------


def _triangle_centers() -> list[tuple[float, float, float]]:
    """Centers, 2 apart about the origin, of three unit circles or spheres that touch."""
    distance = 2.0 / math.sqrt(3.0)
    angles = map(math.radians, (90.0, 210.0, 330.0))
    return [(distance * math.cos(a), distance * math.sin(a), 0.0) for a in angles]


def _circle(center, normal, radius: float, angles: np.ndarray) -> np.ndarray:
    """Points at ``angles`` on the circle of ``center``, ``normal`` and ``radius``."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    helper = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, n)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return np.asarray(center) + radius * (
        np.outer(np.cos(angles), e1) + np.outer(np.sin(angles), e2)
    )


def scene(kind: str) -> Scene3D:
    """Build one of the fixed gallery scenes (see ``SCENE_KINDS``), sampled as drawn.

    Whole circles take 96 points and arcs 48, from their start to their
    end angle; the horn torus's surface grid is drawn as every fourth
    row, then every fourth column.
    """
    z_axis = (0.0, 0.0, 1.0)
    turn = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
    if kind == "tangent-circles":
        centers = _triangle_centers()
        curves = [("circle", _circle(c, z_axis, 1.0, turn), True) for c in centers]
        touches = [
            tuple((p + q) / 2.0 for p, q in zip(c, c_next))
            for c, c_next in zip(centers, centers[1:] + centers[:1])
        ]
        # Each arc spans its center's directions to its two tangency points, 60 degrees
        # apart, measured in ``_circle``'s frame: from (0, -1, 0) towards (1, 0, 0).
        for i, center in enumerate(centers):
            lo, hi = sorted(
                math.atan2(t[0] - center[0], center[1] - t[1]) for t in (touches[i], touches[i - 1])
            )
            curves.append(("arc", _circle(center, z_axis, 1.0, np.linspace(lo, hi, 48)), False))
        return Scene3D(kind, tuple(curves), markers=tuple(("tangency", t) for t in touches))
    if kind == "great-circles":
        center = (0.0, 0.0, 0.0)
        normals = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        curves = tuple(("circle", _circle(center, n, 1.0, turn), True) for n in normals)
        return Scene3D(kind, curves, spheres=((center, 1.0),))
    if kind == "horn-torus":
        # Tube radius equals center-circle radius: the hole shrinks to a point.
        R = r = 1.0
        nu, nv = 48, 25  # odd nv keeps the pinch point on the sample grid
        u = np.linspace(0.0, 2.0 * math.pi, nu)
        v = np.linspace(0.0, 2.0 * math.pi, nv)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        grid = np.stack(
            [
                (R + r * np.cos(vv)) * np.cos(uu),
                (R + r * np.cos(vv)) * np.sin(uu),
                r * np.sin(vv),
            ],
            axis=2,
        )
        curves = [("patch", row, False) for row in grid[::4]]
        curves += [("patch", grid[:, j], False) for j in range(0, nv, 4)]
        # Three sweep positions of the revolving circle, all through the origin.
        for k in range(3):
            phi = 2.0 * math.pi * k / 3.0
            center = (R * math.cos(phi), R * math.sin(phi), 0.0)
            normal = (-math.sin(phi), math.cos(phi), 0.0)
            curves.append(("sweep", _circle(center, normal, r, turn), True))
        return Scene3D(kind, tuple(curves), markers=(("cusp", (0.0, 0.0, 0.0)),))
    if kind == "tangent-spheres":
        return Scene3D(kind, (), spheres=tuple((c, 1.0) for c in _triangle_centers()))
    raise InputError(f"unknown scene {kind!r}; valid kinds: " + ", ".join(SCENE_KINDS))


# ---------------------------------------------------------------------------
# Distances and certificates
# ---------------------------------------------------------------------------


def _segment_pair_distances(a0, a1, b0, b1, k: int = 0) -> np.ndarray:
    """Distances between segments [a0,a1] and [b0,b1], broadcast over leading axes.

    Pass ``a0[:, None]``, ``a1[:, None]``, ``b0[None]``, ``b1[None]`` for
    the full (n, m) table, or gathered rows for chosen pairs.  They are
    measured between the points scaled by 2^k and scaled back; with the
    ``k`` of :func:`_scale_exponent`, no product of four coordinates
    overflows or underflows, and the distances scale exactly with the
    curves.
    """
    a0, a1, b0, b1 = (np.ldexp(x, k) for x in (a0, a1, b0, b1))
    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = np.einsum("...j,...j->...", d1, d1)
    e = np.einsum("...j,...j->...", d2, d2)
    f = np.einsum("...j,...j->...", d2, r)
    c = np.einsum("...j,...j->...", d1, r)
    b = np.einsum("...j,...j->...", d1, d2)
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-30, (b * f - c * e) / denom, 0.0)
        s = np.clip(s, 0.0, 1.0)
        t = np.where(e > 1e-30, (b * s + f) / e, 0.0)
        t_clamped = np.clip(t, 0.0, 1.0)
        s = np.where((e > 1e-30) & (a > 1e-30), (b * t_clamped - c) / a, s)
    s = np.clip(s, 0.0, 1.0)
    closest_a = a0 + s[..., None] * d1
    closest_b = b0 + t_clamped[..., None] * d2
    return np.ldexp(np.linalg.norm(closest_a - closest_b, axis=-1), -k)


def _scale_exponent(a: PolyCurve3, b: PolyCurve3) -> int:
    """The k for which 2^k brings the two curves' largest |coordinate| into [1/2, 1)."""
    return -math.frexp(max(a.magnitude, b.magnitude))[1]


#: Candidate segment pairs measured at once by :func:`curve_distance`.
_DISTANCE_CHUNK = 16384


def curve_distance(a: PolyCurve3, b: PolyCurve3) -> float:
    """Minimum distance between two closed polygonal curves.

    The closest pair of vertices that start 4-segment leaves, among the
    64-segment groups whose boxes come close, bounds the answer from
    above, so only segment pairs whose leaves' boxes lie within that
    bound are measured (:func:`~trilink.polyline.near_segment_pairs`), in
    chunks of ``_DISTANCE_CHUNK`` pairs; the minimum equals the full
    table's.  Distances are measured at the common power-of-two scale of
    :func:`_scale_exponent`, so they scale exactly with the curves; only
    curves farther apart than the largest float give ``inf``.
    """
    with np.errstate(over="ignore"):
        I, J = near_segment_pairs(a, b, None)
        if not len(I):
            return math.inf
        k = _scale_exponent(a, b)
        chunks = (slice(lo, lo + _DISTANCE_CHUNK) for lo in range(0, len(I), _DISTANCE_CHUNK))
        minima = [
            _segment_pair_distances(
                a.points[I[c]], a.ends[I[c]], b.points[J[c]], b.ends[J[c]], k
            ).min()
            for c in chunks
        ]
    return float(np.min(minima))


def _finite_distance(a: PolyCurve3, b: PolyCurve3) -> float:
    """:func:`curve_distance`, raising :class:`InputError` when it is not finite.

    A distance is not finite only for curves farther apart than the
    largest float.  A distance above ``MIN_CURVE_SEPARATION`` adds the
    pair to both curves' ``separated``, so later checks read the verdict.
    """
    dist = curve_distance(a, b)
    if not math.isfinite(dist):
        raise InputError(
            f"distance of curves {a.label!r} and {b.label!r} is not finite ({dist})"
        )
    if dist > MIN_CURVE_SEPARATION:
        a.separated.add(b)
        b.separated.add(a)
    return dist


#: Bound on a measured segment distance's rounding error, relative to the
#: curves' largest |coordinate| (at most about 20 eps, so 2^12 times that).
#: A bound above 2 ``MIN_CURVE_SEPARATION`` on the curves' true distance
#: certifies them while this times their largest |coordinate| stays below
#: ``MIN_CURVE_SEPARATION``, the margin between that bound and the
#: threshold: their measured distance would exceed the threshold.
_DISTANCE_ROUNDING = 2.0**-40


def _check_separation(a: PolyCurve3, b: PolyCurve3) -> None:
    """Raise :class:`InputError` unless the curves are farther apart than ``MIN_CURVE_SEPARATION``.

    A pair in ``separated`` passes at once; any other pair is measured,
    so the errors and their messages are the measured distance's.
    """
    if b not in a.separated and (dist := _finite_distance(a, b)) <= MIN_CURVE_SEPARATION:
        raise InputError(
            f"curves {a.label!r} and {b.label!r} are too close to link "
            f"(distance {dist:.3g} <= {MIN_CURVE_SEPARATION})"
        )


def validate_disjoint(r: Realization3D) -> float:
    """Minimum pairwise inter-curve distance (callers decide what is enough)."""
    if len(r.curves) < 2:
        raise InputError("disjointness needs at least two curves")
    return min(_finite_distance(a, b) for a, b in itertools.combinations(r.curves, 2))


def circularity_stats(curve: PolyCurve3) -> tuple[np.ndarray, float, float, float]:
    """(center, min radius, max radius, max |radius - mean|) about the point mean."""
    center = curve.points.mean(axis=0)
    radii = np.linalg.norm(curve.points - center, axis=1)
    mean = float(radii.mean())
    return center, float(radii.min()), float(radii.max()), float(
        np.abs(radii - mean).max()
    )


def roundness_deviation(curve: PolyCurve3) -> float:
    """Max deviation of point distances from a perfect circle about the centroid."""
    return circularity_stats(curve)[3]


def noncircularity_ratio(curve: PolyCurve3) -> float:
    """Max-over-min distance from the centroid (1 for a round circle)."""
    _, rmin, rmax, _ = circularity_stats(curve)
    return rmax / rmin


# ---------------------------------------------------------------------------
# Linking numbers of space curves
# ---------------------------------------------------------------------------


def _direction_candidates():
    """Deterministic stream of unit projection directions."""
    rng = np.random.default_rng(DIRECTION_SEED)
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            yield v / norm


def _projection_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection frame (u, v, d); depth is p . d, larger depth passes over.

    The in-plane axes are ordered so that the crossing-sign rule of the
    diagram module, summed over a projection and halved, reproduces the
    canonical linking integral with its sign (checked against a
    surface-intersection count on the Hopf configuration).
    """
    try:
        d = np.asarray(direction, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"direction must be a nonzero finite 3-vector: {exc}") from exc
    norm = np.linalg.norm(d)
    if d.shape != (3,) or not 1e-12 <= norm < np.inf:
        raise InputError(f"direction must be a nonzero finite 3-vector, got {d.tolist()}")
    d = d / norm
    helper = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(helper, d)
    u = u / np.linalg.norm(u)
    v = np.cross(u, d)
    return u, v, d


def _project_curves(
    curves: Sequence[PolyCurve3], direction: np.ndarray
) -> list[PlanarStrand]:
    u, v, d = _projection_frame(direction)
    return [
        PlanarStrand(c.label, np.stack([c.points @ u, c.points @ v], axis=1), c.points @ d)
        for c in curves
    ]


def linking_number_3d(
    a: PolyCurve3, b: PolyCurve3, direction: np.ndarray | str = "auto"
) -> int:
    """Signed linking number via signed crossings of a generic projection.

    The pair is projected by :func:`diagram_from_curves`, which with
    ``direction="auto"`` retries seeded candidate directions on degeneracy.
    To link every pair of a realization, project it once instead and read
    :func:`~trilink.invariants.signed_linking_numbers` of that diagram.
    """
    pair = Realization3D(curves=(a, b), kind="curve-pair")
    lks = signed_linking_numbers(diagram_from_curves(pair, direction))
    return lks[frozenset((a.label, b.label))]


#: Segments of the first curve per block of :func:`gauss_linking_integral`.
_GAUSS_ROW_BLOCK = 64
#: A squared midpoint distance must exceed this many times its rounding,
#: eps * (|mᵃ|² + |mᵇ|²), keeping a term's relative error near 1e-6.
_GAUSS_ROUNDING_FACTOR = 2.0**20


def gauss_linking_integral(a: PolyCurve3, b: PolyCurve3) -> float:
    """Midpoint-rule double sum over segment pairs for the linking integral.

    Converges to the integer linking number as the curves are refined.
    Both curves are first moved by one common point, so rounding scales
    with their size, not with their distance from the origin, and then
    scaled by the power of two that brings their largest midpoint
    coordinate into [1/2, 1).  The sum does not change under uniform
    scaling, and a power of two scales exactly, so this only keeps the
    cubic numerators and distances in range.  A pair's numerator
    (mᵃ - mᵇ) . (dᵃ x dᵇ) and squared distance |mᵃ - mᵇ|² are each one
    entry of a matrix product (Gram form), of ``[cross(mᵃ,dᵃ) | -dᵃ]``
    with ``[dᵇ | cross(dᵇ,mᵇ)]ᵀ`` and of ``[-2mᵃ | |mᵃ|² | 1]`` with
    ``[mᵇ | 1 | |mᵇ|²]ᵀ``.  The squared distance then carries a rounding
    error of about eps * (|mᵃ|² + |mᵇ|²), so a term's relative error is
    about eps * (|mᵃ|² + |mᵇ|²) / |mᵃ - mᵇ|².  The sum runs over blocks
    of ``_GAUSS_ROW_BLOCK`` segments of ``a``, written into three
    buffers allocated once, so memory is O(block * m).  Raises
    :class:`InputError` when the sum is not finite, as for midpoints that
    overflow, and when a squared distance is at most ``floor``,
    ``_GAUSS_ROUNDING_FACTOR`` times its rounding bound taken at the
    largest |mᵃ|² and |mᵇ|².

    The sum certifies the pair: each point of a segment lies within half
    its length of its midpoint, so the scaled curves are at least
    sqrt(min |mᵃ - mᵇ|² - floor) - (max |dᵃ| + max |dᵇ|) / 2 apart.  If that,
    scaled back, exceeds 2 ``MIN_CURVE_SEPARATION`` and the magnitude guard
    of ``_DISTANCE_ROUNDING`` holds, a measured distance would exceed
    ``MIN_CURVE_SEPARATION``: the pair joins ``separated``, unmeasured.  A
    pair that was neither in ``separated`` nor certified is then measured
    (:func:`_check_separation`), before the sum's own errors.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        origin = a.points[0]
        ma = (a.points + a.ends) / 2.0 - origin
        mb = (b.points + b.ends) / 2.0 - origin
        k = -math.frexp(max(np.abs(ma).max(), np.abs(mb).max()))[1]
        ma, mb, da, db = (np.ldexp(x, k) for x in (ma, mb, a.steps, b.steps))
        left, right = np.empty((len(ma), 11)), np.empty((11, len(mb)))
        for c in range(3):  # cross(ma, da) and cross(db, mb), as np.cross computes them
            i, j = (c + 1) % 3, (c + 2) % 3
            left[:, c] = ma[:, i] * da[:, j] - ma[:, j] * da[:, i]
            right[3 + c] = db[:, i] * mb[:, j] - db[:, j] * mb[:, i]
        left[:, 3:6] = -da
        left[:, 6:9] = -2.0 * ma
        left[:, 9] = np.einsum("ij,ij->i", ma, ma)
        left[:, 10] = 1.0
        right[0:3] = db.T
        right[6:9] = mb.T
        right[9] = 1.0
        right[10] = np.einsum("ij,ij->i", mb, mb)
        floor = _GAUSS_ROUNDING_FACTOR * np.finfo(float).eps * (left[:, 9].max() + right[10].max())
        buffers = np.empty((3, min(_GAUSS_ROW_BLOCK, len(ma)), len(mb)))
        total, closest = 0.0, math.inf
        for lo in range(0, len(ma), _GAUSS_ROW_BLOCK):
            rows = left[lo:lo + _GAUSS_ROW_BLOCK]
            numer, dist2, scale = buffers[:, :len(rows)]
            np.matmul(rows[:, :6], right[:6], out=numer)
            np.matmul(rows[:, 6:], right[6:], out=dist2)
            closest = min(closest, float(dist2.min()))
            np.sqrt(dist2, out=scale)
            scale *= dist2
            numer /= scale
            total += float(numer.sum())
        apart = np.ldexp(np.sqrt(closest - floor), -k) - (a.lengths.max() + b.lengths.max()) / 2
    guard = max(a.magnitude, b.magnitude) * _DISTANCE_ROUNDING < MIN_CURVE_SEPARATION
    if closest > floor and guard and apart > 2.0 * MIN_CURVE_SEPARATION:
        a.separated.add(b)
        b.separated.add(a)
    _check_separation(a, b)  # measures only a pair neither known nor certified
    if not math.isfinite(total):
        raise InputError(
            f"Gauss integral of curves {a.label!r} and {b.label!r} is not finite ({total}): "
            "they are too close for its rounding or too large to sum"
        )
    if closest <= floor:
        raise InputError(
            f"Gauss integral of curves {a.label!r} and {b.label!r} is not resolved: "
            "they are too close for its rounding"
        )
    return total / (4.0 * math.pi)


def diagram_from_curves(
    r: Realization3D, direction: np.ndarray | str = "auto"
) -> LinkDiagram:
    """Planar diagram of a realization along a generic projection direction.

    Over/under at each crossing comes from the projected depth.  With
    ``direction="auto"`` seeded candidates are retried on degeneracy.
    """
    for a, b in itertools.combinations(r.curves, 2):
        _check_separation(a, b)
    if isinstance(direction, str):
        if direction != "auto":
            raise InputError(f"direction must be a vector or 'auto', got {direction!r}")
        candidates = itertools.islice(_direction_candidates(), MAX_DIRECTION_RETRIES)
    else:
        candidates = [direction]
    last_error: Exception | None = None
    for d in candidates:
        try:
            return diagram_from_strands(_project_curves(r.curves, d))
        except DegeneracyError as exc:
            last_error = exc
    raise DegeneracyError(f"no generic projection direction found: {last_error}")
