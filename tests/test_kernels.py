"""The geometry kernels and the contracted bracket against references.

The references are the straightforward versions: every segment pair of
the two polylines, the dense n x m x 3 Gauss sum, and a state sum over
all 2^c states that rebuilds a dict of dart tuples per state.  The pruned
kernels and the bracket must give the same answers bit for bit, the
blocked Gauss sum the same value to 1e-12.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trilink import diagram as D
from trilink import geometry as G
from trilink import polyline as P
from trilink.cli import main
from trilink.diagram import (
    BUILTIN_NAMES,
    Component,
    LinkDiagram,
    all_assignments,
    assignment_from_text,
    builtin_diagram,
    flip_all_crossings,
    remove_component,
    to_diagram,
)
from trilink.errors import DegeneracyError, InputError
from trilink.invariants import BRACKET_CROSSING_LIMIT, classify, kauffman_bracket
from trilink.laurent import LOOP_FACTOR, LaurentPoly


def dense_segment_meetings(pa, da, pb, db, same, tol):
    """Every segment pair tested at once, on full (n, m) tables."""
    na, nb = len(pa), len(pb)
    a0, a1 = pa, np.roll(pa, -1, axis=0)
    b0, b1 = pb, np.roll(pb, -1, axis=0)
    r = a1 - a0
    s = b1 - b0
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    qp = b0[None, :, :] - a0[:, None, :]
    t_num = qp[:, :, 0] * s[None, :, 1] - qp[:, :, 1] * s[None, :, 0]
    u_num = qp[:, :, 0] * r[:, None, 1] - qp[:, :, 1] * r[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom != 0.0, t_num / denom, np.inf)
        u = np.where(denom != 0.0, u_num / denom, np.inf)
    hits = (t > -tol) & (t < 1.0 + tol) & (u > -tol) & (u < 1.0 + tol) & np.isfinite(t)
    pairs = []
    for i, j in zip(*np.nonzero(hits)):
        if same and (j <= i or (j - i) % na == 1 or (i - j) % na == 1):
            continue
        pairs.append((int(i), int(j)))
    out = []
    for i, j in pairs:
        ti, uj = float(t[i, j]), float(u[i, j])
        if min(ti, uj) < tol or max(ti, uj) > 1.0 - tol:
            raise DegeneracyError("crossing too close to a polyline vertex")
        rn = r[i] / np.linalg.norm(r[i])
        sn = s[j] / np.linalg.norm(s[j])
        if abs(rn[0] * sn[1] - rn[1] * sn[0]) < tol:
            raise DegeneracyError("near-tangent crossing")
        point = a0[i] + ti * r[i]
        depth_a = 0.0 if da is None else float(da[i] + ti * (da[(i + 1) % na] - da[i]))
        depth_b = 0.0 if db is None else float(db[j] + uj * (db[(j + 1) % nb] - db[j]))
        out.append((i, ti, j, uj, (float(point[0]), float(point[1])), depth_a, depth_b))
    return out


def reference_bracket(d):
    """State sum with a dict of (crossing, slot) darts rebuilt for every state."""
    c = d.crossing_count
    arc_mates = d.arc_mates()
    terms = {}
    for state in range(1 << c):
        smooth_mate = {}
        a_count = 0
        for k in range(c):
            if (state >> k) & 1:
                a_count += 1
                pairs = ((1, 2), (3, 0))
            else:
                pairs = ((0, 1), (2, 3))
            for s1, s2 in pairs:
                smooth_mate[(k, s1)] = (k, s2)
                smooth_mate[(k, s2)] = (k, s1)
        loops = d.free_component_count()
        visited = set()
        for dart in smooth_mate:
            if dart in visited:
                continue
            loops += 1
            current = dart
            while current not in visited:
                visited.add(current)
                partner = smooth_mate[current]
                visited.add(partner)
                current = arc_mates[partner]
        for exp, coeff in (LOOP_FACTOR ** (loops - 1)).items():
            key = exp + 2 * a_count - c
            terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(terms)


def segments(curve):
    """Start and end points of every segment of a closed curve."""
    return curve.points, np.roll(curve.points, -1, axis=0)


def dense_curve_distance(a, b):
    """The minimum of the full (n, m) segment distance table, at the kernel's scale."""
    a0, a1 = segments(a)
    b0, b1 = segments(b)
    k = G._scale_exponent(a, b)
    return G._segment_pair_distances(a0[:, None], a1[:, None], b0[None], b1[None], k).min()


def pruned_segment_meetings(pa, da, pb, db, same, tol):
    """:func:`trilink.polyline.segment_meetings` on strands of the arrays (depth 0 for ``None``)."""
    a = P.PlanarStrand("a", pa, np.zeros(len(pa)) if da is None else da)
    b = a if same else P.PlanarStrand("b", pb, np.zeros(len(pb)) if db is None else db)
    return P.segment_meetings(a, b, tol)


def dense_gauss_integral(a, b):
    """The midpoint-rule sum on full (n, m, 3) tables."""
    a0, a1 = segments(a)
    b0, b1 = segments(b)
    diff = (a0 + a1)[:, None, :] / 2.0 - (b0 + b1)[None, :, :] / 2.0
    cross = np.cross((a1 - a0)[:, None, :], (b1 - b0)[None, :, :])
    numer = np.einsum("nmj,nmj->nm", diff, cross)
    return float(np.sum(numer / np.linalg.norm(diff, axis=2) ** 3) / (4.0 * math.pi))


def outcome(fn, *args):
    try:
        return ("records", fn(*args))
    except DegeneracyError as exc:
        return ("error", str(exc))


def polygon(rng, n, dim):
    """A random closed polygon: a random walk or a noisy circle."""
    if rng.random() < 0.5:
        return np.cumsum(rng.normal(size=(n, dim)), axis=0)
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False) + rng.uniform(0, 0.1, n)
    radius = 1.0 + 0.3 * rng.random(n)
    pts = np.zeros((n, dim))
    pts[:, 0], pts[:, 1] = radius * np.cos(t), radius * np.sin(t)
    if dim == 3:
        pts[:, 2] = 0.2 * rng.normal(size=n)
    return pts


def paired_polygon(rng, a, m, placement):
    """A second polygon offset from ``a``, or with one vertex near a point of ``a``."""
    b = polygon(rng, m, a.shape[1])
    if placement == "offset":
        return b + rng.normal(size=a.shape[1]) * rng.uniform(0.0, 4.0)
    if placement == "copy":
        # ``a`` itself, shifted a hair: every segment has a near-parallel twin.
        return a + rng.normal(size=a.shape[1]) * 10.0 ** rng.uniform(-9, -3)
    i = int(rng.integers(len(a)))
    target = a[i] + rng.random() * (a[(i + 1) % len(a)] - a[i])
    k = int(rng.integers(m))
    nudge = rng.normal(size=a.shape[1]) * 10.0 ** rng.uniform(-9, -2)
    return b - b[k] + target + nudge


# Segment counts straddle whole numbers of 4-segment leaves and of
# 64-segment groups, several groups deep.
sizes = st.integers(min_value=8, max_value=700)
placements = st.sampled_from(["offset", "near-touching", "copy"])


# The VM's CPU speed switches between two levels about 1.6x apart, so these
# tests run without a per-example deadline.
@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, sizes, placements)
def test_pruned_curve_distance_equals_dense_minimum(seed, n, m, placement):
    rng = np.random.default_rng(seed)
    a = polygon(rng, n, 3)
    b = paired_polygon(rng, a, m if placement != "copy" else n, placement)
    curve_a, curve_b = G.PolyCurve3("A", a), G.PolyCurve3("B", b)
    assert G.curve_distance(curve_a, curve_b) == dense_curve_distance(curve_a, curve_b)


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, sizes, placements, st.integers(-16, 400))
def test_curve_distance_is_exact_under_power_of_two_scaling(seed, n, m, placement, k):
    # Scaling by 2^k is exact, and the kernel measures at a power-of-two
    # scale, so no product of coordinates overflows or underflows.
    rng = np.random.default_rng(seed)
    a = polygon(rng, n, 3)
    b = paired_polygon(rng, a, m if placement != "copy" else n, placement)
    plain = G.curve_distance(G.PolyCurve3("A", a), G.PolyCurve3("B", b))
    scaled = G.curve_distance(G.PolyCurve3("A", np.ldexp(a, k)), G.PolyCurve3("B", np.ldexp(b, k)))
    assert scaled == math.ldexp(plain, k)


def test_huge_torus_measures_as_the_default():
    # R = 2^300: products of four coordinates overflowed, and the kernel
    # fell back to s = 0 and gave 0.535041453 R instead of 0.535040110 R.
    huge = G.realize("torus-villarceau", segments=1024, R=2.0**300, r=2.0**299).curves
    default = G.realize("torus-villarceau", segments=1024).curves
    for i, j in ((0, 1), (0, 2), (1, 2)):
        expected = math.ldexp(G.curve_distance(default[i], default[j]), 299)
        assert G.curve_distance(huge[i], huge[j]) == expected


def separation_outcome(a, b):
    """The message of the InputError that the separation check raises on fresh copies, or None."""
    a, b = (G.PolyCurve3(c.label, c.points) for c in (a, b))
    try:
        G._check_separation(a, b)
    except InputError as exc:
        return str(exc)
    return None


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    sizes,
    sizes,
    placements,
    st.sampled_from([1e-9, 1e-4, 0.05]),
)
def test_pruned_meetings_match_dense(seed, n, m, placement, tol):
    rng = np.random.default_rng(seed)
    a = polygon(rng, n, 2)
    b = paired_polygon(rng, a, m if placement != "copy" else n, placement)
    da, db = rng.normal(size=len(a)), rng.normal(size=len(b))
    for args in ((a, da, b, db, False, tol), (a, da, a, da, True, tol), (b, None, b, None, True, tol)):
        assert outcome(pruned_segment_meetings, *args) == outcome(dense_segment_meetings, *args)


def test_meeting_just_past_a_segment_end_is_seen():
    # B's first segment stops 0.5 * tol short of A's top edge, so only the
    # tolerance reaches the edge; the boxes overlap only once widened.
    tol = 1e-3
    a = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.5 * tol], [1.0, 1.0]])
    args = (a, None, b, None, False, tol)
    expected = ("error", "crossing too close to a polyline vertex")
    assert outcome(dense_segment_meetings, *args) == expected
    assert outcome(pruned_segment_meetings, *args) == expected


def test_far_apart_polygons_prune_whole_group_pairs():
    # Two 1000-segment noisy circles 10 apart: only the facing 64-segment
    # groups stay near, and no group pair overlaps in the plane.
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    radius = 1.0 + 0.3 * rng.random(1000)
    a = np.stack([radius * np.cos(t), radius * np.sin(t), 0.2 * rng.normal(size=1000)], axis=1)
    b = a + np.array([10.0, 0.3, -0.2])
    pa, pb = a[:, :2], b[:, :2]
    I, J = P.near_segment_pairs(P.Polyline(a), P.Polyline(b), reach=None)
    assert len(np.unique(I // 64)) <= 2 and len(np.unique(J // 64)) <= 2
    near = P.near_segment_pairs(P.Polyline(pa), P.Polyline(pb), 0.0, widen=D.GENERIC_TOL)
    assert near[0].size == 0
    curve_a, curve_b = G.PolyCurve3("A", a), G.PolyCurve3("B", b)
    assert G.curve_distance(curve_a, curve_b) == dense_curve_distance(curve_a, curve_b)
    da, db = rng.normal(size=len(a)), rng.normal(size=len(b))
    args = (pa, da, pb, db, False, D.GENERIC_TOL)
    assert outcome(pruned_segment_meetings, *args) == outcome(dense_segment_meetings, *args) == (
        "records", []
    )


def test_pruned_meetings_match_dense_on_realizations():
    for kind in G.REALIZE_KINDS:
        for segments in (64, 97, 256):
            r = G.realize(kind, segments=segments)
            direction = next(G._direction_candidates())
            strands = G._project_curves(r.curves, direction)
            arrays = [(np.asarray(s.points), np.asarray(s.depths)) for s in strands]
            for i, (pa, da) in enumerate(arrays):
                for j, (pb, db) in enumerate(arrays[i:], start=i):
                    args = (pa, da, pb, db, i == j, D.GENERIC_TOL)
                    assert outcome(pruned_segment_meetings, *args) == outcome(
                        dense_segment_meetings, *args
                    )


def convex_polygon(rng, n, shape):
    """Vertices of a strictly convex polygon inscribed in an ellipse, in either orientation.

    ``thin``: an ellipse up to 1e5 times longer than wide; ``collinear``:
    all but three vertices on a short arc; ``tiny-edge``: one edge up to
    1e9 times shorter than the others.
    """
    aspect = 10.0 ** rng.uniform(-5.0, -2.0) if shape == "thin" else 10.0 ** rng.uniform(-2.0, 0.0)
    if shape == "collinear":
        start, width = rng.uniform(0.0, math.pi), 10.0 ** rng.uniform(-4.0, -1.0)
        t = np.concatenate((start + width * rng.random(n - 3), rng.uniform(0.0, 2.0 * math.pi, 3)))
    else:
        t = (np.arange(n) + rng.uniform(0.0, 0.9) * rng.random(n)) * (2.0 * math.pi / n)
    if shape == "tiny-edge":
        t[0] = t[1] + 10.0 ** rng.uniform(-9.0, -5.0)
    t = np.unique(t % (2.0 * math.pi))
    if rng.random() < 0.5:
        t = t[::-1]
    turn = rng.uniform(0.0, 2.0 * math.pi)
    rotation = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    ellipse = np.stack([np.cos(t), aspect * np.sin(t)], axis=1)
    return ellipse @ rotation.T * rng.uniform(0.1, 10.0) + rng.normal(size=2)


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 400),
    st.sampled_from(["round", "thin", "collinear", "tiny-edge"]),
    st.sampled_from([1e-9, 1e-4, 0.05]),
)
def test_certified_convex_strands_meet_nowhere(seed, n, shape, tol):
    pts = convex_polygon(np.random.default_rng(seed), n, shape)
    assume(len(pts) >= 3)
    strand = P.PlanarStrand("K", pts, np.zeros(len(pts)))
    if P._certified_convex(strand, tol):
        assert outcome(dense_segment_meetings, pts, None, pts, None, True, tol) == ("records", [])
    assert outcome(pruned_segment_meetings, pts, None, pts, None, True, tol) == outcome(
        dense_segment_meetings, pts, None, pts, None, True, tol
    )


def test_realized_strands_are_certified_convex():
    # Projections of circles and ellipses are convex: no strand is swept
    # against itself.
    directions = G._direction_candidates()
    for kind in G.REALIZE_KINDS:
        for segments in (64, 256, 1024):
            r = G.realize(kind, segments=segments)
            for _ in range(4):
                for strand in G._project_curves(r.curves, next(directions)):
                    assert P._certified_convex(strand, D.GENERIC_TOL)


def test_inner_loop_limacon_is_swept():
    # The twist unknot's limacon turns one way throughout, but twice around
    # (4π), so the certificate refuses it and the sweep finds its crossing.
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    r = 0.5 + np.cos(theta)
    strand = P.PlanarStrand("K", np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1), np.sin(theta))
    s, following = strand.steps, np.roll(strand.steps, -1, axis=0)
    assert np.all(s[:, 0] * following[:, 1] - s[:, 1] * following[:, 0] > 0.0)
    assert not P._certified_convex(strand, D.GENERIC_TOL)
    assert len(P.segment_meetings(strand, strand, D.GENERIC_TOL)) == 1
    assert builtin_diagram("twist-unknot").crossing_count == 1


def test_cross_is_np_cross_bit_for_bit():
    # Signed zeros and entries 2^±100 apart, which no product over- or underflows.
    rng = np.random.default_rng(34)
    vectors = rng.normal(size=(10000, 2, 3)) * 2.0 ** rng.integers(-100, 100, size=(10000, 2, 3))
    vectors[rng.random(vectors.shape) < 0.1] = 0.0
    vectors[rng.random(vectors.shape) < 0.05] = -0.0
    for a, b in vectors:
        assert np.array_equal(G._cross(a, b).view(np.int64), np.cross(a, b).view(np.int64))


def _word_diagram(word):
    return to_diagram(assignment_from_text(word))


@pytest.mark.parametrize(
    "name", [a.word for a in all_assignments()] + list(BUILTIN_NAMES) + list(G.REALIZE_KINDS)
)
def test_bracket_matches_reference(name):
    if name in BUILTIN_NAMES:
        diagram = builtin_diagram(name)
    elif name in G.REALIZE_KINDS:
        diagram = G.diagram_from_curves(G.realize(name))
    else:
        diagram = _word_diagram(name)
    for d in (diagram, flip_all_crossings(diagram)):
        assert kauffman_bracket(d) == reference_bracket(d)


@pytest.mark.parametrize("word", [a.word for a in all_assignments()])
def test_census_record_matches_the_contraction_and_reference(census_records, word):
    # The census brackets every word from one state table of 000000's diagram.
    asg = assignment_from_text(word)
    record, d = census_records[asg.index], to_diagram(asg)
    assert record.bracket == kauffman_bracket(d) == reference_bracket(d)
    assert record.embedding_type is classify(d)


@pytest.mark.parametrize("word", [a.word for a in all_assignments()])
def test_cut_brackets_match_reference(word):
    for label in "ABC":
        cut = remove_component(_word_diagram(word), label)
        for d in (cut, flip_all_crossings(cut)):
            assert kauffman_bracket(d) == reference_bracket(d)


@pytest.mark.parametrize("name", ["twist-unknot", "trefoil", "hopf"])
def test_bracket_with_a_free_circle_matches_reference(name):
    d = builtin_diagram(name)
    with_free = LinkDiagram(d.components + (Component("F", ()),), d.crossings)
    assert kauffman_bracket(with_free) == reference_bracket(with_free)


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(G.REALIZE_KINDS + ("hopf-circles",)),
    st.sampled_from([0.0, 0.004, 0.02]),
)
def test_bracket_matches_reference_on_perturbed_projections(circle_pair, seed, kind, noise):
    rng = np.random.default_rng(seed)
    r = circle_pair("hopf", 64) if kind == "hopf-circles" else G.realize(kind, segments=64)
    curves = tuple(
        G.PolyCurve3(c.label, c.points + noise * rng.normal(size=c.points.shape))
        for c in r.curves
    )
    try:
        d = G.diagram_from_curves(G.Realization3D(curves, kind), rng.normal(size=3))
    except DegeneracyError:
        assume(False)
    assume(d.crossing_count <= BRACKET_CROSSING_LIMIT)
    for diagram in (d, flip_all_crossings(d)):
        assert kauffman_bracket(diagram) == reference_bracket(diagram)


def separated_pair(rng, n, m):
    a = polygon(rng, n, 3)
    b = polygon(rng, m, 3) + rng.normal(size=3) * rng.uniform(2.0, 6.0)
    return G.PolyCurve3("A", a), G.PolyCurve3("B", b)


# Segment counts straddle whole numbers of Gauss row blocks.
# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, sizes)
def test_blocked_gauss_integral_matches_dense(seed, n, m):
    a, b = separated_pair(np.random.default_rng(seed), n, m)
    assume(G.curve_distance(a, b) > 0.5)
    assert abs(G.gauss_linking_integral(a, b) - dense_gauss_integral(a, b)) < 1e-12


def test_gauss_integral_of_a_far_translated_pair_matches_dense():
    # Points on a 2^-30 grid stay exact when moved by 2^20 (about 1e6), so
    # the translated pair is the same geometry far from the origin.
    rng = np.random.default_rng(7)
    for n, m in ((100, 77), (64, 130), (200, 200)):
        a, b = separated_pair(rng, n, m)
        exact = [np.round(c.points * 2.0**30) / 2.0**30 for c in (a, b)]
        near = [G.PolyCurve3(label, p) for label, p in zip("AB", exact)]
        far = [G.PolyCurve3(label, p + 2.0**20) for label, p in zip("AB", exact)]
        assert G.gauss_linking_integral(*far) == G.gauss_linking_integral(*near)
        assert abs(G.gauss_linking_integral(*far) - dense_gauss_integral(*near)) < 1e-12


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), sizes, sizes)
def test_gauss_integral_is_symmetric(seed, n, m):
    a, b = separated_pair(np.random.default_rng(seed), n, m)
    assume(G.curve_distance(a, b) > 0.5)
    assert abs(G.gauss_linking_integral(a, b) - G.gauss_linking_integral(b, a)) < 1e-12


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), sizes, sizes, st.integers(-16, 400))
def test_gauss_integral_is_exact_under_power_of_two_scaling(seed, n, m, k):
    # Scaling by 2^k is exact, and the sum is scale-free; 2^-16 keeps the
    # pair above the absolute separation the check demands.
    a, b = separated_pair(np.random.default_rng(seed), n, m)
    assume(G.curve_distance(a, b) > 0.5)
    scaled = [G.PolyCurve3(c.label, np.ldexp(c.points, k)) for c in (a, b)]
    assert G.gauss_linking_integral(*scaled) == G.gauss_linking_integral(a, b)


def moved_copy(rng, a, gap):
    """``a`` turned about its centroid and shifted, no point moving more than 2 ``gap``."""
    centre = a.mean(axis=0)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = gap * rng.uniform(-1.0, 1.0) / np.linalg.norm(a - centre, axis=1).max()
    turn = np.cross(np.eye(3), axis)  # turn @ v == axis x v
    rotation = np.eye(3) + math.sin(angle) * turn + (1.0 - math.cos(angle)) * turn @ turn
    shift = rng.normal(size=3)
    shift *= gap * rng.random() / np.linalg.norm(shift)
    return (a - centre) @ rotation.T + centre + shift


# See above: no per-example deadline on a VM whose speed switches 1.6x.
@settings(deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 512),
    st.one_of(st.just(0), st.integers(-16, 24), st.integers(25, 400)),
)
def test_gauss_integral_certifies_only_separated_pairs(seed, n, k):
    # A curve and a copy moved by 1e-7..1e-2, scaled by 2^k.  The curve's
    # longest segment is 1e-3..1e3 times the gap, so pairs range from
    # measured ones to ones the integral certifies.  A pair the integral
    # settles without a curve_distance call is farther apart than
    # MIN_CURVE_SEPARATION on the dense segment table, and a pair that the
    # separation check rejects raises the check's message.
    rng = np.random.default_rng(seed)
    a = polygon(rng, n, 3)
    gap = 10.0 ** rng.uniform(-7, -2)
    a *= gap * 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(a - np.roll(a, 1, axis=0), axis=1).max()
    b = moved_copy(rng, a, gap)
    curves = [G.PolyCurve3(label, np.ldexp(p, k)) for label, p in zip("AB", (a, b))]
    rejected = separation_outcome(*curves)
    with mock.patch.object(G, "curve_distance", wraps=G.curve_distance) as measured:
        try:
            G.gauss_linking_integral(*curves)
            raised = None
        except InputError as exc:
            raised = str(exc)
    if rejected is not None:
        assert raised == rejected
    if not measured.called:
        assert curves[1] in curves[0].separated
        assert dense_curve_distance(*curves) > G.MIN_CURVE_SEPARATION


def needle(tip, direction, length, segments, half_angle):
    """A closed needle: two sides of ``segments`` equal steps from ``tip``, from its far end."""
    steps = np.arange(segments + 1)[:, None] * (length / segments)
    up = tip + steps * [direction * math.cos(half_angle), math.sin(half_angle), 0.0]
    down = tip + steps[::-1] * [direction * math.cos(half_angle), -math.sin(half_angle), 0.0]
    return np.roll(np.concatenate((up, down[:-1])), -segments, axis=0)


def test_gauss_certificate_keeps_a_rounding_margin():
    # Needles tip to tip, 6e-7 apart along their common axis: A is 1e6
    # long, so its tip's midpoints lie about 1e6 from A's first point, the
    # point the integral moves both curves by, and B is four of A's
    # 22-unit steps long.  The half-length bound is tight here, and the
    # tips' squared midpoint distance can round up by about 1e-16 of the
    # scaled |m|², which lifts the bound by several MIN_CURVE_SEPARATION
    # (it certified the pair without the margin of ``floor``, with the
    # OpenBLAS matmul this was written against).
    step, half_angle = 1e6 / 45056, 0.25 / 45056
    a = G.PolyCurve3("A", needle(np.zeros(3), -1.0, 1e6, 45056, half_angle))
    b = G.PolyCurve3("B", needle(np.array([6e-7, 0.0, 0.0]), 1.0, 4 * step, 4, half_angle))
    assert a.magnitude * G._DISTANCE_ROUNDING < G.MIN_CURVE_SEPARATION
    with pytest.raises(InputError, match=r"too close to link \(distance 6e-07 <= 1e-06\)"):
        G.gauss_linking_integral(a, b)


def gauss_rounding_bound(a, b):
    """First-order bound on the Gram form's error: eps * sum |term| (|ma|² + |mb|²) / |ma - mb|².

    Midpoints are measured from ``a.points[0]``, as the kernel measures them.
    """
    a0, a1 = segments(a)
    b0, b1 = segments(b)
    ma = (a0 + a1) / 2.0 - a0[0]
    mb = (b0 + b1) / 2.0 - a0[0]
    diff = ma[:, None, :] - mb[None, :, :]
    dist2 = np.einsum("nmj,nmj->nm", diff, diff)
    cross = np.cross((a1 - a0)[:, None, :], (b1 - b0)[None, :, :])
    term = np.einsum("nmj,nmj->nm", diff, cross) / dist2**1.5
    weight = (np.sum(ma * ma, axis=1)[:, None] + np.sum(mb * mb, axis=1)[None, :]) / dist2
    return np.finfo(float).eps * float(np.sum(np.abs(term) * weight)) / (4.0 * math.pi)


@pytest.mark.parametrize("phase", [0.0, 0.3, 0.5, 0.9])
def test_gauss_integral_of_a_close_pair_matches_dense(phase):
    # Two linked unit circles passing 2e-3 apart (separation / size 1e-3)
    # at 1024 segments, where the Gram form's squared distances lose the
    # most digits.  The tolerance is 4x the first-order rounding bound:
    # the 5-term products add a few roundings of |mᵃ|² + |mᵇ|² each.
    # Measured here: at most a third of the bound, about 6e-12.
    t = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    shifted = t + phase * 2.0 * math.pi / 1024
    a = G.PolyCurve3("A", np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1))
    b = G.PolyCurve3(
        "B", np.stack([2e-3 + np.cos(shifted), np.zeros_like(t), np.sin(shifted)], axis=1)
    )
    assert G.curve_distance(a, b) < 2e-3
    error = abs(G.gauss_linking_integral(a, b) - dense_gauss_integral(a, b))
    assert error < 4.0 * gauss_rounding_bound(a, b)


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_gauss_integral_memory_is_row_blocked():
    a, b, _ = G.realize("torus-villarceau", segments=2048).curves
    assert _peak_mb(G.gauss_linking_integral, a, b) < 40.0


def test_curve_distance_memory_is_chunked():
    a, b, _ = G.realize("torus-villarceau", segments=G.MAX_SEGMENTS).curves
    assert _peak_mb(G.curve_distance, a, b) < 40.0


def test_projection_memory_is_pruned():
    r = G.realize("torus-villarceau", segments=G.MAX_SEGMENTS)
    strands = G._project_curves(r.curves, next(G._direction_candidates()))
    assert _peak_mb(D.diagram_from_strands, strands) < 20.0


@pytest.mark.parametrize("kind", G.REALIZE_KINDS)
def test_realize_builds_each_polylines_boxes_once(monkeypatch, capsys, kind):
    # Three curves, measured pairwise, and their three projected strands.
    built = []
    original = P._box_levels

    def counting(line, widen):
        built.append(line)
        return original(line, widen)

    monkeypatch.setattr(P, "_box_levels", counting)
    assert main(["realize", kind, "--segments", "256"]) == 0
    capsys.readouterr()
    assert len(built) == len({id(line) for line in built}) == 6
