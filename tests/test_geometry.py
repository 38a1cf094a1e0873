import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trilink import diagram as D
from trilink import geometry as G
from trilink import polyline as P
from trilink.errors import DegeneracyError, InputError
from trilink.invariants import (
    BRACKET_CROSSING_LIMIT,
    EmbeddingType,
    classify,
    is_brunnian,
    kauffman_bracket,
    linking_numbers,
    normalized_invariant,
    signed_linking_numbers,
)


@pytest.fixture(scope="module")
def villarceau():
    return G.realize("torus-villarceau", segments=256)


@pytest.fixture(scope="module")
def ellipses():
    return G.realize("borromean-ellipses", segments=256)


class TestRealize:
    def test_villarceau_roundness(self, villarceau):
        R = villarceau.params["R"]
        for curve in villarceau.curves:
            center, rmin, rmax, dev = G.circularity_stats(curve)
            assert dev < 1e-9
            assert abs(rmin - R) < 1e-9 and abs(rmax - R) < 1e-9

    def test_villarceau_curves_on_torus(self, villarceau):
        R, r = villarceau.params["R"], villarceau.params["r"]
        for curve in villarceau.curves:
            x, y, z = curve.points.T
            rho = np.sqrt(x * x + y * y)
            residual = np.abs((rho - R) ** 2 + z * z - r * r)
            assert residual.max() < 1e-9

    def test_villarceau_pairwise_linked(self, villarceau):
        for i in range(3):
            for j in range(i + 1, 3):
                lk = G.linking_number_3d(villarceau.curves[i], villarceau.curves[j])
                assert abs(lk) == 1

    def test_villarceau_disjoint(self, villarceau):
        assert G.validate_disjoint(villarceau) > 0.1

    def test_ellipses_disjoint(self, ellipses):
        assert G.validate_disjoint(ellipses) > 0.05

    def test_ellipses_unlinked_pairwise(self, ellipses):
        for i in range(3):
            for j in range(i + 1, 3):
                assert G.linking_number_3d(ellipses.curves[i], ellipses.curves[j]) == 0

    def test_ellipses_noncircular(self, ellipses):
        a, b = ellipses.params["a"], ellipses.params["b"]
        for curve in ellipses.curves:
            assert G.noncircularity_ratio(curve) >= a / b - 1e-9

    def test_parameter_validation(self):
        with pytest.raises(InputError, match="R > r > 0"):
            G.realize("torus-villarceau", R=1.0, r=2.0)
        with pytest.raises(InputError, match="a > b > 0"):
            G.realize("borromean-ellipses", a=0.5, b=0.8)
        with pytest.raises(InputError, match="segments"):
            G.realize("torus-villarceau", segments=16)
        with pytest.raises(InputError, match="unknown realization"):
            G.realize("granny-knot")
        with pytest.raises(InputError, match="unknown parameters"):
            G.realize("torus-villarceau", q=3.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters(self, value):
        with pytest.raises(InputError, match="parameters must be finite"):
            G.realize("torus-villarceau", R=value)
        with pytest.raises(InputError, match="parameters must be finite"):
            G.realize("borromean-ellipses", b=value)

    @pytest.mark.parametrize(
        "arguments",
        [
            {"segments": 100.0},
            {"segments": 256.5},
            {"segments": "256"},
            {"segments": None},
            {"segments": True},
            {"R": None},
            {"R": "2"},
            {"R": True},
            {"r": 1j},
        ],
        ids=repr,
    )
    def test_argument_types_rejected(self, arguments):
        with pytest.raises(InputError, match="must be an integer|must be a real number"):
            G.realize("torus-villarceau", **arguments)

    def test_numpy_scalars_accepted(self):
        r = G.realize("torus-villarceau", segments=np.int64(64), R=np.float64(2.5))
        assert r.params == {"R": 2.5, "r": 1.0}

    def test_unmeasurable_distance_rejected(self):
        # Finite curves of finite segments, farther apart than the largest float.
        t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        ring = 1e150 * np.stack([np.zeros_like(t), np.cos(t), np.sin(t)], axis=1)
        far = G.Realization3D(
            (G.PolyCurve3("A", ring + [1.5e308, 0.0, 0.0]), G.PolyCurve3("B", ring - [1.5e308, 0.0, 0.0])),
            "pair",
        )
        for check in (G.diagram_from_curves, G.validate_disjoint):
            with pytest.raises(InputError, match="distance of curves 'A' and 'B' is not finite"):
                check(far)

    def test_tiny_semi_axis_is_measured_too_close(self):
        # Semi-axes 1e150 and 1e-150: products of four coordinates would
        # overflow, but the kernel measures at a power-of-two scale.
        r = G.realize("borromean-ellipses", segments=64, a=1e150, b=1e-150)
        assert G.validate_disjoint(r) <= G.MIN_CURVE_SEPARATION
        with pytest.raises(InputError, match="too close to link"):
            G.diagram_from_curves(r)
        with pytest.raises(InputError, match="too close to link"):
            G.gauss_linking_integral(r.curves[0], r.curves[1])

    def test_segment_cap_fails_before_allocating(self):
        tracemalloc.start()
        try:
            for kind in G.REALIZE_KINDS:
                with pytest.raises(InputError, match="64..16384"):
                    G.realize(kind, segments=10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.MAX_SEGMENTS == 16384
        assert peak < 100_000


class TestDistanceCache:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``curve_distance`` call: ("decide", pair) with a reach, ("measure", pair) without."""
        made = []
        original = G.curve_distance

        def recording(a, b, reach=None):
            made.append(("measure" if reach is None else "decide", a.label + b.label))
            return original(a, b, reach)

        monkeypatch.setattr(G, "curve_distance", recording)
        return made

    def test_each_pair_measured_once(self, calls):
        # A measured pair is never decided: the distances that
        # validate_disjoint measures answer every later check.
        r = G.realize("torus-villarceau", segments=64)
        G.validate_disjoint(r)
        G.diagram_from_curves(r)
        for a, b in itertools.combinations(r.curves, 2):
            G.gauss_linking_integral(b, a)
        assert calls == [("measure", "AB"), ("measure", "AC"), ("measure", "BC")]

    def test_each_pair_decided_once_and_measured_once(self, calls):
        r = G.realize("torus-villarceau", segments=64)
        G.diagram_from_curves(r)
        G.gauss_linking_integral(r.curves[1], r.curves[0])
        G.validate_disjoint(r)
        G.diagram_from_curves(r)
        G.validate_disjoint(r)
        pairs = ["AB", "AC", "BC"]
        assert calls == [("decide", p) for p in pairs] + [("measure", p) for p in pairs]

    @pytest.mark.parametrize("kind", G.REALIZE_KINDS)
    def test_gauss_integrals_certify_every_pair(self, calls, kind):
        # The integrals' midpoint tables certify a fresh realization's
        # pairs, and the projection reads those verdicts.
        r = G.realize(kind, segments=256)
        pairs = list(itertools.combinations(r.curves, 2))
        for a, b in pairs:
            G.gauss_linking_integral(a, b)
        assert calls == []
        assert all(b in a.separated and a in b.separated for a, b in pairs)
        G.diagram_from_curves(r)
        assert calls == []

    def test_pair_within_reach_is_measured(self, calls, circle_pair):
        # Copies of a circle 1.5e-6 and 5e-7 above it: both are within the
        # decision's reach, so both are measured, and only the second fails.
        a = circle_pair("hopf", 64).curves[0]
        near = G.PolyCurve3("B", a.points + [0.0, 0.0, 1.5e-6])
        close = G.PolyCurve3("C", a.points + [0.0, 0.0, 5e-7])
        for _ in range(2):
            G._check_separation(a, near)
            with pytest.raises(InputError, match="too close to link"):
                G._check_separation(a, close)
        assert calls == [("decide", "AB"), ("measure", "AB"), ("decide", "AC"), ("measure", "AC")]

    def test_curves_die_with_their_realization(self):
        r = G.realize("torus-villarceau", segments=64)
        G.validate_disjoint(r)
        curves = [weakref.ref(curve) for curve in r.curves]
        del r
        gc.collect()
        assert [curve() for curve in curves] == [None, None, None]

    def test_long_lived_curve_keeps_no_partner_alive(self, villarceau):
        kept = villarceau.curves[0]
        partner = G.PolyCurve3("T", kept.points + 10.0)
        known = len(kept.distances)
        assert G.validate_disjoint(G.Realization3D((kept, partner), "pair")) > 1.0
        gone = weakref.ref(partner)
        del partner
        gc.collect()
        assert gone() is None
        assert len(kept.distances) == known


class TestLinkingNumbers3D:
    def test_hopf_circles(self, circle_pair):
        h = circle_pair("hopf", 256)
        assert abs(G.linking_number_3d(h.curves[0], h.curves[1])) == 1

    def test_separated_circles(self, circle_pair):
        s = circle_pair("separated", 128)
        assert G.linking_number_3d(s.curves[0], s.curves[1]) == 0

    def test_direction_independence(self, villarceau):
        rng = np.random.default_rng(20240601)
        values = set()
        for _ in range(10):
            d = rng.normal(size=3)
            values.add(
                G.linking_number_3d(
                    villarceau.curves[0], villarceau.curves[1], direction=d
                )
            )
        assert len(values) == 1

    def test_too_close_rejected(self):
        t = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        first = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        second = first + np.array([0.0, 0.0, 1e-9])
        a = G.PolyCurve3("A", first)
        b = G.PolyCurve3("B", second)
        with pytest.raises(InputError, match="too close"):
            G.linking_number_3d(a, b)
        with pytest.raises(InputError, match="too close"):
            G.gauss_linking_integral(a, b)


def mirrored(r):
    """The realization reflected in the xy-plane (z negated)."""
    curves = tuple(G.PolyCurve3(c.label, c.points * [1.0, 1.0, -1.0]) for c in r.curves)
    return G.Realization3D(curves=curves, kind=r.kind, params=dict(r.params))


class TestJointProjection:
    """One projection of all curves gives each pair's own linking number."""

    @pytest.mark.parametrize("name", ["villarceau", "ellipses", "hopf"])
    def test_agrees_with_pairwise_route_and_mirror(self, request, circle_pair, name):
        r = circle_pair("hopf", 256) if name == "hopf" else request.getfixturevalue(name)
        pairwise = {
            frozenset((a.label, b.label)): G.linking_number_3d(a, b)
            for a, b in itertools.combinations(r.curves, 2)
        }
        rng = np.random.default_rng(4242)
        generic = 0
        for _ in range(8):
            direction = rng.normal(size=3)
            try:
                joint = signed_linking_numbers(G.diagram_from_curves(r, direction))
                mirror = signed_linking_numbers(G.diagram_from_curves(mirrored(r), direction))
            except DegeneracyError:
                continue
            generic += 1
            assert joint == pairwise
            assert mirror == {pair: -lk for pair, lk in pairwise.items()}
        assert generic >= 5
        if name != "ellipses":
            assert all(abs(lk) == 1 for lk in pairwise.values())


class TestGaussIntegral:
    def test_hopf_within_tolerance_at_512(self, circle_pair):
        h = circle_pair("hopf", 512)
        lk = G.linking_number_3d(h.curves[0], h.curves[1])
        integral = G.gauss_linking_integral(h.curves[0], h.curves[1])
        assert abs(integral - lk) < 1e-3

    def test_separated_near_zero(self, circle_pair):
        s = circle_pair("separated", 512)
        assert abs(G.gauss_linking_integral(s.curves[0], s.curves[1])) < 1e-3

    def test_villarceau_cross_method_agreement(self):
        v = G.realize("torus-villarceau", segments=512)
        for i in range(3):
            for j in range(i + 1, 3):
                lk = G.linking_number_3d(v.curves[i], v.curves[j])
                integral = G.gauss_linking_integral(v.curves[i], v.curves[j])
                assert abs(integral - lk) < 1e-3
                assert round(integral) == lk

    def test_refinement_stability(self):
        # Doubling from the default segment count onward moves the value
        # by less than 1e-4 each time.
        previous = None
        for segments in (G.DEFAULT_SEGMENTS, 2 * G.DEFAULT_SEGMENTS, 4 * G.DEFAULT_SEGMENTS):
            r = G.realize("torus-villarceau", segments=segments)
            value = G.gauss_linking_integral(r.curves[0], r.curves[1])
            if previous is not None:
                assert abs(value - previous) < 1e-4
            previous = value

    def test_huge_realization_sums_as_the_default(self):
        # 2^349 times the default torus: exact scaling, and cubic numerators
        # of about 1e315 that would overflow unless the sum rescales.
        def gauss_values(r):
            return [G.gauss_linking_integral(a, b) for a, b in itertools.combinations(r.curves, 2)]

        huge = G.realize("torus-villarceau", segments=64, R=2.0**350, r=2.0**349)
        default = G.realize("torus-villarceau", segments=64, R=2.0, r=1.0)
        assert gauss_values(huge) == gauss_values(default)
        assert all(abs(value - 1.0) < 1e-2 for value in gauss_values(huge))

    def test_near_touching_pair_rejected(self):
        # Rings of radius 2^10 set 2^-12 apart, one stretched by 1 + 2^-40:
        # 2.4e-4 apart, so they pass the separation check, but their
        # relative squared separation (2^-44) leaves the Gram form's
        # squared distances a few digits: the sum was 45x the dense one.
        t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        ring = 2.0**10 * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        a = G.PolyCurve3("A", ring)
        b = G.PolyCurve3("B", ring * [1.0 + 2.0**-40, 1.0, 1.0] + [0.0, 0.0, 2.0**-12])
        assert G.curve_distance(a, b) > G.MIN_CURVE_SEPARATION
        with pytest.raises(InputError, match="Gauss integral .* is not resolved"):
            G.gauss_linking_integral(a, b)

    def test_unresolvable_relative_separation_rejected(self):
        # Parallel circles of radius 2^40 set 2^-10 apart: the check's
        # absolute separation holds, but their relative squared separation
        # (2^-100) is far below rounding, so the squared distances cancel.
        t = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        ring = 2.0**40 * np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        a = G.PolyCurve3("A", ring)
        b = G.PolyCurve3("B", ring + [0.0, 0.0, 2.0**-10])
        assert G.curve_distance(a, b) > G.MIN_CURVE_SEPARATION
        with pytest.raises(InputError, match="Gauss integral .* is not finite"):
            G.gauss_linking_integral(a, b)


class TestDiagramFromCurves:
    def test_villarceau_classifies_as_torus_link(self, villarceau):
        d = G.diagram_from_curves(villarceau)
        assert d.component_count == 3
        assert classify(d) is EmbeddingType.TorusLink33

    def test_ellipses_classify_as_borromean(self, ellipses):
        d = G.diagram_from_curves(ellipses)
        assert classify(d) is EmbeddingType.Borromean
        assert is_brunnian(d)

    def test_two_curve_sub_realization(self, villarceau):
        pair = G.Realization3D(villarceau.curves[:2], villarceau.kind)
        d = G.diagram_from_curves(pair)
        assert d.component_count == 2
        assert next(iter(linking_numbers(d).values())) == 1

    def test_explicit_degenerate_direction_fails(self, ellipses):
        # Looking straight down an ellipse's plane normal makes another
        # ellipse project edge-on, so the picture is non-generic.
        with pytest.raises(DegeneracyError):
            G.diagram_from_curves(ellipses, direction=np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "direction",
        [(0.3, math.nan, 0.9), (0.3, math.inf, 0.9), (0.3, 0.9), (0.3, 0.2, 0.9, 0.1)],
        ids=["nan", "inf", "two-components", "four-components"],
    )
    def test_bad_direction_rejected(self, ellipses, direction):
        with pytest.raises(InputError, match="nonzero finite 3-vector"):
            G.diagram_from_curves(ellipses, direction=np.array(direction))

    # The VM's CPU speed switches between two levels about 1.6x apart, so this
    # test runs without a per-example deadline.
    @settings(deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(G.REALIZE_KINDS),
        st.sampled_from([0.0, 0.004, 0.02]),
        st.integers(2, 4),
    )
    def test_invariants_agree_across_directions(self, seed, kind, noise, directions):
        # Projections of one perturbed realization along random directions
        # are diagrams of the same oriented link.
        rng = np.random.default_rng(seed)
        curves = tuple(
            G.PolyCurve3(c.label, c.points + noise * rng.normal(size=c.points.shape))
            for c in G.realize(kind, segments=64).curves
        )
        answers = []
        for _ in range(directions):
            try:
                d = G.diagram_from_curves(G.Realization3D(curves, kind), rng.normal(size=3))
            except DegeneracyError:
                assume(False)
            assume(d.crossing_count <= BRACKET_CROSSING_LIMIT)
            answers.append((normalized_invariant(d), signed_linking_numbers(d), classify(d)))
            mirror = kauffman_bracket(D.flip_all_crossings(d))
            assert mirror == kauffman_bracket(d).substitute_inverse()
        assert all(answer == answers[0] for answer in answers)
        lks = answers[0][1]
        for a, b in itertools.combinations(curves, 2):
            assert round(G.gauss_linking_integral(a, b)) == lks[frozenset((a.label, b.label))]

    def test_auto_direction_is_deterministic(self, ellipses):
        from trilink.diagram import diagram_to_text

        d1 = G.diagram_from_curves(ellipses)
        d2 = G.diagram_from_curves(ellipses)
        assert diagram_to_text(d1) == diagram_to_text(d2)


def _curves(scene, tag):
    return [points for t, points, _ in scene.curves if t == tag]


def _fitted_circle(points):
    """(center, radius, unit normal) of sampled points that all lie on one circle."""
    center = points.mean(axis=0)
    radii = np.linalg.norm(points - center, axis=1)
    assert radii.max() - radii.min() < 1e-9
    normal = np.cross(points[1] - points[0], points[2] - points[0])
    return center, float(radii.mean()), normal / np.linalg.norm(normal)


class TestScenes:
    def test_tangent_circles_structure(self):
        s = G.scene("tangent-circles")
        circles = [_fitted_circle(pts) for pts in _curves(s, "circle")]
        markers = [pos for tag, pos in s.markers if tag == "tangency"]
        arcs = _curves(s, "arc")
        assert len(circles) == 3
        assert len(markers) == 3
        assert len(arcs) == 3
        for marker in markers:
            distances = sorted(
                abs(math.dist(marker, center) - radius) for center, radius, _ in circles
            )
            assert distances[0] < 1e-9 and distances[1] < 1e-9
        for (center, radius, _), arc in zip(circles, arcs):
            # Each arc lies on its own circle.
            assert np.abs(np.linalg.norm(arc - center, axis=1) - radius).max() < 1e-9
        samples = [(len(pts), closed) for _, pts, closed in s.curves]
        assert samples == [(96, True)] * 3 + [(48, False)] * 3

    def test_tangent_circle_centers_at_distance_two(self):
        s = G.scene("tangent-circles")
        circles = [_fitted_circle(pts) for pts in _curves(s, "circle")]
        for i in range(3):
            for j in range(i + 1, 3):
                d = math.dist(circles[i][0], circles[j][0])
                assert abs(d - 2.0) < 1e-9

    def test_great_circles_share_center(self):
        s = G.scene("great-circles")
        ((sphere_center, sphere_radius),) = s.spheres
        circles = [_fitted_circle(pts) for pts in _curves(s, "circle")]
        assert len(circles) == 3
        for center, radius, _ in circles:
            assert math.dist(center, sphere_center) < 1e-12
            assert abs(radius - sphere_radius) < 1e-12
        normals = [normal for _, _, normal in circles]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(float(normals[i] @ normals[j])) < 1e-12

    def test_horn_torus_hole_degenerates(self):
        s = G.scene("horn-torus")
        patch = _curves(s, "patch")
        # Every fourth of the grid's 48 rows (25 points), then of its 25 columns (48 points).
        assert [len(pts) for pts in patch] == [25] * 12 + [48] * 7
        radii = np.linalg.norm(np.concatenate(patch), axis=1)
        assert radii.min() < 1e-9  # the inner hole closes to a point
        assert s.markers == (("cusp", (0.0, 0.0, 0.0)),)
        sweeps = [_fitted_circle(pts) for pts in _curves(s, "sweep")]
        assert len(sweeps) == 3
        for center, radius, _ in sweeps:
            # Every sweep circle passes through the shared point.
            assert abs(np.linalg.norm(center) - radius) < 1e-9

    def test_tangent_spheres(self):
        s = G.scene("tangent-spheres")
        assert s.curves == () and s.markers == ()
        spheres = s.spheres
        assert len(spheres) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                d = math.dist(spheres[i][0], spheres[j][0])
                assert abs(d - (spheres[i][1] + spheres[j][1])) < 1e-9

    def test_unknown_scene(self):
        with pytest.raises(InputError, match="unknown scene"):
            G.scene("klein-bottle")


class TestPolyCurveValidation:
    def test_too_few_points(self):
        with pytest.raises(InputError, match="at least 8"):
            G.PolyCurve3("X", np.zeros((4, 3)))

    def test_zero_length_segment(self):
        pts = np.array(
            [[math.cos(k), math.sin(k), 0.0] for k in range(8)]
        )
        pts[3] = pts[2]
        with pytest.raises(InputError, match="zero-length"):
            G.PolyCurve3("X", pts)

    def test_non_finite_points(self):
        pts = np.array([[math.cos(k), math.sin(k), 0.0] for k in range(8)])
        pts[5, 1] = math.nan
        with pytest.raises(InputError, match="points must be finite"):
            G.PolyCurve3("X", pts)

    def test_unmeasurable_segment(self):
        pts = np.array([[math.cos(k), math.sin(k), 0.0] for k in range(8)]) * 1e308
        with pytest.raises(InputError, match="segment too long to measure"):
            G.PolyCurve3("X", pts)

    @pytest.mark.parametrize(
        "points",
        [[["a", 0, 0]] * 8, [[0, 0, 0], [1, 1]] * 4],
        ids=["non-numeric", "ragged"],
    )
    def test_points_that_form_no_array(self, points):
        with pytest.raises(InputError, match="form no numeric array"):
            G.PolyCurve3("X", points)


class TestOddCrossingGuard:
    """Two distinct closed strands must cross an even number of times."""

    DIRECTION = np.array([0.3, 0.2, 0.93])

    @pytest.fixture
    def drop_one_meeting(self, monkeypatch):
        """Make every strand-pair meeting search lose one meeting between distinct strands."""
        original = P.segment_meetings

        def dropping(a, b, tol):
            meetings = original(a, b, tol)
            return meetings if a is b else meetings[1:]

        monkeypatch.setattr(P, "segment_meetings", dropping)

    @pytest.fixture
    def torus(self):
        r = G.realize("torus-villarceau", segments=64)
        assert classify(G.diagram_from_curves(r, direction=self.DIRECTION)) is EmbeddingType.TorusLink33
        return r

    def test_diagram_from_strands_rejects(self, torus, drop_one_meeting):
        strands = G._project_curves(torus.curves, self.DIRECTION)
        with pytest.raises(DegeneracyError, match="odd"):
            D.diagram_from_strands(strands)

    def test_diagram_from_curves_rejects(self, torus, drop_one_meeting):
        with pytest.raises(DegeneracyError, match="odd"):
            G.diagram_from_curves(torus, direction=self.DIRECTION)

    def test_linking_number_retries_then_raises(self, monkeypatch, circle_pair, drop_one_meeting):
        h = circle_pair("hopf", 64)
        attempts = []
        original = D.diagram_from_strands

        def counting(*args, **kwargs):
            attempts.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(G, "diagram_from_strands", counting)
        with pytest.raises(DegeneracyError, match="no generic projection direction found"):
            G.linking_number_3d(h.curves[0], h.curves[1])
        assert len(attempts) == G.MAX_DIRECTION_RETRIES
