import functools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trilink import geometry as G
from trilink.census import census_diagrams
from trilink.diagram import (
    BUILTIN_NAMES,
    CENTERS,
    CIRCLE_RADIUS,
    SITE_PAIRS,
    SITES,
    CrossingAssignment,
    _circle_diagram,
    _circle_intersections,
    assignment_from_index,
    assignment_from_text,
    builtin_diagram,
    diagram_from_strands,
    diagram_from_text,
    diagram_to_text,
    flip_all_crossings,
    flip_crossings,
    remove_component,
    to_diagram,
    validate_diagram,
)
from trilink.errors import DegeneracyError, InputError
from trilink.polyline import PlanarStrand


def _crossing_angles_oracle(circle, other):
    """Independent crossing finder: scan the circle for sign changes of the
    distance to the other circle, then bisect.  Avoids the closed-form
    intersection used by the implementation."""
    cx, cy = CENTERS[circle]
    ox, oy = CENTERS[other]
    r = CIRCLE_RADIUS

    def gap(theta):
        px, py = cx + r * math.cos(theta), cy + r * math.sin(theta)
        return math.hypot(px - ox, py - oy) - CIRCLE_RADIUS

    n = 4096
    roots = []
    for k in range(n):
        a = -math.pi + 2 * math.pi * k / n
        b = -math.pi + 2 * math.pi * (k + 1) / n
        if gap(a) == 0.0:
            roots.append(a)
        elif gap(a) * gap(b) < 0:
            lo, hi = a, b
            for _ in range(60):
                mid = (lo + hi) / 2
                if gap(lo) * gap(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append((lo + hi) / 2)
    return roots


def _visit_order(circle):
    """Crossing (= site) ids in the order the census diagram traverses ``circle``."""
    d = to_diagram(assignment_from_index(0))
    return tuple(v.crossing for v in d.component(circle).visits)


class TestCanonicalProjection:
    def test_site_and_circle_counts(self):
        assert len(SITES) == 6
        assert len(CENTERS) == 3

    def test_site_index_layout(self):
        for k, site in enumerate(SITES):
            assert site.site_index == k
            assert site.depth == ("inner" if k % 2 == 0 else "outer")
        pairs = [s.pair for s in SITES]
        assert pairs == [
            ("A", "B"), ("A", "B"),
            ("B", "C"), ("B", "C"),
            ("C", "A"), ("C", "A"),
        ]

    def test_inner_sites_closer_to_origin(self):
        for k in (0, 2, 4):
            inner = math.hypot(*SITES[k].position)
            outer = math.hypot(*SITES[k + 1].position)
            assert inner < outer

    def test_visit_orders_alternate_partners(self):
        for c in CENTERS:
            partners = []
            for idx in _visit_order(c):
                site = SITES[idx]
                partners.append(site.pair[0] if site.pair[1] == c else site.pair[1])
            assert partners[0] == partners[2]
            assert partners[1] == partners[3]
            assert partners[0] != partners[1]

    def test_visit_order_matches_independent_root_finder(self):
        # Circle A meets B and C alternately; recover the order by scanning.
        angles = []
        for other in ("B", "C"):
            for theta in _crossing_angles_oracle("A", other):
                angles.append((theta, other))
        angles.sort()
        assert len(angles) == 4
        sequence = [other for _, other in angles]
        assert sequence in (
            ["B", "C", "B", "C"],
            ["C", "B", "C", "B"],
        )
        # The implementation's visit order agrees with the scan.
        expected = []
        for idx in _visit_order("A"):
            site = SITES[idx]
            expected.append(site.pair[0] if site.pair[1] == "A" else site.pair[1])
        assert sequence == expected

    def test_bc_sites_on_vertical_axis(self):
        assert abs(SITES[2].position[0]) < 1e-12
        assert abs(SITES[3].position[0]) < 1e-12

    def test_no_triple_point(self):
        for site in SITES:
            on = 0
            for cx, cy in CENTERS.values():
                dist = math.hypot(site.position[0] - cx, site.position[1] - cy)
                if abs(dist - CIRCLE_RADIUS) < 1e-9:
                    on += 1
            assert on == 2

    def test_triple_point_layout_raises(self):
        # Radius 1.0 = CENTER_DISTANCE: all three circles pass through the origin.
        circles = [(label, center, 1.0) for label, center in CENTERS.items()]
        meetings = [
            (partner, lead, point, None)
            for lead, partner in SITE_PAIRS
            for point in _circle_intersections(CENTERS[lead], CENTERS[partner], 1.0)
        ]
        with pytest.raises(DegeneracyError, match="two crossings nearly coincide"):
            _circle_diagram(circles, meetings)

    def test_threefold_rotation_maps_sites_to_sites(self):
        cos120, sin120 = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
        positions = [s.position for s in SITES]
        for x, y in positions:
            rx, ry = cos120 * x - sin120 * y, sin120 * x + cos120 * y
            best = min(math.hypot(rx - px, ry - py) for px, py in positions)
            assert best < 1e-9

    def test_mirror_symmetry_maps_sites_to_sites(self):
        positions = [s.position for s in SITES]
        for x, y in positions:
            best = min(math.hypot(-x - px, y - py) for px, py in positions)
            assert best < 1e-9


class TestAssignments:
    def test_parse_zero_word(self):
        asg = assignment_from_text("000000")
        assert asg.bits == (False,) * 6

    def test_parse_alternating(self):
        asg = assignment_from_text("101010")
        assert asg.bits == (True, False, True, False, True, False)

    def test_length_error_names_length(self):
        with pytest.raises(InputError, match="length 7"):
            assignment_from_text("0101019")

    def test_character_error_names_position(self):
        with pytest.raises(InputError, match="position 3"):
            assignment_from_text("010x01")

    @pytest.mark.parametrize("index", [3.0, "3", True, -1, 64])
    def test_index_must_be_an_int_in_range(self, index):
        with pytest.raises(InputError, match=re.escape(f"0..63, got {index!r}")):
            assignment_from_index(index)

    @pytest.mark.parametrize("word", [123456, None])
    def test_word_must_be_a_str(self, word):
        with pytest.raises(InputError, match=f"must be a str, got {word!r}"):
            assignment_from_text(word)

    def test_index_reads_the_word_in_binary(self):
        for i in range(64):
            asg = assignment_from_index(i)
            ints = CrossingAssignment(tuple(int(bit) for bit in asg.bits))
            assert asg.index == ints.index == int(asg.word, 2) == int(ints.word, 2) == i

    @given(st.integers(min_value=0, max_value=63))
    def test_round_trip_through_text(self, index):
        asg = assignment_from_index(index)
        assert assignment_from_text(asg.word) == asg
        assert asg.index == index


class TestToDiagram:
    def test_height_stack_over_roles(self):
        d = to_diagram(assignment_from_text("111100"))
        over = _over_material(d)
        assert over[0] == "A" and over[1] == "A"  # AB sites
        assert over[2] == "B" and over[3] == "B"  # BC sites
        assert over[4] == "A" and over[5] == "A"  # CA sites: bit false, C not over

    def test_cyclic_dominance_at_zero_word(self):
        d = to_diagram(assignment_from_text("000000"))
        over = _over_material(d)
        assert over == ["B", "B", "C", "C", "A", "A"]

    @pytest.mark.parametrize("index", range(64))
    def test_census_shape(self, all_diagrams, index):
        d = all_diagrams[index]
        assert d.component_count == 3
        assert d.crossing_count == 6
        validate_diagram(d)
        shared = {}
        for comp in d.components:
            for visit in comp.visits:
                shared.setdefault(visit.crossing, []).append(comp.label)
        pair_counts = {}
        for labels in shared.values():
            assert len(labels) == 2
            pair_counts[frozenset(labels)] = pair_counts.get(frozenset(labels), 0) + 1
        assert pair_counts == {
            frozenset("AB"): 2,
            frozenset("BC"): 2,
            frozenset("CA"): 2,
        }

    @pytest.mark.parametrize("index", range(64))
    def test_equals_the_analytic_construction(self, index):
        asg = assignment_from_index(index)
        assert to_diagram(asg) == reference_to_diagram(asg)


def reference_to_diagram(asg):
    """The depiction of ``asg`` built site by site from the projection's geometry."""
    meetings = []
    for site in SITES:
        over, under = site.pair if asg.bits[site.site_index] else site.pair[::-1]
        meetings.append((over, under, site.position, site.site_index))
    circles = [(label, center, CIRCLE_RADIUS) for label, center in CENTERS.items()]
    return _circle_diagram(circles, meetings)


def _over_material(d):
    """Label of the circle passing over at each site of a census diagram."""
    over = [None] * 6
    for comp in d.components:
        for visit in comp.visits:
            if visit.role == "over":
                over[d.crossings[visit.crossing].site_index] = comp.label
    return over


class TestRemoveComponent:
    def test_census_cut_leaves_bc_sites(self, all_diagrams):
        d = remove_component(all_diagrams[0b111100], "A")
        assert d.component_count == 2
        assert d.crossing_count == 2
        validate_diagram(d)

    @pytest.mark.parametrize("label", ["A", "B"])
    def test_hopf_cut_gives_bare_loop(self, label):
        d = remove_component(builtin_diagram("hopf"), label)
        assert d.component_count == 1
        assert d.crossing_count == 0

    def test_unlink_cut(self):
        d = remove_component(builtin_diagram("unlink2"), "A")
        assert d.component_count == 1
        assert d.crossing_count == 0

    def test_unknown_label(self):
        with pytest.raises(InputError, match="valid labels"):
            remove_component(builtin_diagram("hopf"), "Z")

    @pytest.mark.parametrize("index", range(0, 64, 7))
    @pytest.mark.parametrize("label", ["A", "B", "C"])
    def test_no_dangling_strands(self, all_diagrams, index, label):
        d = remove_component(all_diagrams[index], label)
        validate_diagram(d)  # arc involution must cover every dart exactly once


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,components,crossings",
        [
            ("unknot", 1, 0),
            ("twist-unknot", 1, 1),
            ("trefoil", 1, 3),
            ("hopf", 2, 2),
            ("unlink2", 2, 0),
            ("unlink3", 3, 0),
        ],
    )
    def test_shapes(self, name, components, crossings):
        d = builtin_diagram(name)
        assert d.component_count == components
        assert d.crossing_count == crossings
        validate_diagram(d)

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(InputError) as err:
            builtin_diagram("granny")
        for name in BUILTIN_NAMES:
            assert name in str(err.value)

    def test_trefoil_alternates(self):
        d = builtin_diagram("trefoil")
        roles = [v.role for v in d.components[0].visits]
        assert all(roles[i] != roles[(i + 1) % len(roles)] for i in range(len(roles)))


class TestDiagramFromStrands:
    def test_depth_count_must_match_points(self):
        # An inner-loop limacon that crosses itself once, with too few depths.
        thetas = [2.0 * math.pi * k / 64 for k in range(64)]
        points = tuple(
            ((0.5 + math.cos(t)) * math.cos(t), (0.5 + math.cos(t)) * math.sin(t))
            for t in thetas
        )
        depths = tuple(math.sin(t) for t in thetas[:10])
        with pytest.raises(InputError, match="strand 'K' has 64 points but 10 depths"):
            diagram_from_strands([PlanarStrand("K", points, depths)])

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_strand_needs_three_points(self, count):
        points = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))[:count]
        depths = (0.0, 0.5, 1.0)[:count]
        thetas = [2.0 * math.pi * k / 16 for k in range(16)]
        circle = PlanarStrand(
            "C", tuple((math.cos(t), math.sin(t)) for t in thetas), (0.0,) * 16
        )
        with pytest.raises(InputError, match=f"strand 'K' has {count} points; a closed"):
            diagram_from_strands([circle, PlanarStrand("K", points, depths)])

    @staticmethod
    def crossing_circles():
        """A unit circle C, and the points and depths of a circle K that crosses it twice."""
        thetas = [2.0 * math.pi * k / 16 for k in range(16)]
        circle = PlanarStrand(
            "C", tuple((math.cos(t), math.sin(t)) for t in thetas), (1.0,) * 16
        )
        return circle, [(1.0 + math.cos(t), math.sin(t)) for t in thetas], [0.0] * 16

    @pytest.mark.parametrize(
        "vertex, depth, message",
        [
            ((2.0, 0.0), 0.0, None),
            ((math.nan, 0.0), 0.0, "needs finite"),
            ((math.inf, 0.0), 0.0, "needs finite"),
            ((2.0,), 0.0, "numeric array"),
            (("2", "zero"), 0.0, "numeric array"),
            ((2.0, 0.0), math.nan, "needs finite"),
            ((2.0, 0.0), -math.inf, "needs finite"),
        ],
        ids=["valid", "nan-vertex", "inf-vertex", "ragged", "text", "nan-depth", "inf-depth"],
    )
    def test_vertex_and_depth_must_be_finite_numbers(self, vertex, depth, message):
        circle, points, depths = self.crossing_circles()
        points[0], depths[0] = vertex, depth
        if message is None:
            strands = [circle, PlanarStrand("K", tuple(points), tuple(depths))]
            assert diagram_from_strands(strands).crossing_count == 2
            return
        with pytest.raises(InputError, match=f"strand 'K' .*{message}"):
            diagram_from_strands([circle, PlanarStrand("K", tuple(points), tuple(depths))])

    def test_three_coordinate_vertices_rejected(self):
        circle, points, depths = self.crossing_circles()
        points = tuple((x, y, 0.5) for x, y in points)
        with pytest.raises(InputError, match=r"strand 'K' needs finite \(x, y\) points"):
            diagram_from_strands([circle, PlanarStrand("K", points, tuple(depths))])

    def test_repeated_label_rejected(self):
        thetas = [2.0 * math.pi * k / 16 for k in range(16)]

        def circle(cx):
            points = tuple((cx + math.cos(t), math.sin(t)) for t in thetas)
            return PlanarStrand("B", points, (0.0,) * 16)

        with pytest.raises(InputError, match="component labels repeat: B, B"):
            diagram_from_strands([circle(0.0), circle(3.0)])


class TestFlipAllCrossings:
    @pytest.mark.parametrize("index", range(0, 64, 5))
    def test_flip_is_involution(self, all_diagrams, index):
        d = all_diagrams[index]
        assert flip_all_crossings(flip_all_crossings(d)) == d

    def test_flip_swaps_roles(self, all_diagrams):
        d = all_diagrams[0]
        flipped = flip_all_crossings(d)
        for comp, fcomp in zip(d.components, flipped.components):
            for v, fv in zip(comp.visits, fcomp.visits):
                assert {v.role, fv.role} == {"over", "under"}


@functools.cache
def _flip_subject(name):
    """A builtin by name, or the default projection of a realization kind."""
    if name in BUILTIN_NAMES:
        return builtin_diagram(name)
    return G.diagram_from_curves(G.realize(name))


class TestFlipCrossings:
    @pytest.mark.parametrize("name", BUILTIN_NAMES + G.REALIZE_KINDS)
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_masks_compose_by_xor(self, name, data):
        d = _flip_subject(name)
        masks = st.integers(0, (1 << d.crossing_count) - 1)
        m1, m2 = data.draw(masks), data.draw(masks)
        assert flip_crossings(d, 0) == d
        assert flip_crossings(flip_crossings(d, m1), m1) == d
        assert flip_crossings(flip_crossings(d, m1), m2) == flip_crossings(d, m1 ^ m2)

    @pytest.mark.parametrize("mask", [64, -1, 1.5, True])
    def test_mask_must_be_an_int_below_two_to_the_crossings(self, mask):
        # Mask 64 used to return the diagram unflipped and -1 to flip all six.
        with pytest.raises(InputError, match=re.escape(f"0..63, got {mask!r}")):
            flip_crossings(census_diagrams()[5], mask)

    @pytest.mark.parametrize("name", ("trefoil", "hopf"))
    def test_mask_reads_like_a_word(self, name):
        # Crossing k is bit c - 1 - k, so 1 << (c - 1 - k) flips crossing k only.
        d = _flip_subject(name)
        c = d.crossing_count
        for k in range(c):
            flipped = flip_crossings(d, 1 << (c - 1 - k))
            assert [j for j in range(c) if flipped.crossings[j] != d.crossings[j]] == [k]


class TestExportFormat:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_round_trip_builtins(self, name):
        d = builtin_diagram(name)
        again = diagram_from_text(diagram_to_text(d))
        assert again.crossing_count == d.crossing_count
        assert again.component_labels() == d.component_labels()
        assert [
            [(v.crossing, v.entry_slot) for v in comp.visits]
            for comp in again.components
        ] == [
            [(v.crossing, v.entry_slot) for v in comp.visits]
            for comp in d.components
        ]

    def test_round_trip_census(self, all_diagrams):
        d = all_diagrams[0b010101]
        again = diagram_from_text(diagram_to_text(d))
        assert [c.site_index for c in again.crossings] == [
            c.site_index for c in d.crossings
        ]

    def test_header_is_versioned(self, all_diagrams):
        assert diagram_to_text(all_diagrams[0]).startswith("trilink-diagram v1\n")

    def test_rejects_unversioned_text(self):
        with pytest.raises(InputError, match="header"):
            diagram_from_text("components 1\n")


_HOPF_TEXT = diagram_to_text(builtin_diagram("hopf"))

# Three components that share one crossing per pair: every other rule holds.
_ODD_SHARED_TEXT = """trilink-diagram v1
components 3
component A : 0.0 2.1
component B : 0.1 1.0
component C : 1.1 2.0
crossings 3
crossing 0 : over-entry 1
crossing 1 : over-entry 1
crossing 2 : over-entry 1
"""


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("component A : 1.0 0.3", "component A : x.1 0.3", id="non-numeric-crossing"),
        pytest.param("component A : 1.0 0.3", "component A : 1 0.3", id="visit-without-slot"),
        pytest.param("crossing 0 : over-entry 3 pos", "crossing 0 : site 2 pos", id="no-over-entry"),
        pytest.param(
            "crossing 1 : over-entry 3 pos 0 -0.62449979984", "crossing 1 : over-entry",
            id="over-entry-at-line-end",
        ),
        pytest.param("crossing 0 : over-entry 3", "crossing 0 : over-entry 2", id="over-entry-slot-2"),
        pytest.param("pos 0 -0.62449979984", "pos 0", id="one-coordinate"),
        pytest.param("components 2", "components two", id="non-numeric-count"),
        pytest.param("components 2", "components 3", id="component-count-disagrees"),
        pytest.param("crossings 2", "crossings 1", id="crossing-count-disagrees"),
        pytest.param(_HOPF_TEXT, _ODD_SHARED_TEXT, id="odd-crossings-between-components"),
        pytest.param("crossing 0 : over-entry 3", "crossing 0 junk over-entry 3", id="unknown-token"),
        pytest.param("crossing 0 : over-entry 3", "crossing 0 over-entry 3", id="no-colon"),
        pytest.param("pos 0 0.62449979984\n", "pos 0 0.62449979984 colour 7\n", id="trailing-field"),
        pytest.param(
            "over-entry 3 pos 0 0.62449979984",
            "over-entry 3 site 1 pos 0 -0.5 site 9 pos 0 0.62449979984",
            id="repeated-site-and-pos",
        ),
        pytest.param(
            "over-entry 3 pos 0 0.62449979984", "pos 0 0.62 over-entry 3", id="fields-out-of-order"
        ),
        pytest.param("pos 0 0.62449979984", "pos 0 1e999", id="infinite-coordinate"),
        pytest.param("components 2\n", "components 2\ncomponents 2\n", id="repeated-count"),
    ],
)
def test_malformed_text_raises_input_error(old, new):
    assert old in _HOPF_TEXT
    with pytest.raises(InputError):
        diagram_from_text(_HOPF_TEXT.replace(old, new))


@pytest.mark.parametrize("edit", ["wrong-number", "out-of-order", "repeated-number"])
def test_crossing_lines_must_be_numbered_in_order(all_diagrams, edit):
    lines = diagram_to_text(all_diagrams[0b111000]).splitlines()
    k = lines.index("crossings 6") + 1
    if edit == "wrong-number":
        lines[k + 5] = lines[k + 5].replace("crossing 5 ", "crossing 9 ")
    elif edit == "out-of-order":
        # Crossings 0 and 2 both have over-entry 3: listed 2 before 0, they
        # used to be read with their sites and positions exchanged.
        lines[k], lines[k + 2] = lines[k + 2], lines[k]
    else:
        lines[k + 1] = lines[k + 1].replace("crossing 1 ", "crossing 0 ")
    with pytest.raises(InputError, match="expected crossing"):
        diagram_from_text("\n".join(lines))


@pytest.mark.parametrize(
    "index, old",
    [
        # Without the label check, the bracket of the cut loops forever ...
        pytest.param(0b000011, "component C", id="000011-C-as-B"),
        # ... or raises a bare KeyError.
        pytest.param(0b000000, "component A", id="000000-A-as-B"),
    ],
)
def test_repeated_component_label_raises_input_error(all_diagrams, index, old):
    text = diagram_to_text(all_diagrams[index])
    assert text.count(old) == 1
    with pytest.raises(InputError, match="component labels repeat"):
        diagram_from_text(text.replace(old, "component B"))


_VALID_RECORDS = [diagram_to_text(d) for d in census_diagrams()] + [
    diagram_to_text(builtin_diagram(name)) for name in BUILTIN_NAMES
]
_INSERTED_TOKENS = (
    "junk", ":", "0", "3", "-1", "0.5", "1.0", "site", "pos", "over-entry", "crossing",
)


@st.composite
def mutated_records(draw):
    """A valid record with 1-3 edits: a token dropped, duplicated or inserted,
    two lines swapped, or a number edited."""
    lines = [line.split() for line in draw(st.sampled_from(_VALID_RECORDS)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "duplicate", "insert", "swap", "number"]))
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k]
        if edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif edit == "insert":
            token = draw(st.sampled_from(_INSERTED_TOKENS))
            tokens.insert(draw(st.integers(0, len(tokens))), token)
        elif edit == "number":
            numbers = [i for i, token in enumerate(tokens) if any(map(str.isdigit, token))]
            if numbers:
                i = draw(st.sampled_from(numbers))
                pos = draw(st.integers(0, len(tokens[i]) - 1))
                ch = draw(st.sampled_from("0123456789.-e"))
                tokens[i] = tokens[i][:pos] + ch + tokens[i][pos + 1:]
        elif tokens:
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i:i + 1] = [] if edit == "drop" else [tokens[i], tokens[i]]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


# The VM's CPU speed switches between two levels about 1.6x apart, so this
# test runs without a per-example deadline.
@settings(deadline=None)
@given(mutated_records())
# A coordinate with more digits than a record is written with.
@example(_HOPF_TEXT.replace("pos 0 -0.62449979984", "pos 0 50.62449979984"))
def test_mutated_record_is_rejected_or_round_trips(text):
    try:
        d = diagram_from_text(text)
    except InputError:
        return
    assert diagram_from_text(diagram_to_text(d)) == d
