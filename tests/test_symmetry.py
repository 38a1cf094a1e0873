import math
import re

import pytest

from trilink.diagram import (
    SITES,
    CrossingAssignment,
    all_assignments,
    assignment_from_index,
    assignment_from_text,
    to_diagram,
)
from trilink.errors import InputError
from trilink.symmetry import (
    SymmetryElement,
    apply_action,
    burnside_count,
    group_elements,
    orbit_of,
    orbit_partition,
    site_action,
)

ELEMENTS = group_elements()


def word_map(g):
    """Where ``g`` sends each of the 64 words, by index."""
    return tuple(apply_action(site_action(g), a).index for a in all_assignments())


WORD_MAPS = {g: word_map(g) for g in ELEMENTS}
IDENTITY_MAP = tuple(range(64))


def then(first, second):
    """The word map that applies ``first`` and then ``second``."""
    return tuple(second[i] for i in first)


class TestGroupStructure:
    def test_twelve_distinct_elements_identity_first(self):
        assert len(ELEMENTS) == 12
        assert len(set(ELEMENTS)) == 12
        assert ELEMENTS[0] == SymmetryElement("identity", False)
        assert len(set(WORD_MAPS.values())) == 12
        assert WORD_MAPS[ELEMENTS[0]] == IDENTITY_MAP

    def test_closure_from_generators(self):
        generators = [
            WORD_MAPS[SymmetryElement("rot120", False)],
            WORD_MAPS[SymmetryElement("refl_A", False)],
            WORD_MAPS[SymmetryElement("identity", True)],
        ]
        closure = {IDENTITY_MAP}
        frontier = list(closure)
        while frontier:
            f = frontier.pop()
            for h in generators:
                for product in (then(f, h), then(h, f)):
                    if product not in closure:
                        closure.add(product)
                        frontier.append(product)
        assert closure == set(WORD_MAPS.values())

    def test_rotation_has_order_three(self):
        rot = WORD_MAPS[SymmetryElement("rot120", False)]
        assert then(rot, rot) != IDENTITY_MAP
        assert then(rot, then(rot, rot)) == IDENTITY_MAP

    def test_every_element_has_inverse(self):
        maps = set(WORD_MAPS.values())
        for f in maps:
            assert any(then(f, g) == then(g, f) == IDENTITY_MAP for g in maps)

    def test_composition_closed_and_associative(self):
        maps = list(WORD_MAPS.values())
        for f in maps:
            for g in maps:
                assert then(f, g) in WORD_MAPS.values()
        for f in maps[:4]:
            for g in maps:
                for h in maps:
                    assert then(then(f, g), h) == then(f, then(g, h))


class TestSiteAction:
    def test_rotation_permutation_and_no_flips(self):
        action = site_action(SymmetryElement("rot120", False))
        assert action.site_perm == (2, 3, 4, 5, 0, 1)
        assert action.flip_mask == (False,) * 6

    def test_reflection_swaps_off_axis_pairs(self):
        action = site_action(SymmetryElement("refl_A", False))
        assert action.site_perm == (4, 5, 2, 3, 0, 1)

    def test_mirror_is_global_interchange(self):
        action = site_action(SymmetryElement("identity", True))
        assert action.site_perm == (0, 1, 2, 3, 4, 5)
        assert action.flip_mask == (True,) * 6

    def test_rotation_permutation_matches_rigid_motion(self):
        # Rotate the six site positions by 120 degrees and match positions.
        cos120, sin120 = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
        action = site_action(SymmetryElement("rot120", False))
        for site in SITES:
            x, y = site.position
            rx, ry = cos120 * x - sin120 * y, sin120 * x + cos120 * y
            image = SITES[action.site_perm[site.site_index]]
            assert math.hypot(rx - image.position[0], ry - image.position[1]) < 1e-9

    def test_reflection_permutation_matches_rigid_motion(self):
        action = site_action(SymmetryElement("refl_A", False))
        for site in SITES:
            x, y = site.position
            image = SITES[action.site_perm[site.site_index]]
            assert math.hypot(-x - image.position[0], y - image.position[1]) < 1e-9

    def test_rotations_preserve_depth_classes(self):
        for name in ("rot120", "rot240"):
            action = site_action(SymmetryElement(name, False))
            for i in range(6):
                assert action.site_perm[i] % 2 == i % 2  # inner<->inner, outer<->outer

    def _over_material(self, d):
        over = [None] * 6
        for comp in d.components:
            for visit in comp.visits:
                if visit.role == "over":
                    over[d.crossings[visit.crossing].site_index] = comp.label
        return over

    @pytest.mark.parametrize("index", [0, 0b111100, 0b010101, 0b000110, 0b101101])
    def test_action_agrees_with_geometric_transport(self, index):
        """Behavioral oracle for the flip masks.

        Transporting the material over/under data of a depiction through the
        rigid motion (plus interchange) must reproduce the depiction of the
        transformed word: at image site perm(i) the over strand is the
        relabeled image of the source over strand (of the source *under*
        strand when the global interchange is applied).
        """
        asg = assignment_from_index(index)
        base_over = self._over_material(to_diagram(asg))
        for g in ELEMENTS:
            action = site_action(g)
            labels = g.label_map()
            image_over = self._over_material(
                to_diagram(apply_action(action, asg))
            )
            for i in range(6):
                source = base_over[i]
                if g.mirror:
                    pair = SITES[i].pair
                    source = pair[0] if pair[1] == source else pair[1]
                assert image_over[action.site_perm[i]] == labels[source]


class TestApplyAction:
    def test_identity_example(self):
        asg = assignment_from_text("110100")
        assert apply_action(site_action(SymmetryElement("identity", False)), asg) == asg

    def test_mirror_example(self):
        asg = assignment_from_text("000000")
        out = apply_action(site_action(SymmetryElement("identity", True)), asg)
        assert out.word == "111111"

    def test_rotation_carries_bit_zero_to_site_two(self):
        asg = assignment_from_text("100000")
        out = apply_action(site_action(SymmetryElement("rot120", False)), asg)
        assert out.word == "001000"


class TestOrbits:
    def test_partition_covers_all_64(self):
        orbits = orbit_partition()
        assert sum(o.size for o in orbits) == 64
        seen = set()
        for orbit in orbits:
            for member in orbit.members:
                assert member.index not in seen
                seen.add(member.index)
        assert len(seen) == 64

    def test_ten_orbits(self):
        assert len(orbit_partition()) == 10

    def test_orbits_closed_under_all_actions(self):
        for orbit in orbit_partition():
            members = {m.index for m in orbit.members}
            for g in ELEMENTS:
                for m in orbit.members:
                    assert apply_action(site_action(g), m).index in members

    def test_representative_is_smallest(self):
        for orbit in orbit_partition():
            assert orbit.representative.index == min(m.index for m in orbit.members)

    def test_orbit_of_height_stack(self):
        orbit = orbit_of(assignment_from_text("111100"))
        assert orbit.size == 6
        assert orbit.representative.word == "000011"

    def test_orbit_of_alternating_word(self):
        orbit = orbit_of(assignment_from_text("000000"))
        assert {m.word for m in orbit.members} == {"000000", "111111"}

    def test_orbit_of_is_the_partition_orbit_of_every_member(self):
        for orbit in orbit_partition():
            for member in orbit.members:
                assert orbit_of(member) == orbit
                assert orbit_of(CrossingAssignment(tuple(map(int, member.bits)))) == orbit

    @pytest.mark.parametrize("bits", [(False,) * 5, (False,) * 7, [False] * 6])
    def test_orbit_of_rejects_a_malformed_assignment(self, bits):
        with pytest.raises(InputError, match="not found in any orbit"):
            orbit_of(CrossingAssignment(bits))

    @pytest.mark.parametrize("value", ["000000", 0, None])
    def test_orbit_of_rejects_a_non_assignment(self, value):
        with pytest.raises(InputError, match=re.escape(f"assignment {value!r} not found")):
            orbit_of(value)


class TestBurnside:
    def test_fixed_point_table_identity_and_interchange(self):
        count, table = burnside_count()
        assert table[SymmetryElement("identity", False)] == 64
        assert table[SymmetryElement("identity", True)] == 0

    def test_matches_direct_partition(self):
        count, _ = burnside_count()
        assert count == len(orbit_partition()) == 10


class TestBracketEquivariance:
    def test_image_bracket_is_the_bracket_or_its_inverse_exactly(self, census_records):
        # A reflection of the plane and the over/under interchange each mirror
        # the link, inverting A in its bracket; doing both keeps it.  "Equal or
        # inverse" would be weak: 56 of the 64 brackets are palindromic.
        reverses = {g: g.d3_part.startswith("refl") ^ g.mirror for g in ELEMENTS}
        assert sum(reverses.values()) == 6
        assert sum(r.bracket != r.bracket.substitute_inverse() for r in census_records) == 8
        wrong = []
        for g in ELEMENTS:
            for r, image in zip(census_records, WORD_MAPS[g]):
                expected = r.bracket.substitute_inverse() if reverses[g] else r.bracket
                if census_records[image].bracket != expected:
                    wrong.append((str(g), r.assignment.word))
        assert wrong == []
