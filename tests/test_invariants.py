import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trilink import geometry as G
from trilink.diagram import (
    BUILTIN_NAMES,
    Component,
    Crossing,
    LinkDiagram,
    Visit,
    assignment_from_index,
    assignment_from_text,
    builtin_diagram,
    flip_all_crossings,
    flip_crossings,
    remove_component,
    to_diagram,
)
from trilink.errors import CapacityError, DegeneracyError, InputError
from trilink.invariants import (
    THREE_UNLINK_BRACKET,
    TWO_UNLINK_BRACKET,
    EmbeddingType,
    _flip_brackets,
    _loop_factor_terms,
    classify,
    is_brunnian,
    kauffman_bracket,
    linking_numbers,
    normalized_invariant,
    pairwise_linking,
    signed_linking_numbers,
    writhe,
)
from trilink.laurent import LOOP_FACTOR, LaurentPoly, equal_up_to_inversion
from trilink.symmetry import (
    SymmetryElement,
    apply_action,
    orbit_partition,
    site_action,
)

ONE = LaurentPoly.one()


def bracket_of_states(contributions):
    """Assemble a bracket from (a_minus_b_exponent, loop_count) state data."""
    total = LaurentPoly.zero()
    for exponent, loops in contributions:
        term = LaurentPoly.monomial(1, exponent)
        for _ in range(loops - 1):
            term = term * LOOP_FACTOR
        total = total + term
    return total


class TestBracketOracles:
    def test_hopf_bracket_from_hand_enumeration(self):
        # Two crossings, four states.  Smoothing both crossings the same
        # way splits the picture into two loops; mixing gives one loop.
        hand_states = [
            (+2, 2),  # both first-type smoothings
            (0, 1),   # mixed
            (0, 1),   # mixed, other order
            (-2, 2),  # both second-type
        ]
        expected = bracket_of_states(hand_states)
        assert expected == LaurentPoly({4: -1, -4: -1})
        assert kauffman_bracket(builtin_diagram("hopf")) == expected

    def test_trefoil_against_independent_state_walker(self):
        # Oracle diagram: closure of the two-strand braid with three equal
        # crossings.  Slots per crossing: 0 under-entry (lower right),
        # 1 upper right, 2 upper left, 3 over-entry (lower left).  Strand
        # arcs join upper-left exits to the next lower-left entry and
        # upper-right exits to the next lower-right entry, wrapping around.
        arcs = {}
        for k in range(3):
            nxt = (k + 1) % 3
            for a, b in (((k, 2), (nxt, 3)), ((k, 1), (nxt, 0))):
                arcs[a] = b
                arcs[b] = a
        a_pairs = ((1, 2), (3, 0))
        b_pairs = ((0, 1), (2, 3))

        def loops_of_state(state):
            mate = {}
            for k in range(3):
                for s1, s2 in (a_pairs if (state >> k) & 1 else b_pairs):
                    mate[(k, s1)] = (k, s2)
                    mate[(k, s2)] = (k, s1)
            seen = set()
            loops = 0
            for dart in mate:
                if dart in seen:
                    continue
                loops += 1
                cur = dart
                while cur not in seen:
                    seen.add(cur)
                    partner = mate[cur]
                    seen.add(partner)
                    cur = arcs[partner]
            return loops

        states = []
        for state in range(8):
            a_count = bin(state).count("1")
            states.append((a_count - (3 - a_count), loops_of_state(state)))
        oracle = bracket_of_states(states)

        # The oracle braid and the parametric fixture may differ in
        # chirality, so compare up to inverting the variable.
        library = kauffman_bracket(builtin_diagram("trefoil"))
        assert equal_up_to_inversion(library, oracle)
        assert not equal_up_to_inversion(
            normalized_invariant(builtin_diagram("trefoil")), ONE
        )

    def test_golden_values(self):
        assert kauffman_bracket(builtin_diagram("unknot")) == ONE
        assert kauffman_bracket(builtin_diagram("unlink2")) == TWO_UNLINK_BRACKET
        assert kauffman_bracket(builtin_diagram("unlink3")) == THREE_UNLINK_BRACKET
        assert THREE_UNLINK_BRACKET == LaurentPoly({-4: 1, 0: 2, 4: 1})
        # The single kink is drawn with writhe +1; its bracket picks up -A^3.
        assert kauffman_bracket(builtin_diagram("twist-unknot")) == LaurentPoly({3: -1})
        assert kauffman_bracket(builtin_diagram("trefoil")) == LaurentPoly(
            {-7: 1, -3: -1, 5: -1}
        )

    def test_loop_factor_table(self):
        # Repeated multiplication, an independent path from ``__pow__``.
        power = ONE
        for n in range(17):
            assert _loop_factor_terms(n) == tuple(power.items())
            power = power * LOOP_FACTOR

    def test_capacity_limit(self):
        # A 17-crossing diagram trips the capacity check before any walk.
        from trilink.diagram import Crossing, Visit

        crossings = tuple(Crossing(1) for _ in range(17))
        visits = []
        for k in range(17):
            visits.append(Visit(k, 0))
            visits.append(Visit(k, 1))
        big = LinkDiagram(
            components=(Component("K", tuple(visits)),), crossings=crossings
        )
        with pytest.raises(CapacityError):
            kauffman_bracket(big)

    def test_empty_diagram_rejected(self):
        # No loop at all: the state sum has no term to normalize by.
        with pytest.raises(InputError, match="at least one component"):
            kauffman_bracket(LinkDiagram(components=(), crossings=()))


@functools.cache
def _realization64(kind):
    return G.realize(kind, segments=64)


@st.composite
def _flip_subjects(draw):
    """A builtin, or a seeded projection of a realization, cut or not, of at most 8 crossings."""
    name = draw(st.sampled_from(BUILTIN_NAMES + G.REALIZE_KINDS))
    if name in BUILTIN_NAMES:
        return builtin_diagram(name)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        d = G.diagram_from_curves(_realization64(name), rng.normal(size=3))
    except DegeneracyError:
        assume(False)
    cut = draw(st.sampled_from((None,) + d.component_labels()))
    if cut is not None:
        d = remove_component(d, cut)
    assume(d.crossing_count <= 8)
    return d


class TestFlipTable:
    """One state table gives the brackets of every crossing flip of a diagram."""

    # The VM's CPU speed switches between two levels about 1.6x apart, so this
    # test runs without a per-example deadline.
    @settings(deadline=None)
    @given(data=st.data())
    def test_a_drawn_flip_matches_the_contraction(self, data):
        d = data.draw(_flip_subjects())
        mask = data.draw(st.integers(0, (1 << d.crossing_count) - 1))
        assert _flip_brackets(d)[mask] == kauffman_bracket(flip_crossings(d, mask))

    @staticmethod
    def diagram(name):
        if name in BUILTIN_NAMES:
            return builtin_diagram(name)
        if name == "ellipses-cut-at-A":
            return remove_component(
                G.diagram_from_curves(G.realize("borromean-ellipses", segments=64)), "A"
            )
        return G.diagram_from_curves(G.realize("torus-villarceau", segments=64))

    @pytest.mark.parametrize(
        "name", BUILTIN_NAMES + ("ellipses-cut-at-A", "villarceau-64")
    )
    def test_no_flips_and_all_flips_match_the_contraction(self, name):
        # So does every mask between.
        d = self.diagram(name)
        table = _flip_brackets(d)
        assert len(table) == 1 << d.crossing_count
        assert table[0] == kauffman_bracket(d)
        assert table[-1] == kauffman_bracket(flip_all_crossings(d))
        assert flip_crossings(d, len(table) - 1) == flip_all_crossings(d)
        for mask, bracket in enumerate(table):
            assert bracket == kauffman_bracket(flip_crossings(d, mask)), mask


class TestWrithe:
    def test_unknot_writhe_zero(self):
        assert writhe(builtin_diagram("unknot")) == 0

    def test_twist_unknot_documented_writhe(self):
        assert writhe(builtin_diagram("twist-unknot")) == 1

    def test_trefoil_writhe(self):
        assert abs(writhe(builtin_diagram("trefoil"))) == 3

    def test_census_writhe_bounds(self, all_diagrams):
        for d in all_diagrams.values():
            assert -6 <= writhe(d) <= 6


class TestNormalizedInvariant:
    def test_twist_equals_unknot(self):
        assert normalized_invariant(builtin_diagram("twist-unknot")) == ONE
        assert normalized_invariant(builtin_diagram("unknot")) == ONE

    def test_unlink3_unchanged(self):
        assert normalized_invariant(builtin_diagram("unlink3")) == THREE_UNLINK_BRACKET

    def test_disjoint_loop_multiplies_by_loop_factor(self):
        for name in ("unknot", "hopf", "twist-unknot"):
            d = builtin_diagram(name)
            far_loop = Component(
                "Z",
                tuple(),
                tuple(
                    (9.0 + math.cos(2 * math.pi * k / 64), math.sin(2 * math.pi * k / 64))
                    for k in range(64)
                ),
            )
            extended = LinkDiagram(
                components=d.components + (far_loop,), crossings=d.crossings
            )
            assert kauffman_bracket(extended) == kauffman_bracket(d) * LOOP_FACTOR


class TestLinkingNumbers:
    def test_hopf_is_one(self):
        assert linking_numbers(builtin_diagram("hopf"))[frozenset("AB")] == 1
        assert pairwise_linking(builtin_diagram("hopf")).lk_ab == 1

    def test_unlink_is_zero(self):
        assert linking_numbers(builtin_diagram("unlink2"))[frozenset("AB")] == 0

    def test_height_stack_profile(self, all_diagrams):
        profile = pairwise_linking(all_diagrams[0b111100])
        assert profile == (0, 0, 0)
        assert profile.linked_pairs == 0

    def test_single_component_rejected(self):
        with pytest.raises(InputError):
            linking_numbers(builtin_diagram("unknot"))

    def test_census_values_are_zero_or_one(self, all_diagrams):
        for d in all_diagrams.values():
            assert set(pairwise_linking(d)) <= {0, 1}

    def test_signed_values_negate_under_crossing_flip(self, all_diagrams):
        assert signed_linking_numbers(builtin_diagram("hopf")) == {frozenset("AB"): -1}
        for d in all_diagrams.values():
            lks = signed_linking_numbers(d)
            assert signed_linking_numbers(flip_all_crossings(d)) == {
                pair: -lk for pair, lk in lks.items()
            }
            assert linking_numbers(d) == {pair: abs(lk) for pair, lk in lks.items()}

    def test_odd_sign_sum_raises_input_error(self):
        # Components A and B share one crossing, which no closed planar
        # curves can draw; the constructor does not validate it.
        d = LinkDiagram(
            components=(
                Component("A", (Visit(0, 0),)),
                Component("B", (Visit(0, 1),)),
            ),
            crossings=(Crossing(over_entry_slot=1),),
        )
        with pytest.raises(InputError, match="components A and B have an odd"):
            signed_linking_numbers(d)
        with pytest.raises(InputError, match="components A and B have an odd"):
            linking_numbers(d)

    def test_linked_pairs_constant_on_orbits(self, all_diagrams):
        for orbit in orbit_partition():
            counts = {
                pairwise_linking(all_diagrams[m.index]).linked_pairs
                for m in orbit.members
            }
            assert len(counts) == 1


class TestClassification:
    def test_height_stack_is_trivial(self, all_diagrams):
        assert classify(all_diagrams[0b111100]) is EmbeddingType.Trivial3

    def test_exactly_one_orbit_is_borromean(self, all_diagrams):
        orbits = orbit_partition()
        woven = [
            o
            for o in orbits
            if classify(all_diagrams[o.representative.index])
            is EmbeddingType.Borromean
        ]
        assert len(woven) == 1
        assert {m.word for m in woven[0].members} == {"000000", "111111"}

    def test_fully_linked_orbits_are_torus(self, all_diagrams):
        for index, d in all_diagrams.items():
            if pairwise_linking(d).linked_pairs == 3:
                assert classify(d) is EmbeddingType.TorusLink33

    def test_wrong_component_count_rejected(self):
        with pytest.raises(InputError):
            classify(builtin_diagram("hopf"))

    def test_rotation_leaves_bracket_unchanged(self, all_diagrams):
        rot = SymmetryElement("rot120", False)
        for index in range(64):
            asg = assignment_from_index(index)
            rotated = apply_action(site_action(rot), asg)
            assert kauffman_bracket(all_diagrams[index]) == kauffman_bracket(
                all_diagrams[rotated.index]
            )

    def test_mirror_relation_exhaustive(self, all_diagrams):
        for d in all_diagrams.values():
            assert kauffman_bracket(flip_all_crossings(d)) == kauffman_bracket(
                d
            ).substitute_inverse()


class TestBrunnian:
    def test_woven_depictions_are_brunnian(self, all_diagrams):
        assert is_brunnian(all_diagrams[0b000000])
        assert is_brunnian(all_diagrams[0b111111])

    def test_trivial_stack_is_not(self, all_diagrams):
        assert not is_brunnian(all_diagrams[0b111100])

    def test_chain_is_not(self, all_diagrams):
        chain = next(
            d
            for d in all_diagrams.values()
            if classify(d) is EmbeddingType.Chain3
        )
        assert not is_brunnian(chain)

    def test_borromean_cut_collapses(self, all_diagrams):
        for word in (0b000000, 0b111111):
            d = all_diagrams[word]
            for label in "ABC":
                reduced = remove_component(d, label)
                assert next(iter(linking_numbers(reduced).values())) == 0
                assert equal_up_to_inversion(
                    normalized_invariant(reduced), TWO_UNLINK_BRACKET
                )

    def test_torus_cut_stays_linked(self, all_diagrams):
        for index, d in all_diagrams.items():
            if classify(d) is not EmbeddingType.TorusLink33:
                continue
            for label in "ABC":
                reduced = remove_component(d, label)
                assert next(iter(linking_numbers(reduced).values())) == 1

    def test_wrong_component_count_rejected(self):
        with pytest.raises(InputError):
            is_brunnian(builtin_diagram("hopf"))
