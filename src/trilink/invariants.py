"""Link invariants: linking numbers, the bracket state sum, classification.

The bracket of a diagram with c crossings is a sum over its 2^c
smoothing states.  Each crossing contributes a factor of the variable
(first smoothing) or its inverse (second smoothing), and a state that
closes up into L loops contributes loop_factor^(L-1), where
loop_factor = -A^2 - A^-2.  The empty-crossing unknot has bracket 1.
One contraction traces the states: it places the crossings one at a time
and counts partial states that join the open ends of the placed crossings
alike together (Kauffman 1987; Bar-Natan 2007).  An A-smoothed crossing
adds its weight to the state's key: 1 for the bracket, a bit of its own
to key the census's table of every crossing flip (``_flip_brackets``:
packed popcount histograms, one state sum per distinct histogram).

Smoothing convention, matched to the slot layout of
:mod:`trilink.diagram` (slots counterclockwise, under-strand on 0/2):
the A-smoothing joins slot pairs (1,2) and (3,0); the B-smoothing joins
(0,1) and (2,3).  Together with the sign rule (positive iff the
over-strand enters at slot 1) this makes the writhe-normalized bracket
invariant under the single-kink move: a +1 kink has bracket -A^3.
"""

from __future__ import annotations

import collections
import enum
import functools
import itertools
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .diagram import SITE_PAIRS, LinkDiagram, remove_component
from .errors import CapacityError, InputError
from .laurent import LOOP_FACTOR, LaurentPoly, equal_up_to_inversion

BRACKET_CROSSING_LIMIT = 16

#: Slot joined to each slot by the A-smoothing (pairs (1,2), (3,0)) and
#: by the B-smoothing (pairs (0,1), (2,3)).
_A_SMOOTH_SLOT = (3, 2, 1, 0)
_B_SMOOTH_SLOT = (1, 0, 3, 2)

#: The linking profile's pair keys: AB, BC, CA.
_SITE_PAIR_KEYS = tuple(map(frozenset, SITE_PAIRS))

#: Bracket of the 2-component unlink.
TWO_UNLINK_BRACKET = LOOP_FACTOR
#: Bracket of the 3-component unlink.
THREE_UNLINK_BRACKET = LOOP_FACTOR * LOOP_FACTOR


class EmbeddingType(enum.Enum):
    """The five embedding types of the census."""

    TorusLink33 = "TorusLink33"
    Chain3 = "Chain3"
    HopfWithSplit = "HopfWithSplit"
    Trivial3 = "Trivial3"
    Borromean = "Borromean"

    def __str__(self) -> str:
        return self.value


class LinkingProfile(NamedTuple):
    """Absolute pairwise linking numbers of a diagram with labels among A, B, C."""

    lk_ab: int
    lk_bc: int
    lk_ca: int

    @property
    def linked_pairs(self) -> int:
        return sum(1 for v in self if v)

    def __str__(self) -> str:
        return f"{self.lk_ab},{self.lk_bc},{self.lk_ca}"


def writhe(d: LinkDiagram) -> int:
    """Sum of all crossing signs under the component orientations."""
    return sum(c.sign for c in d.crossings)


def signed_linking_numbers(d: LinkDiagram) -> dict[frozenset[str], int]:
    """Signed linking number of every unordered pair of distinct components.

    Each is half the signed sum of the crossings the pair shares; an odd
    sum, which no closed planar curves can draw, raises :class:`InputError`.
    """
    sums: dict[frozenset[str], int] = {}
    pair_key: dict[tuple[str, str], frozenset[str]] = {}
    for first, second in itertools.combinations(d.component_labels(), 2):
        key = pair_key[first, second] = pair_key[second, first] = frozenset((first, second))
        sums[key] = 0
    first_label: dict[int, str] = {}
    for comp in d.components:
        for visit in comp.visits:
            other = first_label.setdefault(visit.crossing, comp.label)
            if other != comp.label:
                sums[pair_key[other, comp.label]] += d.crossings[visit.crossing].sign
    for pair, total in sums.items():
        if total % 2:
            first, second = sorted(pair)
            raise InputError(
                f"components {first} and {second} have an odd crossing-sign sum {total}"
            )
    return {pair: total // 2 for pair, total in sums.items()}


def linking_numbers(d: LinkDiagram) -> dict[frozenset[str], int]:
    """Absolute linking number of every unordered component pair."""
    if d.component_count < 2:
        raise InputError("linking numbers need at least two components")
    return {pair: abs(lk) for pair, lk in signed_linking_numbers(d).items()}


def pairwise_linking(d: LinkDiagram) -> LinkingProfile:
    """Linking profile over the site pairs AB, BC, CA (absent pairs count 0)."""
    numbers = linking_numbers(d)
    return LinkingProfile(*(numbers.get(key, 0) for key in _SITE_PAIR_KEYS))


def kauffman_bracket(d: LinkDiagram) -> LaurentPoly:
    """Bracket state sum of the diagram (exact integer arithmetic).

    Each (A-smoothing count, loops) entry of :func:`_smoothing_tally` is
    multiplied by its power of the loop factor once.
    """
    c = d.crossing_count
    if c > BRACKET_CROSSING_LIMIT:
        raise CapacityError(
            f"bracket state sum limited to {BRACKET_CROSSING_LIMIT} crossings, got {c}"
        )
    if not d.components:
        raise InputError("the bracket needs at least one component")
    return _state_sum(_smoothing_tally(d, [1] * c), c)


def _smoothing_tally(d: LinkDiagram, a_steps: list[int]) -> dict[tuple[int, int], int]:
    """States of ``d`` tallied by (sum of ``a_steps[k]`` over A-smoothed k, loops).

    Dart ``4k + slot`` is slot ``slot`` of crossing ``k``.  The crossings
    are contracted one at a time in :func:`_contraction_order`.  A partial
    state is the pairing of the open darts (placed darts whose arc leads
    to an unplaced crossing) by the paths through the placed smoothings;
    for each pairing the states are tallied by (key, closed loops).
    """
    c = d.crossing_count
    arc_mate = [0] * (4 * c)
    for (k, slot), (k2, slot2) in d.arc_mates().items():
        arc_mate[4 * k + slot] = 4 * k2 + slot2

    # Pairing (partner position of each open dart) -> {(A key, loops): states}.
    states: dict[tuple[int, ...], dict[tuple[int, int], int]] = {
        (): {(0, d.free_component_count()): 1}
    }
    open_darts: list[int] = []
    for k in _contraction_order(arc_mate):
        # Nodes 0..n-1 are the open darts, n..n+3 the slots of crossing k.
        # ``arc`` joins a slot to the open dart or slot at its arc's other
        # end; the nodes left unjoined are the new open darts, ``ends``.
        n = len(open_darts)
        position = {dart: i for i, dart in enumerate(open_darts)}
        arc = [-1] * (n + 4)
        for slot in range(4):
            mate = arc_mate[4 * k + slot]
            if mate in position:
                arc[n + slot], arc[position[mate]] = position[mate], n + slot
            elif mate // 4 == k:
                arc[n + slot] = n + mate % 4
        ends = [v for v in range(n + 4) if arc[v] < 0]
        joined = [v for v in range(n + 4) if arc[v] >= 0]
        new_position = {v: i for i, v in enumerate(ends)}
        open_darts = [open_darts[v] if v < n else 4 * k + v - n for v in ends]

        contracted: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for smooth_slot, a_step in ((_A_SMOOTH_SLOT, a_steps[k]), (_B_SMOOTH_SLOT, 0)):
            smooth = tuple(n + m for m in smooth_slot)
            for pairing, tally in states.items():
                # A path alternates inner edges (pairing or smoothing) and arcs.
                inner = pairing + smooth
                visited = bytearray(n + 4)
                paired = [0] * len(ends)
                for v in ends:
                    if visited[v]:
                        continue
                    w = inner[v]
                    while arc[w] >= 0:
                        visited[w] = 1
                        w = arc[w]
                        visited[w] = 1
                        w = inner[w]
                    visited[v] = visited[w] = 1
                    paired[new_position[v]] = new_position[w]
                    paired[new_position[w]] = new_position[v]
                closed = 0
                for v in joined:
                    if visited[v]:
                        continue
                    closed += 1
                    while not visited[v]:
                        visited[v] = 1
                        v = arc[v]
                        visited[v] = 1
                        v = inner[v]
                target = contracted.setdefault(tuple(paired), {})
                for (a_key, loops), count in tally.items():
                    key = (a_key + a_step, loops + closed)
                    target[key] = target.get(key, 0) + count
        states = contracted
    return states[()]


def _state_sum(tally: dict[tuple[int, int], int], c: int) -> LaurentPoly:
    """Sum of ``count`` states A^(2a - c) loop_factor^(loops - 1) per ``(a, loops): count``."""
    terms: dict[int, int] = {}
    for (a_count, loops), count in tally.items():
        shift = 2 * a_count - c
        for exp, coeff in _loop_factor_terms(loops - 1):
            terms[exp + shift] = terms.get(exp + shift, 0) + coeff * count
    return LaurentPoly(terms)


def _flip_brackets(d: LinkDiagram) -> tuple[LaurentPoly, ...]:
    """Brackets of ``flip_crossings(d, m)`` for every mask m, indexed by m.

    A flip turns a crossing's slot labels by an odd step, swapping its A- and
    B-smoothings.  So if the state A-smoothing the crossings in t has L(t)
    loops, flip m has bracket sum_t A^(2|t xor m| - c) loop_factor^(L(t) - 1):
    one tally keyed by t, one state per key, serves all 2^c flips.  The sum
    depends on m only via each loop count's histogram of |t xor m|, packed in
    (c+1)-bit digits that never carry (C(c, h) <= 2^c); one state sum per key.
    """
    c = d.crossing_count
    digit = [1 << (c + 1) * t.bit_count() for t in range(1 << c)]
    by_loops = collections.defaultdict(list)
    for t, loops in _smoothing_tally(d, [1 << (c - 1 - k) for k in range(c)]):
        by_loops[loops].append(t)
    keys = [tuple(sum([digit[t ^ m] for t in ts]) for ts in by_loops.values())
            for m in range(1 << c)]
    brackets = {
        key: _state_sum({
            (h, loops): packed >> (c + 1) * h & (2 << c) - 1
            for loops, packed in zip(by_loops, key) for h in range(c + 1)
        }, c)
        for key in set(keys)
    }
    return tuple(map(brackets.__getitem__, keys))


@functools.cache
def _loop_factor_terms(n: int) -> tuple[tuple[int, int], ...]:
    """The terms of ``LOOP_FACTOR ** n``, built once per process for each ``n``."""
    return tuple((LOOP_FACTOR ** n).items())


def _contraction_order(arc_mate: list[int]) -> Iterator[int]:
    """Crossings in contraction order: each next one has the most arcs into those placed.

    Ties go to the lowest index.
    """
    links = [0] * (len(arc_mate) // 4)
    unplaced = list(range(len(links)))
    while unplaced:
        k = max(unplaced, key=links.__getitem__)
        unplaced.remove(k)
        for dart in range(4 * k, 4 * k + 4):
            links[arc_mate[dart] // 4] += 1
        yield k


def normalized_invariant(d: LinkDiagram) -> LaurentPoly:
    """Writhe-normalized bracket: (-A^3)^(-w) times the bracket."""
    return _normalized(kauffman_bracket(d), d)


def _normalized(bracket: LaurentPoly, d: LinkDiagram) -> LaurentPoly:
    """``bracket``, the bracket of ``d``, times (-A^3)^(-w) for the writhe w of ``d``."""
    w = writhe(d)
    return bracket * LaurentPoly.monomial(-1 if w % 2 else 1, -3 * w)


def classify(d: LinkDiagram) -> EmbeddingType:
    """Embedding type of a 3-component diagram (see :func:`embedding_type`)."""
    if d.component_count != 3:
        raise InputError(
            f"classification needs a 3-component diagram, got {d.component_count}"
        )
    return embedding_type(pairwise_linking(d), lambda: normalized_invariant(d))


def embedding_type(profile: LinkingProfile, normalized: Callable[[], LaurentPoly]) -> EmbeddingType:
    """Embedding type of a 3-component diagram from its linking profile.

    Three linked pairs give the torus link, two the chain, one the Hopf link
    with split component.  With none, the link is trivial if ``normalized()``,
    its normalized bracket, is the 3-unlink's up to inverting the variable.
    """
    if profile.linked_pairs == 3:
        return EmbeddingType.TorusLink33
    if profile.linked_pairs == 2:
        return EmbeddingType.Chain3
    if profile.linked_pairs == 1:
        return EmbeddingType.HopfWithSplit
    if equal_up_to_inversion(normalized(), THREE_UNLINK_BRACKET):
        return EmbeddingType.Trivial3
    return EmbeddingType.Borromean


def is_brunnian(d: LinkDiagram) -> bool:
    """Pairwise unlinked, nontrivial as a whole, trivial after any single cut."""
    if d.component_count != 3:
        raise InputError(
            f"the Brunnian test needs a 3-component diagram, got {d.component_count}"
        )
    if pairwise_linking(d).linked_pairs != 0:
        return False
    for label in d.component_labels():
        reduced = remove_component(d, label)
        if not equal_up_to_inversion(
            normalized_invariant(reduced), TWO_UNLINK_BRACKET
        ):
            return False
    return not equal_up_to_inversion(
        normalized_invariant(d), THREE_UNLINK_BRACKET
    )
