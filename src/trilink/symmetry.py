"""The 12-element symmetry group of the fixed projection and its orbit census.

Generators: the 120-degree rotation, the reflection about the vertical
axis (the axis through circle A's center), and the global over/under
interchange.  The first two generate a copy of the triangle's dihedral
group; the interchange commutes with both, so the full group has
6 x 2 = 12 elements.

The action on 6-bit crossing words is a site permutation followed by
selective bit negation.  The permutation comes from moving the six site
positions rigidly; a bit negates exactly when the motion does not carry
the bit-reference circle of the source pair onto the bit-reference circle
of the image pair (the two labels trade roles), and the global
interchange negates every bit on top of that.  Concretely the rotation
permutes bits without negation, every axis reflection negates all six,
and the interchange negates all six in place.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .diagram import CENTERS, SITE_PAIRS, CrossingAssignment, all_assignments
from .errors import InputError

D3_NAMES = ("identity", "rot120", "rot240", "refl_A", "refl_B", "refl_C")

#: Label permutation of each dihedral part, from the images of A, B and C.
_D3_LABEL_MAPS: dict[str, dict[str, str]] = {
    name: dict(zip(CENTERS, images))
    for name, images in zip(D3_NAMES, ("ABC", "BCA", "CAB", "ACB", "CBA", "BAC"))
}


class SymmetryElement(NamedTuple):
    """One of the twelve symmetries: a dihedral part plus the interchange flag."""

    d3_part: str
    mirror: bool

    def label_map(self) -> dict[str, str]:
        return _D3_LABEL_MAPS[self.d3_part]

    def __str__(self) -> str:
        return f"{self.d3_part}{'*' if self.mirror else ''}"


class SiteAction(NamedTuple):
    """Permutation-with-flips action on the six crossing bits.

    ``site_perm[i]`` is the image site of site ``i``; ``flip_mask[i]`` is
    True when the bit traveling from site ``i`` is negated (source-indexed).
    """

    site_perm: tuple[int, int, int, int, int, int]
    flip_mask: tuple[bool, bool, bool, bool, bool, bool]


def group_elements() -> tuple[SymmetryElement, ...]:
    """All twelve elements, identity first, interchange-free ones before the rest."""
    plain = tuple(SymmetryElement(name, False) for name in D3_NAMES)
    mirrored = tuple(SymmetryElement(name, True) for name in D3_NAMES)
    return plain + mirrored


def site_action(g: SymmetryElement) -> SiteAction:
    """The action of ``g`` on the six crossing bits.

    Rigid motions preserve the inner/outer split, so site ``2*p + d`` maps
    to ``2*p' + d`` where ``p'`` indexes the image pair.  The flip logic is
    described in the module docstring.
    """
    label_map = g.label_map()
    perm = [0] * 6
    flips = [False] * 6
    for p, (lead, partner) in enumerate(SITE_PAIRS):
        image = (label_map[lead], label_map[partner])
        # The lead's image is the image pair's partner when the labels trade roles.
        traded = image not in SITE_PAIRS
        p_image = SITE_PAIRS.index(image[::-1] if traded else image)
        for depth in (0, 1):
            perm[2 * p + depth] = 2 * p_image + depth
            flips[2 * p + depth] = traded ^ g.mirror
    return SiteAction(tuple(perm), tuple(flips))  # type: ignore[arg-type]


def apply_action(action: SiteAction, asg: CrossingAssignment) -> CrossingAssignment:
    """Move every bit to its image site, negating where the mask says so."""
    bits = [False] * 6
    for i in range(6):
        bits[action.site_perm[i]] = asg.bits[i] ^ action.flip_mask[i]
    return CrossingAssignment(tuple(bits))  # type: ignore[arg-type]


class Orbit(NamedTuple):
    """A symmetry orbit of crossing assignments ("pattern")."""

    members: tuple[CrossingAssignment, ...]  # sorted by numeric word value

    @property
    def representative(self) -> CrossingAssignment:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)


@functools.cache
def _group_actions() -> tuple[SiteAction, ...]:
    return tuple(site_action(g) for g in group_elements())


def orbit_of(asg: CrossingAssignment) -> Orbit:
    """The orbit containing ``asg``: its images under the twelve actions.

    Each word's orbit is computed once per process, without the rest of
    the partition.
    """
    if not isinstance(asg, CrossingAssignment) or asg not in all_assignments():
        raise InputError(f"assignment {asg!r} not found in any orbit")
    return _orbit_at(asg.index)


@functools.cache
def _orbit_at(index: int) -> Orbit:
    asg = all_assignments()[index]
    # The twelve actions are the whole group; a word's bits sort as its index.
    return Orbit(tuple(sorted({apply_action(action, asg) for action in _group_actions()})))


@functools.cache
def orbit_partition() -> tuple[Orbit, ...]:
    """Partition all 64 assignments into orbits, sorted by representative.

    The partition is a fixed fact, computed once per process; the frozen
    orbits are shared by every caller.
    """
    return tuple(
        orbit_of(asg) for asg in all_assignments() if orbit_of(asg).representative == asg
    )


def burnside_count() -> tuple[int, dict[SymmetryElement, int]]:
    """Orbit count via the group-average of fixed-point counts.

    Returns the averaged count together with the per-element table; the
    count must agree with ``len(orbit_partition())``.
    """
    table: dict[SymmetryElement, int] = {}
    for g, action in zip(group_elements(), _group_actions()):
        fixed = sum(
            1 for asg in all_assignments() if apply_action(action, asg) == asg
        )
        table[g] = fixed
    total = sum(table.values())
    if total % len(table) != 0:
        raise AssertionError("fixed-point total is not divisible by the group order")
    return total // len(table), table
