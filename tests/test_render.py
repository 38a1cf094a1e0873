import xml.etree.ElementTree as ET

import pytest

from trilink import geometry as G
from trilink.diagram import (
    SITES,
    assignment_from_text,
    builtin_diagram,
    to_diagram,
)
from trilink.errors import InputError
from trilink.render import DEFAULT_COLORS, svg_diagram, svg_scene

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(text: str) -> ET.Element:
    return ET.fromstring(text)


def _strokes(text: str) -> dict[str, str]:
    return {
        g.get("id").removeprefix("component-"): g.find(f"{SVG_NS}path").get("stroke")
        for g in _parse(text).findall(f"{SVG_NS}g")
    }


class TestRenderStyle:
    def test_default_palette(self):
        d = to_diagram(assignment_from_text("111100"))
        assert _strokes(svg_diagram(d)) == DEFAULT_COLORS
        assert _strokes(svg_diagram(builtin_diagram("unknot"))) == {"K": "#444444"}


class TestSvgDiagram:
    def test_census_structure(self):
        d = to_diagram(assignment_from_text("111100"))
        root = _parse(svg_diagram(d))
        assert root.get("version") == "1.1"
        groups = root.findall(f"{SVG_NS}g")
        assert len(groups) == 3
        assert sum(int(g.get("data-gaps")) for g in groups) == 6

    def test_gap_count_equals_crossing_count(self):
        for word in ("000000", "010101", "000110", "111111"):
            d = to_diagram(assignment_from_text(word))
            root = _parse(svg_diagram(d))
            gaps = sum(
                int(g.get("data-gaps")) for g in root.findall(f"{SVG_NS}g")
            )
            assert gaps == d.crossing_count

    def test_gap_breaks_appear_as_subpaths(self):
        d = to_diagram(assignment_from_text("111100"))
        root = _parse(svg_diagram(d))
        for group in root.findall(f"{SVG_NS}g"):
            gaps = int(group.get("data-gaps"))
            path = group.find(f"{SVG_NS}path").get("d")
            if gaps == 0:
                assert path.count("M") == 1 and path.rstrip().endswith("Z")
            else:
                assert path.count("M") == gaps

    def test_deterministic(self):
        d = to_diagram(assignment_from_text("010101"))
        assert svg_diagram(d) == svg_diagram(d)

    def test_borromean_weave_structure(self):
        # In the woven depiction every circle passes over one neighbor at
        # both shared crossings and under the other neighbor at both.
        d = to_diagram(assignment_from_text("000000"))
        over_partners = {label: [] for label in "ABC"}
        for comp in d.components:
            for visit in comp.visits:
                site = d.crossings[visit.crossing].site_index
                pair = SITES[site].pair
                partner = (
                    pair[0] if pair[1].name == comp.label else pair[1]
                ).name
                if visit.role == "over":
                    over_partners[comp.label].append(partner)
        for label, partners in over_partners.items():
            assert len(partners) == 2
            assert partners[0] == partners[1]  # over the same neighbor twice
        root = _parse(svg_diagram(d))
        gaps = [int(g.get("data-gaps")) for g in root.findall(f"{SVG_NS}g")]
        assert gaps == [2, 2, 2]

    def test_color_override(self):
        d = to_diagram(assignment_from_text("111100"))
        colors = {"A": "#123456", "B": "#654321", "C": "#abcdef"}
        assert _strokes(svg_diagram(d, colors)) == colors
        assert _strokes(svg_diagram(builtin_diagram("unknot"), colors)) == {"K": "#444444"}

    def test_missing_positions_rejected(self):
        from trilink.diagram import Component, LinkDiagram

        bare = LinkDiagram(
            components=(Component("K", tuple()),), crossings=tuple()
        )
        with pytest.raises(InputError, match="position"):
            svg_diagram(bare)

    def test_builtin_with_self_crossing_renders(self):
        root = _parse(svg_diagram(builtin_diagram("trefoil")))
        groups = root.findall(f"{SVG_NS}g")
        assert len(groups) == 1
        assert int(groups[0].get("data-gaps")) == 3


class TestSvgScene:
    def test_tangent_circles_scene(self):
        root = _parse(svg_scene(G.scene("tangent-circles")))
        assert root.get("version") == "1.1"
        markers = [
            el for el in root.iter(f"{SVG_NS}circle")
            if el.get("class") == "tangency"
        ]
        assert len(markers) == 3
        circle_segments = {
            el.get("class") for el in root.iter(f"{SVG_NS}line")
        }
        assert "circle" in circle_segments

    def test_realization_renders_three_curves(self):
        v = G.realize("torus-villarceau", segments=96)
        root = _parse(svg_scene(v))
        classes = {el.get("class") for el in root.iter(f"{SVG_NS}line")}
        assert classes == {"curve-A", "curve-B", "curve-C"}

    def test_horn_torus_scene(self):
        root = _parse(svg_scene(G.scene("horn-torus")))
        classes = {el.get("class") for el in root.iter(f"{SVG_NS}line")}
        assert "patch" in classes and "sweep" in classes
        cusps = [
            el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "cusp"
        ]
        assert len(cusps) == 1

    def test_tangent_spheres_scene(self):
        root = _parse(svg_scene(G.scene("tangent-spheres")))
        spheres = [
            el for el in root.iter(f"{SVG_NS}circle") if el.get("class") == "sphere"
        ]
        assert len(spheres) == 3

    def test_deterministic(self):
        scene = G.scene("great-circles")
        assert svg_scene(scene) == svg_scene(scene)
