"""Golden-output gate: census exports, diagram records and SVG stay byte-identical.

The files under ``tests/golden/`` hold the census JSON, CSV and table, the
structured-text record of all 64 depictions and the 6 builtins, and the
sha256 of the SVG of each orbit representative, each builtin, each gallery
scene and each default-parameter realization.
Verify output is left out: its roundness and Gauss residual print floats
that differ across platforms.

Regenerate the files (only when an output change is intended) with
``python tests/test_golden.py``.
"""

import hashlib
from pathlib import Path

import pytest

from trilink.census import census_table, census_to_csv, census_to_json, run_census
from trilink.diagram import (
    BUILTIN_NAMES,
    all_assignments,
    builtin_diagram,
    diagram_to_text,
    to_diagram,
)
from trilink.geometry import REALIZE_KINDS, SCENE_KINDS, realize, scene
from trilink.render import svg_diagram, svg_scene
from trilink.symmetry import orbit_partition

GOLDEN_DIR = Path(__file__).parent / "golden"


def _diagram_records() -> str:
    named = [(asg.word, to_diagram(asg)) for asg in all_assignments()]
    named += [(name, builtin_diagram(name)) for name in BUILTIN_NAMES]
    return "".join(f"== {name}\n{diagram_to_text(d)}" for name, d in named)


def _svg_digests() -> str:
    named = [
        (orbit.representative.word, svg_diagram(to_diagram(orbit.representative)))
        for orbit in orbit_partition()
    ]
    named += [(name, svg_diagram(builtin_diagram(name))) for name in BUILTIN_NAMES]
    named += [(f"scene {kind}", svg_scene(scene(kind))) for kind in SCENE_KINDS]
    named += [(f"realize {kind}", svg_scene(realize(kind))) for kind in REALIZE_KINDS]
    return "".join(
        f"{hashlib.sha256(svg.encode('utf-8')).hexdigest()}  {name}\n"
        for name, svg in named
    )


def _outputs() -> dict[str, str]:
    records = run_census()
    return {
        "census.json": census_to_json(records),
        "census.csv": census_to_csv(records),
        "census.txt": census_table(records),
        "diagrams.txt": _diagram_records(),
        "svg.sha256": _svg_digests(),
    }


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize(
    "name", ["census.json", "census.csv", "census.txt", "diagrams.txt", "svg.sha256"]
)
def test_output_matches_golden_file(outputs, name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert outputs[name].encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in _outputs().items():
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
