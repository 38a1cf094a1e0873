"""Golden-output gate: census exports, diagram records, SVG and CLI output stay byte-identical.

The files under ``tests/golden/`` hold the census JSON, CSV and table, the
structured-text record of all 64 depictions and the 6 builtins, the
sha256 of the SVG of each orbit representative, each builtin, each gallery
scene and each default-parameter realization, and the sha256 of the
stdout of ``trilink realize`` (both kinds at 64 and 256 segments, with the
defaults and with one benchmark-style parameter set, and one ``--obj``
export) and of ``trilink verify`` as text and JSON.  The realize tables
and verify's roundness and Gauss residual print floats, so those digests
hold on the platform that wrote them.

Regenerate the files (only when an output change is intended) with
``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from trilink.census import census_table, census_to_csv, census_to_json, run_census
from trilink.cli import main
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


#: CLI commands whose stdout is pinned by digest: realize at the defaults and
#: at parameters of the benchmark's realize workload (six decimals).
CLI_COMMANDS = tuple(
    ["realize", kind, "--segments", str(segments), *params]
    for kind, params in (
        ("torus-villarceau", ()),
        ("torus-villarceau", ("--R", "2.513274", "--r", "1.382301")),
        ("borromean-ellipses", ()),
        ("borromean-ellipses", ("--a", "1.618034", "--b", "0.731059")),
    )
    for segments in (64, 256)
) + (
    ["realize", "torus-villarceau", "--segments", "256", "--obj"],
    ["verify"],
    ["verify", "--format", "json"],
)


def _cli_digests() -> str:
    lines = []
    for argv in CLI_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        lines.append(f"{digest}  {' '.join(argv)}\n")
    return "".join(lines)


def _outputs() -> dict[str, str]:
    records = run_census()
    return {
        "census.json": census_to_json(records),
        "census.csv": census_to_csv(records),
        "census.txt": census_table(records),
        "diagrams.txt": _diagram_records(),
        "svg.sha256": _svg_digests(),
        "cli.sha256": _cli_digests(),
    }


@pytest.fixture(scope="module")
def outputs():
    return _outputs()


@pytest.mark.parametrize(
    "name",
    ["census.json", "census.csv", "census.txt", "diagrams.txt", "svg.sha256", "cli.sha256"],
)
def test_output_matches_golden_file(outputs, name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert outputs[name].encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in _outputs().items():
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
