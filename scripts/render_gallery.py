#!/usr/bin/env python3
"""Render one SVG per symmetry orbit plus every 3D scene and realization.

Diagram files are named ``orbit-<id>-rep-<bitword>.svg`` after their orbit
id and canonical representative word.
"""

import argparse
from pathlib import Path

from trilink import geometry
from trilink.diagram import to_diagram
from trilink.render import svg_diagram, svg_scene
from trilink.symmetry import orbit_partition


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--outdir", type=Path, default=Path("out/gallery"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for orbit_id, orbit in enumerate(orbit_partition()):
        rep = orbit.representative
        name = f"orbit-{orbit_id:02d}-rep-{rep.word}.svg"
        (args.outdir / name).write_text(svg_diagram(to_diagram(rep)))
        print(f"wrote {name} (orbit size {orbit.size})")

    for kind in geometry.SCENE_KINDS:
        name = f"scene-{kind}.svg"
        (args.outdir / name).write_text(svg_scene(geometry.scene(kind)))
        print(f"wrote {name}")

    for kind in geometry.REALIZE_KINDS:
        name = f"realization-{kind}.svg"
        (args.outdir / name).write_text(svg_scene(geometry.realize(kind)))
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
