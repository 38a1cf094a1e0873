"""Command-line interface.

Subcommands: ``census``, ``classify``, ``invariants``, ``render``,
``realize``, ``verify``.  Exit status 0 on success, 1 when verification
fails, 2 for invalid input (including unknown flags).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import census as census_mod
from .diagram import (
    BUILTIN_NAMES,
    CENTERS,
    DEFAULT_SEGMENTS,
    REALIZE_KINDS,
    SCENE_KINDS,
    assignment_from_text,
    builtin_diagram,
    diagram_to_text,
    to_diagram,
)
from .errors import CapacityError, DegeneracyError, InputError
from .invariants import (
    _normalized,
    embedding_type,
    kauffman_bracket,
    linking_numbers,
    pairwise_linking,
    signed_linking_numbers,
    writhe,
)
from .symmetry import orbit_of

if TYPE_CHECKING:
    from .geometry import Realization3D


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


#: The stroke colors ``--color`` accepts: ``#rgb``, ``#rrggbb`` or a name of letters.
_COLOR = re.compile(r"#[0-9a-fA-F]{3}|#[0-9a-fA-F]{6}|[A-Za-z]+")


def _parse_colors(spec: str) -> dict[str, str]:
    colors: dict[str, str] = {}
    for item in spec.split(","):
        if not item:
            continue
        label, _, value = item.partition("=")
        if label not in CENTERS or not _COLOR.fullmatch(value):
            raise InputError(f"color overrides look like A=#11aa22,B=#abc,C=red; got {item!r}")
        colors[label] = value
    return colors


def _curves_table(r: Realization3D) -> str:
    """Plain-text point table: one point per line, curve separator records."""
    lines = [f"trilink-curves v1 kind={r.kind}"]
    for key in sorted(r.params):
        lines.append(f"param {key} {r.params[key]:.12g}")
    for curve in r.curves:
        n = curve.segment_count
        lines.append(f"curve {curve.label} n={n}")
        lines.append("\n".join(["%.12g %.12g %.12g"] * n) % tuple(curve.points.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _curves_obj(r: Realization3D) -> str:
    """Wavefront OBJ with closed polylines (``l`` elements, 1-based indices)."""
    lines = ["# trilink curves"]
    offset = 1
    for curve in r.curves:
        n = curve.segment_count
        lines.append(f"o {curve.label}")
        lines.append("\n".join(["v %.9g %.9g %.9g"] * n) % tuple(curve.points.ravel().tolist()))
        indices = " ".join(str(offset + k) for k in range(n))
        lines.append(f"l {indices} {offset}")
        offset += n
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` makes a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="trilink",
        description=(
            "Enumerate, classify, realize and render the 64 three-circle "
            "link depictions of the fixed triangular projection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="run the full 64-depiction census")
    p_census.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    p_census.add_argument("-o", "--output", default=None, metavar="PATH")

    p_classify = sub.add_parser("classify", help="classify one assignment word")
    p_classify.add_argument("bitword")

    p_inv = sub.add_parser("invariants", help="invariants of a depiction or builtin")
    group = p_inv.add_mutually_exclusive_group(required=True)
    group.add_argument("bitword", nargs="?")
    group.add_argument("--builtin", choices=BUILTIN_NAMES)

    p_render = sub.add_parser("render", help="emit SVG for a diagram, scene or realization")
    rgroup = p_render.add_mutually_exclusive_group(required=True)
    rgroup.add_argument("bitword", nargs="?")
    rgroup.add_argument("--scene", choices=SCENE_KINDS)
    rgroup.add_argument("--realize", choices=REALIZE_KINDS, dest="realize_kind")
    p_render.add_argument("-o", "--output", default=None, metavar="PATH")
    p_render.add_argument("--color", default=None, metavar="A=...,B=...,C=...")

    p_realize = sub.add_parser("realize", help="export 3D curves plus linking numbers")
    p_realize.add_argument("kind", choices=REALIZE_KINDS)
    p_realize.add_argument("--R", type=float, default=None)
    p_realize.add_argument("--r", type=float, default=None)
    p_realize.add_argument("--a", type=float, default=None)
    p_realize.add_argument("--b", type=float, default=None)
    p_realize.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS)
    p_realize.add_argument(
        "--obj", action="store_true", help="emit Wavefront OBJ instead of the point table"
    )
    p_realize.add_argument("-o", "--output", default=None, metavar="PATH")

    p_verify = sub.add_parser("verify", help="run the full claim-verification suite")
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.add_argument("-o", "--output", default=None, metavar="PATH")

    p_export = sub.add_parser("export", help="structured-text record of one diagram")
    egroup = p_export.add_mutually_exclusive_group(required=True)
    egroup.add_argument("bitword", nargs="?")
    egroup.add_argument("--builtin", choices=BUILTIN_NAMES)
    p_export.add_argument("-o", "--output", default=None, metavar="PATH")

    return parser


def _cmd_census(args) -> int:
    exporters = {
        "table": census_mod.census_table,
        "json": census_mod.census_to_json,
        "csv": census_mod.census_to_csv,
    }
    _write_output(exporters[args.format](census_mod.run_census()), args.output)
    return 0


def _cmd_classify(args) -> int:
    asg = assignment_from_text(args.bitword)
    d = to_diagram(asg)
    orbit = orbit_of(asg)
    profile = pairwise_linking(d)
    bracket = census_mod.word_brackets()[asg.index]
    kind = embedding_type(profile, lambda: _normalized(bracket, writhe(d)))
    lines = [
        f"bitword          {asg.word}",
        f"embedding type   {kind.value}",
        f"orbit rep        {orbit.representative.word} (size {orbit.size})",
        f"linking profile  {profile}",
        f"bracket          {bracket.to_text()}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _diagram_from_args(args):
    if getattr(args, "builtin", None):
        return builtin_diagram(args.builtin)
    return to_diagram(assignment_from_text(args.bitword))


def _cmd_invariants(args) -> int:
    d = _diagram_from_args(args)
    lines = [f"components       {d.component_count}", f"crossings        {d.crossing_count}"]
    if d.component_count >= 2:
        profile = pairwise_linking(d)
        pair_text = ", ".join(
            f"{'-'.join(sorted(pair))}={value}"
            for pair, value in sorted(linking_numbers(d).items(), key=lambda kv: sorted(kv[0]))
        )
        lines.append(f"linking          {pair_text} (profile {profile})")
    if args.builtin:
        bracket = kauffman_bracket(d)
    else:
        bracket = census_mod.word_brackets()[assignment_from_text(args.bitword).index]
    w = writhe(d)
    lines.append(f"writhe           {w}")
    lines.append(f"bracket          {bracket.to_text()}")
    lines.append(f"normalized       {_normalized(bracket, w).to_text()}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_render(args) -> int:
    from . import render
    if args.color is not None and (args.scene or args.realize_kind):
        raise InputError("--color applies to a bitword diagram, not to --scene or --realize")
    if args.scene or args.realize_kind:
        from . import geometry
        subject = (
            geometry.scene(args.scene) if args.scene else geometry.realize(args.realize_kind)
        )
        text = render.svg_scene(subject)
    else:
        colors = {**render.DEFAULT_COLORS, **_parse_colors(args.color or "")}
        text = render.svg_diagram(_diagram_from_args(args), colors)
    _write_output(text, args.output)
    return 0


def _cmd_realize(args) -> int:
    from . import geometry
    params = {n: getattr(args, n) for n in ("R", "r", "a", "b") if getattr(args, n) is not None}
    realization = geometry.realize(args.kind, segments=args.segments, **params)
    # Measure and project before writing, so a failed realization leaves no
    # table; the measurements' verdicts answer the projection's separation checks.
    distance = geometry.validate_disjoint(realization)
    lks = signed_linking_numbers(geometry.diagram_from_curves(realization))
    text = _curves_obj(realization) if args.obj else _curves_table(realization)
    _write_output(text, args.output)
    for a, b in itertools.combinations(realization.curves, 2):
        sys.stdout.write(f"lk({a.label},{b.label}) = {lks[frozenset((a.label, b.label))]}\n")
    sys.stdout.write(f"min pairwise curve distance = {distance:.6f}\n")
    return 0


def _cmd_verify(args) -> int:
    report = census_mod.verify_claims()
    text = report.to_text() if args.format == "table" else report.to_json()
    _write_output(text, args.output)
    return 0 if report.all_passed else 1


def _cmd_export(args) -> int:
    d = _diagram_from_args(args)
    _write_output(diagram_to_text(d), args.output)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports its own diagnostic; keep its exit code (2 on bad input)
        return int(exc.code or 0)
    handlers = {
        "census": _cmd_census,
        "classify": _cmd_classify,
        "invariants": _cmd_invariants,
        "render": _cmd_render,
        "realize": _cmd_realize,
        "verify": _cmd_verify,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (InputError, CapacityError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DegeneracyError as exc:
        sys.stderr.write(f"error: degenerate geometry: {exc}\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
