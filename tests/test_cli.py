import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from trilink import census, cli, geometry, invariants, render
from trilink.census import census_diagrams, census_table, census_to_csv, census_to_json
from trilink.cli import _build_parser, _diagram_from_args, main
from trilink.diagram import (
    BUILTIN_NAMES,
    CENTERS,
    REALIZE_KINDS,
    SCENE_KINDS,
    assignment_from_text,
    to_diagram,
)
from trilink.invariants import kauffman_bracket, normalized_invariant

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, *names):
    """The list that records each call of the ``invariants`` functions ``names`` by name."""
    calls = []
    for name in names:
        real = getattr(invariants, name)

        def call(*args, real=real):
            calls.append(real.__name__)
            return real(*args)

        for module in (cli, invariants):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, call)
    return calls


def run_in_fresh_interpreter(*argv):
    """``main(argv)`` in a new Python process (bare ``import trilink`` when argv is empty).

    Returns the exit code and whether numpy and dataclasses were imported by the end.
    """
    probe = (
        "import contextlib, io, sys\n"
        "import trilink\n"
        "code = 0\n"
        "if sys.argv[1:]:\n"
        "    import trilink.cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = trilink.cli.main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, numpy_loaded, dataclasses_loaded = done.stdout.split()
    return int(code), numpy_loaded == "True", dataclasses_loaded == "True"


NUMPY_CASES = [
    ((), False),
    (("classify", "000000"), False),
    (("invariants", "101010"), False),
    (("invariants", "--builtin", "hopf"), False),
    (("export", "111100"), False),
    (("census", "--format", "csv"), False),
    (("render", "101010"), False),
    # Geometry: diagram_from_strands, realization, 3D rendering.
    (("invariants", "--builtin", "trefoil"), True),
    (("render", "--scene", "horn-torus"), True),
    (("realize", "torus-villarceau"), True),
]


@pytest.mark.parametrize(
    "argv, loads_numpy", NUMPY_CASES, ids=["-".join(argv) or "import" for argv, _ in NUMPY_CASES]
)
def test_numpy_is_imported_only_where_geometry_runs(argv, loads_numpy):
    code, numpy_loaded, dataclasses_loaded = run_in_fresh_interpreter(*argv)
    assert (code, numpy_loaded) == (0, loads_numpy)
    # Every record is a NamedTuple, so no command loads dataclasses.
    assert not dataclasses_loaded


BUILT_CASES = [
    (("classify", "000000"), (0, 0)),
    (("invariants", "101010"), (0, 0)),
    (("census", "--format", "csv"), (0, 1)),
    (("render", "101010"), (1, 0)),
]


@pytest.mark.parametrize("argv, built", BUILT_CASES, ids=["-".join(argv) for argv, _ in BUILT_CASES])
def test_one_shot_commands_build_only_what_they_use(argv, built):
    # Only a diagram render builds draw data, and only the census builds
    # the orbit partition: classify computes its word's orbit alone.
    probe = (
        "import contextlib, io, sys\n"
        "import trilink.cli\n"
        "from trilink import render, symmetry\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    trilink.cli.main(sys.argv[1:])\n"
        "print(len(render._drawings), symmetry.orbit_partition.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert tuple(map(int, done.stdout.split())) == built


def test_polyline_imports_no_diagram():
    # The package's __init__ imports ``diagram``; a bare package object in
    # its place runs only the imports of ``polyline`` itself.
    probe = (
        "import sys, types\n"
        "package = types.ModuleType('trilink')\n"
        f"package.__path__ = [{str(SRC / 'trilink')!r}]\n"
        "sys.modules['trilink'] = package\n"
        "import trilink.polyline\n"
        "print(*sorted(name for name in sys.modules if name.startswith('trilink')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.split() == ["trilink", "trilink.errors", "trilink.polyline"]


def test_every_public_name_resolves():
    import trilink

    assert len(set(trilink.__all__)) == len(trilink.__all__)
    missing = [name for name in trilink.__all__ if not hasattr(trilink, name)]
    assert missing == []


class TestCensusCommand:
    def test_table_headline(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--format", "table")
        assert code == 0
        assert out.rstrip().endswith("10 patterns in 5 embedding types; 64 depictions")

    @pytest.mark.parametrize(
        "fmt, export",
        [("table", census_table), ("csv", census_to_csv), ("json", census_to_json)],
        ids=["table", "csv", "json"],
    )
    def test_output_is_the_export(self, capsys, census_records, fmt, export):
        assert run_cli(capsys, "census", "--format", fmt) == (0, export(census_records), "")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "census.csv"
        code, out, _ = run_cli(capsys, "census", "--format", "csv", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("bitword,")

    def test_identical_invocations_identical_output(self, capsys):
        _, first, _ = run_cli(capsys, "census", "--format", "json")
        _, second, _ = run_cli(capsys, "census", "--format", "json")
        assert first == second


class TestClassifyCommand:
    def test_height_stack(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "111100")
        assert code == 0
        assert "Trivial3" in out
        assert "0,0,0" in out

    def test_woven_word(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "000000")
        assert code == 0
        assert "Borromean" in out

    @pytest.mark.parametrize("word", ["000000", "111100", "010101"])
    def test_brackets_and_links_once(self, capsys, monkeypatch, word):
        # The first word command folds the shadow's state table; later ones read it.
        bracket = kauffman_bracket(to_diagram(assignment_from_text(word))).to_text()
        census.word_brackets.cache_clear()
        calls = count_calls(monkeypatch, "kauffman_bracket", "pairwise_linking", "_smoothing_tally")
        for expected in (["_smoothing_tally", "pairwise_linking"], ["pairwise_linking"]):
            calls.clear()
            code, out, _ = run_cli(capsys, "classify", word)
            assert code == 0
            assert sorted(calls) == expected
            assert out.endswith(f"bracket          {bracket}\n")

    def test_bad_word_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "classify", "0101019")
        assert code == 2
        assert out == ""
        assert "length 7" in err

    def test_bad_character_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "01010x")
        assert code == 2
        assert "position 5" in err


class TestInvariantsCommand:
    def test_builtin_hopf(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--builtin", "hopf")
        assert code == 0
        assert "-A^-4 - A^4" in out
        assert "A-B=1" in out

    def test_bitword(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "010101")
        assert code == 0
        assert "profile 1,1,1" in out

    @pytest.mark.parametrize("argv", [("000000",), ("010101",), ("--builtin", "trefoil")])
    def test_brackets_once(self, capsys, monkeypatch, argv):
        # A word's bracket comes from the shadow's table, folded on the first word command;
        # a builtin is contracted on every call.
        if argv[0] == "--builtin":
            first = again = ["kauffman_bracket", "_smoothing_tally"]
        else:
            first, again = ["_smoothing_tally"], []
        d = _diagram_from_args(_build_parser().parse_args(["invariants", *argv]))
        bracket, normalized = kauffman_bracket(d).to_text(), normalized_invariant(d).to_text()
        census.word_brackets.cache_clear()
        calls = count_calls(monkeypatch, "kauffman_bracket", "_smoothing_tally")
        for expected in (first, again):
            calls.clear()
            code, out, _ = run_cli(capsys, "invariants", *argv)
            assert code == 0
            assert calls == expected
            assert out.endswith(f"bracket          {bracket}\nnormalized       {normalized}\n")


class TestRenderCommand:
    def test_diagram_svg(self, capsys, tmp_path):
        target = tmp_path / "d.svg"
        code, _, _ = run_cli(capsys, "render", "000000", "-o", str(target))
        assert code == 0
        root = ET.fromstring(target.read_text())
        assert root.get("version") == "1.1"

    def test_scene_svg(self, capsys, tmp_path):
        target = tmp_path / "s.svg"
        code, _, _ = run_cli(
            capsys, "render", "--scene", "tangent-circles", "-o", str(target)
        )
        assert code == 0
        ET.fromstring(target.read_text())

    def test_realization_svg(self, capsys, tmp_path):
        target = tmp_path / "r.svg"
        code, _, _ = run_cli(
            capsys, "render", "--realize", "borromean-ellipses", "-o", str(target)
        )
        assert code == 0
        ET.fromstring(target.read_text())

    def test_color_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "111100", "--color", "A=#101010,B=#202020,C=#303030"
        )
        assert code == 0
        assert "#101010" in out

    def test_bad_color_spec(self, capsys):
        code, _, err = run_cli(capsys, "render", "111100", "--color", "D=#101010")
        assert code == 2
        assert "color overrides" in err

    @pytest.mark.parametrize(
        "spec",
        ['A=red" onload="alert(1)', "A=#12345", "B=#ggg", "C=", "C=url(#x)", "A=dark-red"],
    )
    def test_color_value_must_be_hex_or_name(self, capsys, spec):
        code, out, err = run_cli(capsys, "render", "111100", "--color", spec)
        assert (code, out) == (2, "")
        assert "color overrides" in err

    def test_color_names_and_short_hex_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "render", "111100", "--color", "A=Teal,B=#abc")
        assert code == 0
        assert 'stroke="Teal"' in out and 'stroke="#abc"' in out

    @pytest.mark.parametrize(
        "subject, spec",
        [(("--scene", "horn-torus"), "bogus"), (("--realize", "torus-villarceau"), "A=#ff0000")],
    )
    def test_color_rejected_for_scene_and_realization(self, capsys, subject, spec):
        code, out, err = run_cli(capsys, "render", *subject, "--color", spec)
        assert code == 2
        assert out == ""
        assert "--color" in err


class TestOneLabelSet:
    """Diagrams, realizations, colors and ``--color`` all use the labels of ``CENTERS``."""

    def test_census_realizations_and_colors_share_the_labels(self):
        labels = tuple(CENTERS)
        assert {d.component_labels() for d in census_diagrams()} == {labels}
        for kind in REALIZE_KINDS:
            curves = geometry.realize(kind, segments=64).curves
            assert tuple(curve.label for curve in curves) == labels
        assert tuple(render.DEFAULT_COLORS) == labels

    @pytest.mark.parametrize("label", [*CENTERS, "D", "K", "a", "AB", ""])
    def test_color_accepts_exactly_the_labels(self, capsys, label):
        code, out, _ = run_cli(capsys, "render", "111100", "--color", f"{label}=#101010")
        accepted = label in CENTERS
        assert code == (0 if accepted else 2)
        assert ("#101010" in out) == accepted


def reference_curves_table(r):
    """The point table written one formatted point at a time."""
    lines = [f"trilink-curves v1 kind={r.kind}"]
    for key in sorted(r.params):
        lines.append(f"param {key} {r.params[key]:.12g}")
    for curve in r.curves:
        lines.append(f"curve {curve.label} n={curve.segment_count}")
        lines.extend(f"{x:.12g} {y:.12g} {z:.12g}" for x, y, z in curve.points.tolist())
    return "\n".join(lines) + "\n"


def reference_curves_obj(r):
    """The OBJ text written one formatted vertex at a time."""
    lines = ["# trilink curves"]
    offset = 1
    for curve in r.curves:
        lines.append(f"o {curve.label}")
        lines.extend(f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in curve.points.tolist())
        n = curve.segment_count
        indices = " ".join(str(offset + k) for k in range(n))
        lines.append(f"l {indices} {offset}")
        offset += n
    return "\n".join(lines) + "\n"


class TestRealizeCommand:
    @pytest.mark.parametrize("segments", [64, 256, 4096])
    @pytest.mark.parametrize("kind", REALIZE_KINDS)
    def test_writers_match_the_per_point_reference(self, kind, segments):
        from trilink import geometry

        r = geometry.realize(kind, segments=segments)
        assert cli._curves_table(r) == reference_curves_table(r)
        assert cli._curves_obj(r) == reference_curves_obj(r)

    def test_point_table_and_linking(self, capsys, tmp_path):
        target = tmp_path / "curves.txt"
        code, out, _ = run_cli(
            capsys,
            "realize", "torus-villarceau", "--segments", "96", "-o", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("trilink-curves v1 kind=torus-villarceau")
        assert "curve A n=96" in text
        assert "lk(A,B) = 1" in out or "lk(A,B) = -1" in out

    def test_obj_output(self, capsys, tmp_path):
        target = tmp_path / "curves.obj"
        code, _, _ = run_cli(
            capsys,
            "realize", "borromean-ellipses", "--segments", "64",
            "--obj", "-o", str(target),
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 3 * 64
        assert sum(1 for ln in lines if ln.startswith("l ")) == 3

    def test_parameter_constraint_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "realize", "torus-villarceau", "--R", "1.0", "--r", "2.0"
        )
        assert code == 2
        assert "R > r > 0" in err

    def test_segment_cap_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "realize", "torus-villarceau", "--segments", "1000000000"
        )
        assert code == 2
        assert out == ""
        assert "segments must be in 64..16384" in err

    def test_mixed_parameters_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "realize", "torus-villarceau", "--a", "1.0"
        )
        assert code == 2
        assert "unknown parameters: ['a']; torus-villarceau takes R and r" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # A parameter that is not finite.
            (("torus-villarceau", "--R", "inf"), "parameters must be finite"),
            # Finite parameters whose segments are too long to measure.
            (("torus-villarceau", "--R", "1e308", "--r", "1"), "segment too long to measure"),
            # Finite parameters whose curves are measured about 1e-150 apart.
            (("borromean-ellipses", "--a", "1e150", "--b", "1e-150"), "too close to link"),
        ],
    )
    def test_non_finite_input_exit_2(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numeric overflow warning either
            code, out, err = run_cli(capsys, "realize", *argv)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == ""

    def test_failed_realization_writes_no_file(self, capsys, tmp_path):
        target = tmp_path / "curves.txt"
        code, out, err = run_cli(
            capsys, "realize", "borromean-ellipses", "--a", "1e150", "--b", "1e-150",
            "-o", str(target),
        )
        assert code == 2
        assert "too close to link" in err
        assert out == "" and not target.exists()


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "ALL CHECKS PASSED" in out
        assert "burnside-vs-partition: PASS" in out
        assert "brunnian-cut-property: PASS" in out
        assert "torus-pair-persistence: PASS" in out

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert any(c["name"] == "census-cardinality" for c in doc["checks"])


class TestExportCommand:
    def test_census_export(self, capsys):
        code, out, _ = run_cli(capsys, "export", "010101")
        assert code == 0
        assert out.startswith("trilink-diagram v1\n")

    def test_builtin_export(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--builtin", "trefoil")
        assert code == 0
        assert "crossings 3" in out


class TestArgumentHandling:
    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "census", "--bogus")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "census", "-o", str(tmp_path / "no" / "such" / "dir" / "x.csv")
        )
        assert code == 2
        assert err.startswith("error:")


class TestCachedParser:
    """One parser serves every call of a process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_color_override_does_not_persist(self, capsys):
        code, out, _ = run_cli(capsys, "render", "101010", "--color", "A=#123456")
        assert code == 0
        assert "#123456" in out
        code, out, _ = run_cli(capsys, "render", "101010")
        assert code == 0
        default = render.svg_diagram(
            to_diagram(assignment_from_text("101010")), render.DEFAULT_COLORS
        )
        assert out == default
        assert "#123456" not in out

    def test_bad_flag_does_not_disturb_the_next_call(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "classify", "101010", "--bogus")
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --bogus" in err
            code, out, err = run_cli(capsys, "classify", "101010")
            assert code == 0
            assert err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("bitword          101010\nembedding type   ")


# -- generated command lines -------------------------------------------------

# Valid words and parameters are drawn often enough that every command also
# runs to its end, not only to its input check.
words = st.one_of(
    st.text(alphabet="01", min_size=6, max_size=6),
    st.text(alphabet="01", max_size=12),
    st.text(max_size=8),
)
reals = st.one_of(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 0.0]),
)
# Segment counts above geometry.MAX_SEGMENTS are never drawn; in range,
# only 64, so every realization stays small.
segment_counts = st.one_of(st.just(64), st.integers(max_value=63))
# A file under the test's directory, or one in a directory that is not there.
# The test puts its directory in place of the prefix, so a drawn word that
# happens to be "-o" is never taken for the path.
TMP_PREFIX = "<tmp_path>/"
outputs = st.sampled_from(
    [(), ("-o", TMP_PREFIX + "out.txt"), ("-o", TMP_PREFIX + "missing/out.txt")]
)


def _optional(flag, values):
    return st.one_of(st.just(()), values.map(lambda value: (flag, str(value))))


@st.composite
def _realize_argv(draw):
    kind = draw(st.sampled_from(REALIZE_KINDS + ("no-such-kind",)))
    own = ["--a", "--b"] if kind == "borromean-ellipses" else ["--R", "--r"]
    names = st.sampled_from(draw(st.sampled_from([own, ["--R", "--r", "--a", "--b"]])))
    argv = ["realize", kind]
    for name in draw(st.lists(names, unique=True)):
        argv += [name, repr(draw(reals))]
    argv += ["--segments", str(draw(segment_counts))]
    argv += draw(st.sampled_from([[], ["--obj"]]))
    return argv + list(draw(outputs))


ARGV = {
    "census": st.tuples(
        st.just(("census",)),
        _optional("--format", st.sampled_from(["table", "json", "csv", "xml"])),
        outputs,
    ),
    "classify": st.tuples(st.just(("classify",)), words.map(lambda w: (w,))),
    "invariants": st.tuples(
        st.just(("invariants",)),
        st.one_of(
            words.map(lambda w: (w,)),
            st.sampled_from(BUILTIN_NAMES + ("no-such-name",)).map(lambda n: ("--builtin", n)),
        ),
    ),
    "render": st.tuples(
        st.just(("render",)),
        st.one_of(
            words.map(lambda w: (w,)),
            st.sampled_from(SCENE_KINDS).map(lambda k: ("--scene", k)),
            st.sampled_from(REALIZE_KINDS).map(lambda k: ("--realize", k)),
        ),
        _optional("--color", st.one_of(st.just("A=#123,B=red"), st.text(max_size=12))),
        outputs,
    ),
    "realize": _realize_argv().map(lambda argv: (tuple(argv),)),
    "verify": st.tuples(
        st.just(("verify",)),
        _optional("--format", st.sampled_from(["table", "json", "xml"])),
        outputs,
    ),
    "export": st.tuples(
        st.just(("export",)),
        st.one_of(
            words.map(lambda w: (w,)),
            st.sampled_from(BUILTIN_NAMES).map(lambda n: ("--builtin", n)),
        ),
        outputs,
    ),
}


# The VM's CPU speed switches between two levels about 1.6x apart, so this
# test runs without a per-example deadline.  Examples write only under
# tmp_path, so sharing it between them is harmless.
@pytest.mark.parametrize("command", sorted(ARGV))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_line_exits_cleanly(tmp_path, command, data):
    argv = [
        str(tmp_path / part.removeprefix(TMP_PREFIX)) if part.startswith(TMP_PREFIX) else part
        for group in data.draw(ARGV[command], label="parts")
        for part in group
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2), (argv, code)
    if code == 2:
        assert "error:" in err.getvalue(), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
