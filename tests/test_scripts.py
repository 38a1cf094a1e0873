"""Smoke tests: each script under scripts/ runs to completion and writes its outputs."""

import importlib.util
import json
import marshal
import os
import re
import shutil
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_linking_convergence():
    done = run_script("linking_convergence.py", "--doublings", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [ln for ln in lines if ln.startswith("==")] == [
        "== torus-villarceau",
        "== borromean-ellipses",
    ]
    rows = [
        re.fullmatch(r"  segments=\s*(\d+)  max residual = (\S+)  gauss = (\S+) ms", ln)
        for ln in lines
    ]
    rows = [(int(m[1]), float(m[2]), float(m[3])) for m in rows if m]
    assert [n for n, _, _ in rows] == [64, 128, 64, 128]
    assert all(residual < 1e-2 for _, residual, _ in rows)
    assert all(0.0 < ms < 1e3 for _, _, ms in rows)


def test_run_census_with_verify(tmp_path):
    done = run_script("run_census.py", "-o", tmp_path, "--verify")
    assert done.returncode == 0, done.stderr
    assert "10 patterns, 64 depictions" in done.stdout
    assert "ALL CHECKS PASSED" in done.stdout
    for name in ("census.csv", "census.json", "census.txt"):
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()
    assert (tmp_path / "verification.txt").read_text().endswith("ALL CHECKS PASSED\n")


def test_render_gallery(tmp_path):
    done = run_script("render_gallery.py", "-o", tmp_path)
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len([n for n in written if n.startswith("orbit-")]) == 10
    assert len([n for n in written if n.startswith("scene-")]) == 4
    assert [n for n in written if n.startswith("realization-")] == [
        "realization-borromean-ellipses.svg",
        "realization-torus-villarceau.svg",
    ]
    for name in written:
        assert ET.parse(tmp_path / name).getroot().tag == "{http://www.w3.org/2000/svg}svg"
    assert done.stdout.count("wrote ") == len(written) == 16


def write_stale_bytecode(source):
    """A valid-looking ``__pycache__`` entry for ``source`` whose code fails on import.

    The header (PEP 552) carries the source's mtime and size, so an
    interpreter that reads the tree's ``__pycache__`` takes it as current.
    """
    stat = source.stat()
    code = compile("raise ImportError('stale bytecode was read')", str(source), "exec")
    header = importlib.util.MAGIC_NUMBER + struct.pack(
        "<III", 0, int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF
    )
    cache = source.parent / "__pycache__"
    cache.mkdir(exist_ok=True)
    target = cache / f"{source.stem}.{sys.implementation.cache_tag}.pyc"
    target.write_bytes(header + marshal.dumps(code))
    return target


def test_bench_series(tmp_path):
    # A tree whose __pycache__ holds stale bytecode: the series must compile
    # the tree's sources instead of reading it.
    tree = tmp_path / "tree"
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=skip)
    stale = write_stale_bytecode(tree / "src" / "trilink" / "errors.py")
    stale_bytes = stale.read_bytes()
    done = run_script(
        "bench_series.py", "--label", "t", "--seeds", "1", "--seconds", "1", "-o", tmp_path,
        "--tree", f"stale={tree}",
    )
    assert done.returncode == 0, done.stderr
    assert stale.read_bytes() == stale_bytes
    assert sorted(p.name for p in stale.parent.iterdir()) == [stale.name]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["seeds"] == [1]
    entry = report["trees"]["stale"]
    assert entry["machine"]["nproc"] >= 1
    assert sorted(entry["end_to_end"]) == sorted(entry["traced"]) == ["queries", "realize", "verify"]
    for workload, series in entry["end_to_end"].items():
        assert series["ok"], workload
        p50 = series["op_p50_ms"]
        assert len(p50["values"]) == 1
        assert p50["q1"] <= p50["median"] <= p50["q3"]
        # Each workload reaches a layer below the CLI: a census word's diagram, or a bracket.
        layer = "diagram.to_diagram" if workload == "queries" else "invariants.kauffman_bracket"
        assert entry["traced"][workload][f"{layer}.calls"] > 0
    # The CLI measures the three pairs; the Gauss integrals certify them.
    assert entry["traced"]["realize"]["geometry.curve_distance.calls"] == 3
    assert "comparison" not in report
