"""In-memory span tracer around the public functions of each trilink layer.

The tracer replaces each listed function by a wrapper in its defining
module and in every other ``trilink`` module that imported it by name
(``census`` binds ``to_diagram`` and ``kauffman_bracket`` directly, for
example), so every call is seen whichever module makes it.  Spans are
recorded only while an operation is open, so the harness's own checks,
which call back into the program, are not counted.

A span is ``[name, start, end, parent, op, extra]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` numbers the
operation the span belongs to, and ``extra`` carries a count taken at the
boundary (segment pairs, bracket states, SVG bytes, degenerate flag).
A span's self time is its duration minus the time its child spans cover.
``laurent`` gets no span: its calls are far cheaper than a span, so its
time counts in the caller's self time (mostly ``kauffman_bracket``).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Layer module -> public functions that get a span.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "census": ("run_census", "census_to_json", "census_to_csv", "census_table", "verify_claims"),
    "diagram": ("to_diagram", "diagram_from_strands", "diagram_to_text", "diagram_from_text"),
    "symmetry": ("orbit_partition", "orbit_of", "burnside_count"),
    "invariants": ("kauffman_bracket", "classify", "is_brunnian"),
    "geometry": (
        "curve_distance",
        "gauss_linking_integral",
        "linking_number_3d",
        "diagram_from_curves",
        "realize",
    ),
    "render": ("svg_diagram", "svg_scene"),
}


def _segment_pairs(args, result):
    return args[0].segment_count * args[1].segment_count


def _bracket_states(args, result):
    return 1 << args[0].crossing_count


def _output_bytes(args, result):
    return len(result)


#: Counts recorded at a span's boundary, from its arguments and result.
_BOUNDARY_COUNTS = {
    "geometry.curve_distance": _segment_pairs,
    "geometry.gauss_linking_integral": _segment_pairs,
    "invariants.kauffman_bracket": _bracket_states,
    "render.svg_diagram": _output_bytes,
    "render.svg_scene": _output_bytes,
}

OP_SPAN = "op"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        span[5] = extra
        self._stack.pop()

    def begin_op(self) -> None:
        self._op += 1
        self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()

    def wrap(self, name: str, fn):
        count = _BOUNDARY_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # The exception's name marks the span; a DegeneracyError
                # is a wasted projection attempt.
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx, count(args, result) if count else None)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a trilink module binds it."""
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"trilink.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "trilink" or mod_name.startswith("trilink.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children of a span
    cover exactly the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [s[2] - s[1] - child_time[i] for i, s in enumerate(spans)]


#: Per-layer metrics: name -> (unit, better).  Values are means per operation.
PER_LAYER_METRICS = {
    "geometry.curve_distance.calls": ("count", "lower"),
    "geometry.curve_distance.self_ms": ("ms", "lower"),
    "geometry.gauss_linking_integral.self_ms": ("ms", "lower"),
    "geometry.ns_per_segment_pair": ("ns", "lower"),
    "diagram.diagram_from_strands.calls": ("count", "lower"),
    "diagram.diagram_from_strands.self_ms": ("ms", "lower"),
    "diagram.diagram_from_strands.degenerate": ("count", "lower"),
    "geometry.projection_useful_ratio": ("ratio", "higher"),
    "geometry.linking_number_3d.self_ms": ("ms", "lower"),
    "geometry.diagram_from_curves.self_ms": ("ms", "lower"),
    "geometry.realize.self_ms": ("ms", "lower"),
    "invariants.kauffman_bracket.calls": ("count", "lower"),
    "invariants.kauffman_bracket.self_ms": ("ms", "lower"),
    "invariants.bracket_states": ("count", "lower"),
    "invariants.classify.self_ms": ("ms", "lower"),
    "invariants.is_brunnian.self_ms": ("ms", "lower"),
    "diagram.to_diagram.calls": ("count", "lower"),
    "diagram.to_diagram.self_ms": ("ms", "lower"),
    "diagram.text.self_ms": ("ms", "lower"),
    "symmetry.orbit_partition.calls": ("count", "lower"),
    "symmetry.orbit_partition.self_ms": ("ms", "lower"),
    "symmetry.orbit_of.self_ms": ("ms", "lower"),
    "symmetry.burnside_count.self_ms": ("ms", "lower"),
    "census.run_census.calls": ("count", "lower"),
    "census.run_census.self_ms": ("ms", "lower"),
    "census.serialize.self_ms": ("ms", "lower"),
    "census.verify_claims.self_ms": ("ms", "lower"),
    "render.svg_diagram.calls": ("count", "lower"),
    "render.svg_diagram.self_ms": ("ms", "lower"),
    "render.svg_scene.self_ms": ("ms", "lower"),
    "render.svg_kb": ("KiB", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(spans, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric as a mean per operation over ``ops`` operations."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    extra: dict[str, int] = {}
    degenerate: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        name, value = span[0], span[5]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if value == "DegeneracyError":
            degenerate[name] = degenerate.get(name, 0) + 1
        elif isinstance(value, int):
            extra[name] = extra.get(name, 0) + value

    def per_op_calls(name):
        return calls.get(name, 0) / ops

    def per_op_ms(*names):
        return sum(self_s.get(n, 0.0) for n in names) * 1e3 / ops

    kernels = ("geometry.curve_distance", "geometry.gauss_linking_integral")
    pairs = sum(extra.get(n, 0) for n in kernels)
    kernel_s = sum(self_s.get(n, 0.0) for n in kernels)
    attempts = calls.get("diagram.diagram_from_strands", 0)
    wasted = degenerate.get("diagram.diagram_from_strands", 0)

    return {
        "geometry.curve_distance.calls": per_op_calls("geometry.curve_distance"),
        "geometry.curve_distance.self_ms": per_op_ms("geometry.curve_distance"),
        "geometry.gauss_linking_integral.self_ms": per_op_ms("geometry.gauss_linking_integral"),
        "geometry.ns_per_segment_pair": kernel_s * 1e9 / pairs if pairs else 0.0,
        "diagram.diagram_from_strands.calls": per_op_calls("diagram.diagram_from_strands"),
        "diagram.diagram_from_strands.self_ms": per_op_ms("diagram.diagram_from_strands"),
        "diagram.diagram_from_strands.degenerate": wasted / ops,
        # With no projection attempted, nothing was wasted.
        "geometry.projection_useful_ratio": (attempts - wasted) / attempts if attempts else 1.0,
        "geometry.linking_number_3d.self_ms": per_op_ms("geometry.linking_number_3d"),
        "geometry.diagram_from_curves.self_ms": per_op_ms("geometry.diagram_from_curves"),
        "geometry.realize.self_ms": per_op_ms("geometry.realize"),
        "invariants.kauffman_bracket.calls": per_op_calls("invariants.kauffman_bracket"),
        "invariants.kauffman_bracket.self_ms": per_op_ms("invariants.kauffman_bracket"),
        "invariants.bracket_states": extra.get("invariants.kauffman_bracket", 0) / ops,
        "invariants.classify.self_ms": per_op_ms("invariants.classify"),
        "invariants.is_brunnian.self_ms": per_op_ms("invariants.is_brunnian"),
        "diagram.to_diagram.calls": per_op_calls("diagram.to_diagram"),
        "diagram.to_diagram.self_ms": per_op_ms("diagram.to_diagram"),
        "diagram.text.self_ms": per_op_ms("diagram.diagram_to_text", "diagram.diagram_from_text"),
        "symmetry.orbit_partition.calls": per_op_calls("symmetry.orbit_partition"),
        "symmetry.orbit_partition.self_ms": per_op_ms("symmetry.orbit_partition"),
        "symmetry.orbit_of.self_ms": per_op_ms("symmetry.orbit_of"),
        "symmetry.burnside_count.self_ms": per_op_ms("symmetry.burnside_count"),
        "census.run_census.calls": per_op_calls("census.run_census"),
        "census.run_census.self_ms": per_op_ms("census.run_census"),
        "census.serialize.self_ms": per_op_ms(
            "census.census_to_json", "census.census_to_csv", "census.census_table"
        ),
        "census.verify_claims.self_ms": per_op_ms("census.verify_claims"),
        "render.svg_diagram.calls": per_op_calls("render.svg_diagram"),
        "render.svg_diagram.self_ms": per_op_ms("render.svg_diagram"),
        "render.svg_scene.self_ms": per_op_ms("render.svg_scene"),
        "render.svg_kb": (
            extra.get("render.svg_diagram", 0) + extra.get("render.svg_scene", 0)
        ) / 1024 / ops,
        "cli.main.self_ms": per_op_ms("cli.main"),
        "trace.overhead_ratio": overhead_ratio,
    }
