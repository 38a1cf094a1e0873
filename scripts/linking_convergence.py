#!/usr/bin/env python3
"""Tabulate convergence of the discrete linking integral under refinement.

For each realized curve pair, prints the integral residual against the
combinatorial linking number as the per-curve segment count doubles, and
the best of 3 wall times of one ``gauss_linking_integral`` call on the
first pair at that segment count.
"""

import argparse
import itertools
import time

from trilink import geometry
from trilink.invariants import signed_linking_numbers


def _seconds(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-segments", type=int, default=64)
    parser.add_argument("--doublings", type=int, default=5)
    args = parser.parse_args()

    for kind in geometry.REALIZE_KINDS:
        print(f"== {kind}")
        segments = args.min_segments
        for _ in range(args.doublings):
            realization = geometry.realize(kind, segments=segments)
            lks = signed_linking_numbers(geometry.diagram_from_curves(realization))
            residuals = [
                abs(geometry.gauss_linking_integral(a, b) - lks[frozenset((a.label, b.label))])
                for a, b in itertools.combinations(realization.curves, 2)
            ]
            a, b = realization.curves[:2]
            best_ms = 1e3 * min(_seconds(geometry.gauss_linking_integral, a, b) for _ in range(3))
            print(
                f"  segments={segments:5d}  max residual = {max(residuals):.3e}"
                f"  gauss = {best_ms:.3f} ms"
            )
            segments *= 2


if __name__ == "__main__":
    main()
