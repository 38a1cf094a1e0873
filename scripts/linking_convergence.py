#!/usr/bin/env python3
"""Tabulate convergence of the discrete linking integral under refinement.

For each realized curve pair, prints the integral residual against the
combinatorial linking number as the per-curve segment count doubles.
"""

import argparse
import itertools

from trilink import geometry
from trilink.invariants import signed_linking_numbers


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
            print(
                f"  segments={segments:5d}  max residual = {max(residuals):.3e}"
            )
            segments *= 2


if __name__ == "__main__":
    main()
