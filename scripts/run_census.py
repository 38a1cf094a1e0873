#!/usr/bin/env python3
"""Run the full census and write every export format to an output directory.

With ``--verify`` the claim-verification report is written too, and the
exit status is 1 if any check fails, as for ``trilink verify``.
"""

import argparse
from pathlib import Path

from trilink.census import (
    census_summary,
    census_table,
    census_to_csv,
    census_to_json,
    run_census,
    verify_claims,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--outdir", type=Path, default=Path("out"))
    parser.add_argument(
        "--verify", action="store_true", help="also run the claim-verification suite"
    )
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    records = run_census()
    summary = census_summary(records)
    (args.outdir / "census.csv").write_text(census_to_csv(records))
    (args.outdir / "census.json").write_text(census_to_json(records))
    (args.outdir / "census.txt").write_text(census_table(records))
    print(f"wrote census exports to {args.outdir}/")
    print(
        f"{summary.orbit_count} patterns, "
        f"{summary.total_depictions} depictions, per-type orbits: "
        + ", ".join(
            f"{t.value}={n}" for t, n in summary.per_type_orbit_counts.items()
        )
    )
    if args.verify:
        report = verify_claims()
        (args.outdir / "verification.txt").write_text(report.to_text())
        print(report.to_text())
        return 0 if report.all_passed else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
