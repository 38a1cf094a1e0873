import math

import numpy as np
import pytest

from trilink import geometry as G
from trilink.census import census_diagrams, run_census, verify_claims


@pytest.fixture(scope="session")
def all_diagrams():
    return dict(enumerate(census_diagrams()))


@pytest.fixture(scope="session")
def circle_pair():
    """``circle_pair(kind, segments)``: two unit circles as a realization.

    ``"hopf"``: in orthogonal planes, each through the other's center.
    ``"separated"``: far apart in parallel planes (a split pair).
    """

    def build(kind: str, segments: int) -> G.Realization3D:
        t = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
        zero = np.zeros_like(t)
        first = np.stack([np.cos(t), np.sin(t), zero], axis=1)
        if kind == "hopf":
            second = np.stack([1.0 + np.cos(t), zero, np.sin(t)], axis=1)
        else:
            second = np.stack([4.0 + np.cos(t), np.sin(t), zero + 2.0], axis=1)
        curves = (G.PolyCurve3("A", first), G.PolyCurve3("B", second))
        return G.Realization3D(curves=curves, kind=f"{kind}-circles")

    return build


@pytest.fixture(scope="session")
def census_records():
    return run_census()


@pytest.fixture(scope="session")
def verification_report():
    return verify_claims()
