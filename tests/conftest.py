"""Surface models shared by the surface test modules."""

from fractions import Fraction as F

import pytest

from slopeflow.surface_lattice import DivisorClass, SurfaceModel
from slopeflow.surface_slopes import blowup_plane_model


@pytest.fixture(scope="module")
def blp2():
    """Plane blown up in one point, basis (H, -E)."""
    return blowup_plane_model()


@pytest.fixture(scope="module")
def two_point():
    """Plane blown up in two points, basis (H, -E1, -E2)."""
    one, zero = F(1), F(0)
    return SurfaceModel(
        basis_labels=("H", "-E1", "-E2"),
        form=(
            (one, zero, zero),
            (zero, -one, zero),
            (zero, zero, -one),
        ),
        curves=(
            DivisorClass((zero, -one, zero)),   # E1
            DivisorClass((zero, zero, -one)),   # E2
            DivisorClass((one, one, one)),      # H - E1 - E2
            DivisorClass((one, one, zero)),     # H - E1
            DivisorClass((one, zero, one)),     # H - E2
        ),
        kahler_ref=DivisorClass((F(3), one, one)),
    )
