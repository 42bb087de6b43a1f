"""One frame tolerance: every constructor that checks a frame accepts and refuses the same frames."""

import math

import numpy as np
import pytest

from twonorm import (
    GroupElement,
    ProjectionOperator,
    ReferenceFrame,
    SpaceSpec,
    StiefelOperator,
    build_space,
    frame_unitary,
    gram_pair_from_matrices,
    orthonormal_columns,
    phi,
)
from twonorm.basis import FRAME_TOL, orthonormality_defect
from twonorm.sampling import random_complex, rng_for_trial

SPACES = {
    "grid": build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.25)),
    "grid-0.3": build_space(SpaceSpec(domain_dim=1, grid_points=16, spacing=0.3)),
    "weighted": gram_pair_from_matrices(np.diag(np.linspace(0.5, 2.0, 16)), 4.0 * np.eye(16)),
}


def _checks(F, Xi, g):
    """The five frame checks, each applied to F; Xi is an orthonormal frame of F's shape."""
    return {
        "ReferenceFrame": lambda: ReferenceFrame(F, g),
        "StiefelOperator": lambda: StiefelOperator(F, ReferenceFrame(Xi, g)),
        "ProjectionOperator": lambda: ProjectionOperator(F, g),
        "GroupElement span": lambda: GroupElement(F, np.zeros((F.shape[1],) * 2), g),
        "frame_unitary": lambda: frame_unitary(Xi, F, g),
    }


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("N", [1, 2, 5])
def test_every_frame_check_draws_the_same_line(space, N):
    # (1 + c) Xi has defect ((1 + c)^2 - 1) sqrt(N), about 2c sqrt(N), against
    # the limit FRAME_TOL max(1, sqrt(N)); c sets it at half and twice the limit.
    g = SPACES[space]
    Xi = orthonormal_columns(random_complex(rng_for_trial(N, 0), g.n, N), g)
    for ratio in (0.5, 2.0):
        F = (1.0 + ratio * FRAME_TOL / 2.0) * Xi
        assert orthonormality_defect(F, g) / (FRAME_TOL * max(1.0, math.sqrt(N))) == pytest.approx(ratio, rel=1e-3)
        for name, build in _checks(F, Xi, g).items():
            if ratio < 1.0:
                build()
            else:
                with pytest.raises(ValueError, match="not orthonormal"):
                    build()
                    pytest.fail(f"{name} accepted a frame at twice the tolerance")
    # A point that is accepted has a projection: the quotient map is defined on every point.
    V = StiefelOperator((1.0 + 0.25 * FRAME_TOL) * Xi, ReferenceFrame(Xi, g))
    assert phi(V).N == N
