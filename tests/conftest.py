import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from trajprior.core import MAX_COORD, Trajectory, TrajectorySet

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def random_trajectory(rng, n_points=None, scale=10.0, tid="t"):
    n = n_points if n_points is not None else int(rng.integers(2, 8))
    return Trajectory(tid, rng.normal(0.0, scale, (n, 2)))


def random_set(rng, m, **kw):
    return TrajectorySet.of(random_trajectory(rng, tid=f"t{i}", **kw)
                            for i in range(m))


def packed(arrays):
    """(n, 2) arrays laid end to end as frechet_dp reads its candidates,
    ``points`` and ``offsets``; unchecked, so a candidate may hold one point."""
    points = np.concatenate(arrays) if len(arrays) else np.empty((0, 2))
    return SimpleNamespace(points=points, offsets=np.cumsum([0] + [len(b) for b in arrays]))


# Point arrays core._as_points refuses, so every public function taking raw
# points must raise ContractError for them: not finite, a coordinate beyond
# MAX_COORD, or not shaped (n, 2).
INVALID_POINTS = {
    "nan": [[0.0, 0.0], [np.nan, 1.0]],
    "inf": [[0.0, 0.0], [np.inf, 1.0]],
    "-inf": [[0.0, 0.0], [1.0, -np.inf]],
    "1e200": [[1e200, 1e200], [-1e200, -1e200]],
    "above_max_coord": [[0.0, 0.0], [np.nextafter(MAX_COORD, np.inf), 1.0]],
    "shape_3": np.zeros(3),
    "shape_2x3": np.zeros((2, 3)),
}
