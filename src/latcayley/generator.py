"""Seeded random lattice polytope generation for campaigns and fuzzing."""

from __future__ import annotations

import random

from .geometry import GeometryError
from .polytope import LatticePolytope, from_vertices

_MAX_RESAMPLES = 200


def random_lattice_polytope(
    seed: int,
    ambient_dim: int,
    dim: int,
    coord_bound: int = 4,
    n_points: int | None = None,
) -> LatticePolytope:
    """Hull of random integer points with the requested hull dimension.

    Points are drawn from [-coord_bound, coord_bound] in the first ``dim``
    coordinates (zero elsewhere) and resampled until the hull reaches ``dim``.
    Same arguments, same polytope.
    """
    if dim > ambient_dim:
        raise GeometryError("dim cannot exceed ambient_dim")
    if dim < 0 or ambient_dim < 1:
        raise GeometryError("need ambient_dim >= 1 and dim >= 0")
    if coord_bound < 0:
        raise GeometryError(f"coord_bound must be nonnegative, got {coord_bound}")
    k = n_points if n_points is not None else dim + 2
    if k < dim + 1:
        raise GeometryError("n_points must be at least dim+1")
    rng = random.Random(seed)
    pad = (0,) * (ambient_dim - dim)
    for _ in range(_MAX_RESAMPLES):
        pts = [
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(dim)) + pad
            for _ in range(k)
        ]
        P = from_vertices(pts)
        if P.dim == dim:
            return P
    raise GeometryError(
        f"could not reach hull dimension {dim} after {_MAX_RESAMPLES} resamples"
    )
