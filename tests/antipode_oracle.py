"""Geometric antipodes across a hyperbolic section, as a test oracle.

The program pairs off-grid points with ``ovoid.search.antipode_pairs``,
which works on collinearity bitsets alone.  This oracle computes the same
partners from the quadric: the q + 1 section points collinear with a
point form a conic, and intersecting the tangent hyperplanes of all conic
points cuts the quadric in exactly two points, the given one and its
partner.
"""

import numpy as np

from ovoid.geometry import SectionType


def geometric_antipode_map(quadric, section) -> np.ndarray:
    """Antipode partner for every quadric point, -1 on the section itself."""
    assert section.kind is SectionType.HYPERBOLIC
    on = np.zeros(quadric.size, dtype=bool)
    on[list(section.point_local)] = True
    out = np.full(quadric.size, -1, dtype=np.int64)
    for i in np.flatnonzero(~on):
        conic = np.flatnonzero(on & quadric.collinear[i])
        assert len(conic) == quadric.field.q + 1
        common = np.logical_and.reduce(quadric.collinear[conic])
        common[i] = False
        (partner,) = np.flatnonzero(common)
        assert not on[partner]
        out[i] = partner
    return out
