"""The orthogonal model: quadrangle of the parabolic quadric in PG(4, q).

Points are the quadric points, lines its totally isotropic lines; the
order is (q, q).  The model keeps the geometric layer alongside, so
hyperplane sections and tangent hyperplanes stay available on quadrangle
point indices.
"""

from __future__ import annotations

from typing import Iterable

from ovoid.geometry import (
    GeometryError,
    Quadric,
    Section,
    SectionType,
    parabolic_quadric,
)
from ovoid.gf import Field
from ovoid.gq import GQ, GQError, uncovered_subquadrangle

HYPERBOLIC_SEED = (1, 0, 0, 0, 0)  # X0 = 0 cuts the split form hyperbolically


class Q4Model:
    """Quadrangle plus geometry for the parabolic quadric."""

    name = "Q4"

    def __init__(self, field: Field):
        self.field = field
        self.quadric: Quadric = parabolic_quadric(field)
        self.gq = GQ(self.quadric.lines(), num_points=len(self.quadric))
        if (self.gq.s, self.gq.t) != (field.q, field.q):
            raise GQError(
                f"expected order ({field.q}, {field.q}), got {(self.gq.s, self.gq.t)}"
            )
        self.hyperbolic_seed: Section = self.quadric.classify_section(HYPERBOLIC_SEED)

    # -- member codec (JSON) -------------------------------------------

    def encode_member(self, i: int) -> list[int]:
        return [int(c) for c in self.quadric.points[i]]

    def decode_member(self, obj: object) -> int:
        if not isinstance(obj, (list, tuple)) or len(obj) != 5:
            raise GeometryError(f"bad member encoding for model Q4: {obj!r}")
        return self.quadric.local_index(tuple(int(c) for c in obj))

    # -- sections ---------------------------------------------------------

    def subquadrangle_section(self, members: Iterable[int]) -> Section:
        """The hyperbolic section carried by the uncovered-line structure.

        Verifies the uncovered lines form a quadrangle of order (q, 1)
        whose points are exactly one hyperplane section of the quadric.
        """
        members = tuple(members)
        sub = uncovered_subquadrangle(self.gq, members)
        q = self.field.q
        if sub.order != (q, 1):
            raise GQError(f"subquadrangle order {sub.order}, expected ({q}, 1)")
        coeffs = self.quadric.hyperplane_through(sub.point_indices)
        section = self.quadric.classify_section(coeffs)
        if section.kind is not SectionType.HYPERBOLIC:
            raise GeometryError(f"uncovered points lie on a {section.kind.value} section")
        if section.point_local != sub.point_indices:
            raise GeometryError("uncovered points are not the full hyperplane section")
        return section


def build_q4_model(field: Field) -> Q4Model:
    return Q4Model(field)
