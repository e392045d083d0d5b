"""The affine model: quadrangle built from a conic in PG(3, q).

Fix the plane at infinity X3 = 0 and the conic C = {(t^2, t, 1, 0)} u
{(1, 0, 0, 0)} inside it (zero set of X1^2 - X0 X2).  The quadrangle of
order (q, q) has three point types:

  (i)   the q^3 affine points (a, b, c, 1),
  (ii)  the q(q + 1) planes meeting C in exactly one point,
  (iii) one extra symbol, written "inf".

Lines are the affine lines that meet C (each carries its q affine points
plus the unique tangent plane through it) and the q + 1 conic points
(each carries its q tangent planes plus the symbol).

Plane labels follow the convention that the plane pi(x, y, z, w) has the
equation y X0 + z X1 + w X2 + x X3 = 0; internally planes are stored as
standard coefficient 4-tuples (y, z, w, x), normalized like points.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ovoid.geometry import GeometryError, ProjectiveSpace
from ovoid.gf import Field, mat_nullspace
from ovoid.gq import GQ, GQError

INF = "inf"


class Conic:
    """The fixed conic in the plane at infinity, with tangent data."""

    def __init__(self, field: Field):
        self.field = field
        f = field
        pts = [(f.mul(t, t), t, 1) for t in f.elements()]
        pts.append((1, 0, 0))
        plane2 = ProjectiveSpace(2, f)
        self.plane = plane2
        self.points: tuple[tuple[int, int, int], ...] = tuple(
            plane2.normalize(p) for p in pts
        )
        self.point_set = frozenset(self.points)
        # tangent line at (p0, p1, p2) from the polar of X1^2 - X0 X2
        self.tangents: tuple[tuple[int, int, int], ...] = tuple(
            plane2.normalize((f.neg(p[2]), f.add(p[1], p[1]), f.neg(p[0])))
            for p in self.points
        )
        self.tangent_set = frozenset(self.tangents)

    def line_meets(self, direction: Sequence[int]) -> int:
        """Number of conic points on the infinity line with these coefficients."""
        f = self.field
        return sum(
            1
            for p in self.points
            if f.add(f.add(f.mul(direction[0], p[0]), f.mul(direction[1], p[1])),
                     f.mul(direction[2], p[2])) == 0
        )

    def classify_directions(self) -> dict[str, list[tuple[int, int, int]]]:
        """Split the infinity lines into tangent, secant and external."""
        buckets: dict[str, list[tuple[int, int, int]]] = {
            "tangent": [],
            "secant": [],
            "external": [],
        }
        for d in self.plane.points:
            m = self.line_meets(d)
            if m == 1:
                buckets["tangent"].append(d)
            elif m == 2:
                buckets["secant"].append(d)
            elif m == 0:
                buckets["external"].append(d)
            else:  # pragma: no cover
                raise GeometryError(f"line {d} meets the conic {m} times")
        return buckets


class T2Model:
    """Quadrangle of order (q, q) on affine points, tangent planes and inf."""

    name = "T2"

    def __init__(self, field: Field):
        self.field = field
        f = field
        q = f.q
        self.conic = Conic(f)

        # -- point enumeration: affines, tangent planes, then inf --------
        affines = list(itertools.product(range(q), repeat=3))
        self.affine_index = {a: i for i, a in enumerate(affines)}
        self.affines = tuple(affines)

        planes: list[tuple[int, int, int, int]] = []
        for tang in self.conic.tangents:
            for x in f.elements():
                planes.append((tang[0], tang[1], tang[2], x))
        planes.sort()
        self.planes = tuple(planes)
        base = len(affines)
        self.plane_index = {pl: base + i for i, pl in enumerate(planes)}
        self.inf_index = base + len(planes)
        num_points = self.inf_index + 1

        labels: list[object] = [("aff", a) for a in affines]
        labels += [("plane", pl) for pl in planes]
        labels.append((INF,))
        self.point_labels = tuple(labels)

        # -- lines --------------------------------------------------------
        lines: list[tuple[int, ...]] = []
        for ci, cpt in enumerate(self.conic.points):
            tang = self.conic.tangents[ci]
            d = cpt  # direction vector of the affine lines toward this point
            for a in affines:
                coset = [self._translate(a, d, t) for t in f.elements()]
                if min(coset) != a:
                    continue
                x = f.neg(
                    f.add(
                        f.add(f.mul(tang[0], a[0]), f.mul(tang[1], a[1])),
                        f.mul(tang[2], a[2]),
                    )
                )
                members = [self.affine_index[c] for c in coset]
                members.append(self.plane_index[(tang[0], tang[1], tang[2], x)])
                lines.append(tuple(members))
        for ci, tang in enumerate(self.conic.tangents):
            members = [self.plane_index[(tang[0], tang[1], tang[2], x)] for x in f.elements()]
            members.append(self.inf_index)
            lines.append(tuple(members))

        self.gq = GQ(lines, num_points=num_points)
        if (self.gq.s, self.gq.t) != (q, q):
            raise GQError(f"expected order ({q}, {q}), got {(self.gq.s, self.gq.t)}")

        # -- canonical hyperbolic grid: X1^2 - X0 X2 - X3^2 ---------------
        # affine part b^2 - ac = 1, plus the x = 0 plane of each tangent pencil
        one = 1
        grid = [
            self.affine_index[(a, b, c)]
            for (a, b, c) in affines
            if f.sub(f.sub(f.mul(b, b), f.mul(a, c)), one) == 0
        ]
        grid += [self.plane_index[(t[0], t[1], t[2], 0)] for t in self.conic.tangents]
        if len(grid) != (q + 1) ** 2:  # pragma: no cover
            raise GeometryError(f"grid has {len(grid)} points, expected {(q + 1) ** 2}")
        self.grid_points = tuple(sorted(grid))

    def _translate(self, a: Sequence[int], d: Sequence[int], t: int) -> tuple[int, int, int]:
        f = self.field
        return (
            f.add(a[0], f.mul(t, d[0])),
            f.add(a[1], f.mul(t, d[1])),
            f.add(a[2], f.mul(t, d[2])),
        )

    # -- member codec (JSON): affine quadruple, plane quadruple, "inf" ----

    def encode_member(self, i: int) -> object:
        """JSON shape: affine [a, b, c, 1], plane {"plane": [x, y, z, w]}, "inf".

        Plane points carry the published (x, y, z, w) labeling but sit
        inside a tagging object: a bare quadruple ending in 1 would be
        ambiguous between an affine point and a plane with w = 1.
        """
        label = self.point_labels[i]
        if label[0] == "aff":
            a, b, c = label[1]
            return [a, b, c, 1]
        if label[0] == "plane":
            y, z, w, x = label[1]
            return {"plane": [x, y, z, w]}
        return INF

    def decode_member(self, obj: object) -> int:
        if obj == INF:
            return self.inf_index
        if isinstance(obj, dict) and set(obj) == {"plane"}:
            x, y, z, w = (int(v) for v in obj["plane"])
            plane = self._normalize_plane(y, z, w, x)
            if plane in self.plane_index:
                return self.plane_index[plane]
            raise GeometryError(f"no tangent plane with label {obj['plane']}")
        if isinstance(obj, (list, tuple)) and len(obj) == 4:
            vec = tuple(int(v) for v in obj)
            if vec[3] != 1:
                raise GeometryError(f"affine quadruples must end in 1: {obj!r}")
            key = (vec[0], vec[1], vec[2])
            if key in self.affine_index:
                return self.affine_index[key]
        raise GeometryError(f"bad member encoding for model T2: {obj!r}")

    def _normalize_plane(self, y: int, z: int, w: int, x: int) -> tuple[int, int, int, int]:
        f = self.field
        lead = next((v for v in (y, z, w) if v), None)
        if lead is None:
            raise GeometryError("plane label needs a nonzero infinity part")
        if lead != 1:
            s = f.inv(lead)
            y, z, w, x = f.mul(s, y), f.mul(s, z), f.mul(s, w), f.mul(s, x)
        return (y, z, w, x)

    # -- the affine set behind a partial ovoid through inf ----------------

    def u_from_k(self, members: Iterable[int]) -> tuple[tuple[int, int, int], ...]:
        """Affine triples of a partial ovoid containing inf.

        Requires inf to be a member and no type (ii) member, and checks
        that no two affine members determine a conic point.
        """
        members = tuple(members)
        if self.inf_index not in members:
            raise GeometryError("the set does not contain inf")
        triples = []
        for i in members:
            if i == self.inf_index:
                continue
            label = self.point_labels[i]
            if label[0] != "aff":
                raise GeometryError(f"member {i} is a plane point, not affine")
            triples.append(label[1])
        bad = self.determined_directions(triples) & self.conic.point_set
        if bad:
            raise GeometryError(f"members determine conic points: {sorted(bad)}")
        return tuple(sorted(triples))

    def k_from_u(self, triples: Iterable[Sequence[int]]) -> tuple[int, ...]:
        """Partial ovoid indices for an affine set joined with inf."""
        members = [self.inf_index]
        for t in triples:
            members.append(self.affine_index[tuple(int(v) for v in t)])
        from ovoid.gq import check_partial_ovoid

        members = tuple(sorted(members))
        if not check_partial_ovoid(self.gq, members):
            raise GQError("affine set does not lift to a partial ovoid")
        return members

    def determined_directions(
        self, triples: Sequence[Sequence[int]]
    ) -> set[tuple[int, int, int]]:
        """Points at infinity determined by secants of the affine set."""
        f = self.field
        pts = [tuple(int(v) for v in t) for t in triples]
        out: set[tuple[int, int, int]] = set()
        for i in range(len(pts)):
            ai = pts[i]
            for j in range(i + 1, len(pts)):
                aj = pts[j]
                diff = (f.sub(ai[0], aj[0]), f.sub(ai[1], aj[1]), f.sub(ai[2], aj[2]))
                out.add(self.conic.plane.normalize(diff))
        return out

    # -- geometric identification of a grid as a quadric surface ----------

    def fit_quadric_surface(self, point_indices: Iterable[int]) -> tuple[int, ...]:
        """Fit a quadric surface through the affine points of a grid.

        Returns the ten coefficients (lex monomial order on X0..X3) of the
        unique quadratic form vanishing on the given affine points, and
        checks its restriction to the plane at infinity is the conic form.
        """
        f = self.field
        monos = list(itertools.combinations_with_replacement(range(4), 2))
        rows = []
        for i in point_indices:
            label = self.point_labels[i]
            if label[0] != "aff":
                continue
            vec = label[1] + (1,)
            rows.append([f.mul(vec[a], vec[b]) for a, b in monos])
        basis = mat_nullspace(f, rows)
        if len(basis) != 1:
            raise GeometryError(
                f"affine grid points fit {len(basis)} quadric surfaces, expected 1"
            )
        coeffs = basis[0]
        # restriction to X3 = 0 keeps monomials without index 3
        restriction = {
            mono: c for mono, c in zip(monos, coeffs) if 3 not in mono
        }
        # must be proportional to X1^2 - X0 X2
        c11 = restriction[(1, 1)]
        c02 = restriction[(0, 2)]
        if c11 == 0 or f.add(c11, c02) != 0:
            raise GeometryError("infinity trace is not the conic form")
        for mono in ((0, 0), (0, 1), (1, 2), (2, 2)):
            if restriction[mono] != 0:
                raise GeometryError("infinity trace is not the conic form")
        return coeffs


def build_t2_model(field: Field) -> T2Model:
    return T2Model(field)
