"""Projective geometry over GF(q): point enumeration, quadratic forms,
quadrics and their hyperplane sections.

Points of PG(n, q) are coordinate tuples normalized so the first nonzero
coordinate is 1, enumerated in lexicographic order of the normalized
tuples.  Hyperplanes use the same canonical tuples, read as equation
coefficients: a point v lies on the hyperplane with coefficients c iff
sum_i c_i * v_i = 0.

A quadric computes its tangent hyperplanes for all points at once, by
gathers through the field's addition and multiplication tables, and its
collinearity matrix by the field's pairing kernel (``vanishing_pairs``).
It reads each of its lines as {i, j}⊥, the common neighbours of two
collinear points.  The scalar methods (``normalize``, ``pairing``,
``QuadraticForm.polar``) serve single queries and tests.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ovoid.gf import Field, mat_nullspace


class GeometryError(ValueError):
    """Raised for malformed geometric objects or illegal queries."""


class SectionType(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    CONE = "cone"


class ProjectiveSpace:
    """PG(n, q) with a fixed, deterministic point enumeration."""

    def __init__(self, n: int, field: Field):
        if n < 1:
            raise GeometryError(f"projective dimension must be >= 1, got {n}")
        self.n = n
        self.field = field
        q = field.q
        pts: list[tuple[int, ...]] = []
        # leading one in position i, free coordinates after it; later leading
        # positions are lexicographically smaller, so emit them first
        for lead in range(n, -1, -1):
            prefix = (0,) * lead + (1,)
            for tail in itertools.product(range(q), repeat=n - lead):
                pts.append(prefix + tail)
        pts.sort()
        self.points: tuple[tuple[int, ...], ...] = tuple(pts)
        self._index = {pt: i for i, pt in enumerate(pts)}
        self.coords = np.array(pts, dtype=np.int16)

    def __len__(self) -> int:
        return len(self.points)

    def normalize(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Scale a nonzero vector so its first nonzero coordinate is 1."""
        vec = tuple(int(v) for v in vec)
        if len(vec) != self.n + 1:
            raise GeometryError(f"expected {self.n + 1} coordinates, got {len(vec)}")
        lead = next((v for v in vec if v != 0), None)
        if lead is None:
            raise GeometryError("the zero vector spans no projective point")
        if lead == 1:
            return vec
        f = self.field
        scale = f.inv(lead)
        return tuple(f.mul(scale, v) for v in vec)

    def index(self, vec: Sequence[int]) -> int:
        return self._index[self.normalize(vec)]

    def pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        f = self.field
        acc = 0
        for a, b in zip(u, v):
            acc = f.add(acc, f.mul(a, b))
        return acc


class QuadraticForm:
    """A quadratic form sum_{i<=j} c[i][j] X_i X_j over GF(q), q odd."""

    def __init__(self, field: Field, coeffs: Sequence[Sequence[int]]):
        n1 = len(coeffs)
        self.field = field
        self.nvars = n1
        self.coeffs = [[0] * n1 for _ in range(n1)]
        for i in range(n1):
            for j in range(n1):
                c = int(coeffs[i][j])
                if c and j < i:
                    raise GeometryError("coefficients must be upper triangular")
                if not 0 <= c < field.q:
                    raise GeometryError(f"coefficient {c} is not a field element")
                self.coeffs[i][j] = c
        # polar bilinear form b(u, v) = Q(u+v) - Q(u) - Q(v), matrix C + C^T
        f = field
        self.polar_matrix = [
            [f.add(self.coeffs[i][j], self.coeffs[j][i]) for j in range(n1)]
            for i in range(n1)
        ]
        self._polar_np = np.array(self.polar_matrix, dtype=np.int16)

    def evaluate(self, vec: Sequence[int]) -> int:
        f = self.field
        acc = 0
        for i in range(self.nvars):
            vi = vec[i]
            if not vi:
                continue
            for j in range(i, self.nvars):
                c = self.coeffs[i][j]
                if c:
                    acc = f.add(acc, f.mul(c, f.mul(vi, vec[j])))
        return acc

    def evaluate_all(self, coords: np.ndarray) -> np.ndarray:
        f = self.field
        acc = np.zeros(coords.shape[0], dtype=np.int16)
        for i in range(self.nvars):
            for j in range(i, self.nvars):
                c = self.coeffs[i][j]
                if c:
                    term = f.mul_arr(f.mul_arr(coords[:, i], coords[:, j]), c)
                    acc = f.add_arr(acc, term)
        return acc

    def polar(self, u: Sequence[int], v: Sequence[int]) -> int:
        f = self.field
        acc = 0
        for i in range(self.nvars):
            if u[i]:
                for j in range(self.nvars):
                    b = self.polar_matrix[i][j]
                    if b and v[j]:
                        acc = f.add(acc, f.mul(u[i], f.mul(b, v[j])))
        return acc

    def polar_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        """B * v, the coefficient vector of the tangent hyperplane at v."""
        f = self.field
        out = []
        for row in self.polar_matrix:
            acc = 0
            for b, x in zip(row, vec):
                acc = f.add(acc, f.mul(b, x))
            out.append(acc)
        return tuple(out)

    def radical_points(self, space: ProjectiveSpace) -> list[tuple[int, ...]]:
        """Projective points in the radical of the polar form."""
        basis = mat_nullspace(self.field, self.polar_matrix)
        if not basis:
            return []
        pts = set()
        f = self.field
        for combo in itertools.product(f.elements(), repeat=len(basis)):
            vec = [0] * self.nvars
            for c, b in zip(combo, basis):
                if c:
                    for k in range(self.nvars):
                        vec[k] = f.add(vec[k], f.mul(c, b[k]))
            if any(vec):
                pts.add(space.normalize(vec))
        return sorted(pts)

    def is_nonsingular(self, space: ProjectiveSpace) -> bool:
        """True when no singular point lies on the quadric itself."""
        return not any(
            self.evaluate(pt) == 0 for pt in self.radical_points(space)
        )


def parabolic_form(field: Field) -> QuadraticForm:
    """X0^2 + X1 X2 + X3 X4, the split nonsingular form in five variables."""
    coeffs = [[0] * 5 for _ in range(5)]
    coeffs[0][0] = 1
    coeffs[1][2] = 1
    coeffs[3][4] = 1
    return QuadraticForm(field, coeffs)


@dataclass(frozen=True)
class Section:
    """One hyperplane section of a quadric."""

    kind: SectionType
    coeffs: tuple[int, ...]
    point_local: tuple[int, ...]  # quadric-local indices, ascending


class Quadric:
    """Point set of a nonsingular quadric with its incidence machinery.

    Quadric points carry two indexings: their index in the ambient space
    enumeration and a dense local index 0..N-1 (ascending in the ambient
    order).  All line and collinearity structures use local indices.
    """

    def __init__(self, space: ProjectiveSpace, form: QuadraticForm):
        if form.nvars != space.n + 1:
            raise GeometryError("form arity does not match the ambient space")
        if not form.is_nonsingular(space):
            raise GeometryError("the quadric is singular")
        self.space = space
        self.form = form
        self.field = space.field
        values = form.evaluate_all(space.coords)
        self.space_indices = np.flatnonzero(values == 0)
        self.points: tuple[tuple[int, ...], ...] = tuple(
            space.points[i] for i in self.space_indices
        )
        self.coords = space.coords[self.space_indices]
        self._local = {pt: i for i, pt in enumerate(self.points)}
        n = len(self.points)
        self.size = n

        # tangent hyperplane (perp) coefficients per point: B v for every
        # point at once (nonzero, as q is odd and the quadric nonsingular),
        # each row scaled by the inverse of its leading entry
        f = self.field
        perps = np.stack(
            [f.dot_arr(self.coords, row) for row in form.polar_matrix], axis=1
        )
        lead = perps[np.arange(n), (perps != 0).argmax(axis=1)]
        self.perps = f._mul_np[f._inv_np[lead][:, None], perps]

        # collinearity: two quadric points span a line on the quadric iff
        # their polar pairing vanishes
        coll = f.vanishing_pairs(self.perps, self.coords)
        if not np.array_equal(coll, coll.T):  # pragma: no cover
            raise GeometryError("collinearity matrix is not symmetric")
        self.collinear = coll

    def __len__(self) -> int:
        return self.size

    def local_index(self, vec: Sequence[int]) -> int:
        pt = self.space.normalize(vec)
        try:
            return self._local[pt]
        except KeyError:
            raise GeometryError(f"{pt} is not on the quadric") from None

    def perp(self, i: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.perps[i])

    # -- totally isotropic lines ---------------------------------------

    def lines(self) -> list[tuple[int, ...]]:
        """All lines contained in the quadric, as sorted local index tuples.

        The line through two collinear points i and j is {i, j}⊥, the
        points collinear with both: a quadric without planes (a quadrangle
        has no triangles) has no other common neighbours, and a perp of
        any other size is refused.  Each line is read once, from its least
        point: reading a line clears all of its point pairs from a working
        copy of the collinearity matrix, so later points only see partners
        on lines not yet read.
        """
        coll = self.collinear
        unseen = coll.copy()
        np.fill_diagonal(unseen, False)
        size = self.field.q + 1
        out: list[tuple[int, ...]] = []
        for i in range(self.size):
            row = unseen[i]
            while row.any():
                j = int(row.argmax())
                idx = np.flatnonzero(coll[i] & coll[j])
                if len(idx) != size:
                    raise GeometryError(
                        f"points {i} and {j} have {len(idx)} common neighbours, "
                        f"not the {size} points of a line"
                    )
                unseen[idx[:, None], idx] = False
                out.append(tuple(idx.tolist()))
        out.sort()
        return out

    # -- hyperplane sections -------------------------------------------

    def section_mask(self, coeffs: Sequence[int]) -> np.ndarray:
        vec = self.space.normalize(coeffs)
        return self.field.dot_arr(self.coords, vec) == 0

    def classify_section(self, coeffs: Sequence[int]) -> Section:
        """Classify a hyperplane by the size of its quadric section."""
        if self.space.n != 4:
            raise GeometryError("section classification expects PG(4, q)")
        mask = self.section_mask(coeffs)
        count = int(mask.sum())
        q = self.field.q
        kinds = {
            q * q + 1: SectionType.ELLIPTIC,
            (q + 1) ** 2: SectionType.HYPERBOLIC,
            q * q + q + 1: SectionType.CONE,
        }
        if count not in kinds:
            raise GeometryError(f"unexpected section size {count}")
        return Section(
            kind=kinds[count],
            coeffs=self.space.normalize(coeffs),
            point_local=tuple(int(x) for x in np.flatnonzero(mask)),
        )

    def hyperplane_through(self, local_indices: Iterable[int]) -> tuple[int, ...]:
        """The unique hyperplane containing the given points, if it exists."""
        rows = [list(self.points[i]) for i in local_indices]
        basis = mat_nullspace(self.field, rows)
        if len(basis) != 1:
            raise GeometryError(
                f"points span a flat of codimension {len(basis)}, not a hyperplane"
            )
        return self.space.normalize(basis[0])


def parabolic_quadric(field: Field) -> Quadric:
    """The parabolic quadric in PG(4, q) with the canonical split form."""
    return Quadric(ProjectiveSpace(4, field), parabolic_form(field))
