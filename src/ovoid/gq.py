"""Finite generalized quadrangles as abstract point-line incidences.

A structure of order (s, t) has s + 1 points per line, t + 1 lines per
point, two points on at most one common line, and for every non-incident
point-line pair (x, L) exactly one point of L collinear with x.  Points
are dense integer indices; lines are sorted index tuples.  Collinearity
masks are Python ints used as bitsets (bit i of ``collinear_bits[j]`` is
set iff i == j or the two points share a line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np


class GQError(ValueError):
    """Raised when a structure violates the quadrangle axioms."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


def verify_gq(num_points: int, lines: Sequence[tuple[int, ...]]) -> tuple[int, int]:
    """Check the quadrangle axioms exhaustively and return the order (s, t)."""
    if not lines:
        raise GQError("no lines")
    sizes = {len(line) for line in lines}
    if len(sizes) != 1:
        raise GQError(f"line sizes vary: {sorted(sizes)}")
    s = sizes.pop() - 1
    if s < 1:
        raise GQError("lines must carry at least two points")

    degrees = [0] * num_points
    for line in lines:
        for i in line:
            degrees[i] += 1
    degs = set(degrees)
    if len(degs) != 1:
        thin = degrees.index(min(degs))
        raise GQError(
            f"point degrees vary: {sorted(degs)}", witness={"point": thin}
        )
    t = degs.pop() - 1
    if t < 1:
        raise GQError("points must lie on at least two lines")

    if num_points != (s + 1) * (s * t + 1):
        raise GQError(
            f"{num_points} points, expected (s+1)(st+1) = {(s + 1) * (s * t + 1)}"
        )
    if len(lines) != (t + 1) * (s * t + 1):
        raise GQError(
            f"{len(lines)} lines, expected (t+1)(st+1) = {(t + 1) * (s * t + 1)}"
        )

    # at most one common line per point pair, tracked while building the
    # collinearity matrix (diagonal set for the axiom-three sums below)
    coll = np.eye(num_points, dtype=bool)
    for li, line in enumerate(lines):
        for a in range(len(line)):
            for b in range(a + 1, len(line)):
                i, j = line[a], line[b]
                if i == j:
                    raise GQError(f"line {li} repeats point {i}", witness={"line": li})
                if coll[i, j]:
                    raise GQError(
                        f"points {i} and {j} lie on two common lines",
                        witness={"points": (i, j)},
                    )
                coll[i, j] = True
                coll[j, i] = True

    # axiom three: for x not on L, exactly one point of L is collinear with
    # x; with the diagonal set, points on L see s + 1 line members
    for li, line in enumerate(lines):
        counts = coll[list(line)].sum(axis=0, dtype=np.int32)
        on_line = np.zeros(num_points, dtype=bool)
        on_line[list(line)] = True
        bad = np.flatnonzero(~on_line & (counts != 1))
        if len(bad):
            x = int(bad[0])
            raise GQError(
                f"point {x} sees {int(counts[x])} points of line {li}, expected 1",
                witness={"point": x, "line": li},
            )
    return s, t


class GQ:
    """A verified generalized quadrangle with cached incidence bitsets."""

    def __init__(
        self, lines: Sequence[Sequence[int]], num_points: Optional[int] = None
    ):
        lines = tuple(tuple(sorted(int(i) for i in line)) for line in lines)
        if num_points is None:
            num_points = 1 + max(max(line) for line in lines)
        self.num_points = num_points
        self.lines = lines
        self.s, self.t = verify_gq(num_points, lines)

        self.point_lines: tuple[tuple[int, ...], ...] = tuple(
            map(tuple, _invert_incidence(num_points, lines))
        )
        self.line_masks: tuple[int, ...] = tuple(
            sum(1 << i for i in line) for line in lines
        )
        bits = [1 << i for i in range(num_points)]
        for mask, line in zip(self.line_masks, lines):
            for i in line:
                bits[i] |= mask
        self.collinear_bits: tuple[int, ...] = tuple(bits)
        self.full_mask = (1 << num_points) - 1

    def collinear(self, i: int, j: int) -> bool:
        return bool((self.collinear_bits[i] >> j) & 1)


def _invert_incidence(num_points, lines):
    out = [[] for _ in range(num_points)]
    for li, line in enumerate(lines):
        for i in line:
            out[i].append(li)
    return out


def grid_gq(s: int) -> GQ:
    """The (s+1) x (s+1) grid: the generic quadrangle of order (s, 1)."""
    n = s + 1
    rows = [tuple(r * n + c for c in range(n)) for r in range(n)]
    cols = [tuple(r * n + c for r in range(n)) for c in range(n)]
    return GQ(rows + cols, num_points=n * n)


# ----------------------------------------------------------------------
# partial ovoids
# ----------------------------------------------------------------------

@dataclass
class PartialOvoid:
    """A set of pairwise non-collinear points of a quadrangle."""

    gq: GQ = field(repr=False)
    members: tuple[int, ...] = ()
    maximal: Optional[bool] = None

    def __post_init__(self):
        self.members = tuple(sorted(int(i) for i in self.members))

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.members)

    def __len__(self) -> int:
        return len(self.members)


def check_partial_ovoid(gq: GQ, members: Iterable[int]) -> bool:
    """True iff no line carries two of the given points."""
    mask = 0
    for i in members:
        mask |= 1 << int(i)
    return all((mask & lm).bit_count() <= 1 for lm in gq.line_masks)


def extension_bits(gq: GQ, members: Iterable[int]) -> int:
    """Bitset of points that extend the set to a larger partial ovoid."""
    members = tuple(members)
    covered = 0
    for i in members:
        covered |= gq.collinear_bits[i]
    return gq.full_mask & ~covered


def is_maximal(gq: GQ, members: Iterable[int]) -> tuple[bool, tuple[int, ...]]:
    """Maximality flag plus the extension witnesses when not maximal."""
    free = extension_bits(gq, members)
    witnesses = []
    while free:
        low = free & -free
        witnesses.append(low.bit_length() - 1)
        free ^= low
    return (not witnesses), tuple(witnesses)


@dataclass
class SubQuadrangle:
    """The substructure carried by the lines missing a partial ovoid."""

    point_indices: tuple[int, ...]  # parent point indices, ascending
    line_indices: tuple[int, ...]  # parent line indices, ascending
    gq: GQ  # reindexed copy, verified

    @property
    def order(self) -> tuple[int, int]:
        return (self.gq.s, self.gq.t)


def uncovered_subquadrangle(gq: GQ, members: Iterable[int]) -> SubQuadrangle:
    """Extract and verify the quadrangle on the lines avoiding the set.

    For a maximal partial ovoid of size st - t/s in a quadrangle of order
    (s, t) the uncovered lines form a subquadrangle of order (s, t/s); the
    extracted structure is re-verified from scratch, so any deviation
    raises GQError.
    """
    members = tuple(sorted(set(int(i) for i in members)))
    if not check_partial_ovoid(gq, members):
        raise GQError("not a partial ovoid")
    mask = sum(1 << i for i in members)
    line_idx = tuple(
        li for li, lm in enumerate(gq.line_masks) if not (lm & mask)
    )
    if not line_idx:
        raise GQError("every line is covered; the set is an ovoid")
    pts = sorted({i for li in line_idx for i in gq.lines[li]})
    remap = {p: k for k, p in enumerate(pts)}
    sub_lines = [tuple(remap[i] for i in gq.lines[li]) for li in line_idx]
    sub = GQ(sub_lines, num_points=len(pts))
    return SubQuadrangle(
        point_indices=tuple(pts), line_indices=line_idx, gq=sub
    )
