"""Hyperplane-section census of a partial ovoid in the orthogonal model.

Every hyperplane of PG(4,q) cuts the quadric in an elliptic quadric
(q^2 + 1 points), a hyperbolic quadric ((q+1)^2 points) or a cone
(q^2 + q + 1 points).  The census walks all (q^5 - 1)/(q - 1) hyperplanes,
classifies each section, counts how many members of the point set it
contains, and tags sections holding both a member and that member's
antipode with respect to the set's own uncovered grid section.

A section is classified from the hyperplane's pole rather than its size,
by gathers through the field's tables.  Members are counted from a
hyperplanes x members incidence array built by the field's pairing kernel
(``Field.vanishing_pairs``, blocked float32 products over GF(p)), so no
hyperplane is ever met against all quadric points.  The double-count
check alone meets the hyperplanes through one point against every
quadric point, through the same kernel.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from ovoid.geometry import GeometryError, Section, SectionType
from ovoid.gf import mat_rref
from ovoid.gq import check_partial_ovoid
from ovoid.q4 import Q4Model
from ovoid.redei import residue_set
from ovoid.search import antipode_pairs

# distinct |elliptic section ∩ K| values for the size-(q^2 - 1) examples,
# and the two values realizing the antipode-pair residue -3 mod q
EXPECTED_DISTINCT_ELLIPTIC = {
    5: frozenset({0, 2, 3, 5, 8, 12}),
    7: frozenset({2, 3, 4, 6, 9, 10, 18}),
    11: frozenset({0, 4, 5, 8, 9, 10, 11, 15, 16, 20, 30}),
}
EXPECTED_MINUS3_VALUES = {
    5: frozenset({2, 12}),
    7: frozenset({4, 18}),
    11: frozenset({8, 30}),
}


# the codes returned by pole_section_kinds index this tuple
SECTION_TYPES = (SectionType.ELLIPTIC, SectionType.HYPERBOLIC, SectionType.CONE)


class CensusError(ValueError):
    """Raised for malformed census inputs."""


@dataclass
class CensusReport:
    q: int
    k_size: int
    histograms: dict[SectionType, dict[int, int]]
    # per (section type, |section ∩ K|, contains pair) counts; the
    # contains-a-member split is recoverable as size > 0
    pair_histograms: dict[SectionType, dict[int, int]]
    num_hyperplanes: int

    def type_total(self, kind: SectionType) -> int:
        return sum(self.histograms.get(kind, {}).values())

    @property
    def distinct_elliptic(self) -> frozenset[int]:
        return frozenset(self.histograms.get(SectionType.ELLIPTIC, {}))

    @property
    def distinct_elliptic_meeting(self) -> frozenset[int]:
        return frozenset(
            v for v in self.histograms.get(SectionType.ELLIPTIC, {}) if v > 0
        )

    @property
    def minus3_values(self) -> frozenset[int]:
        """Distinct |section ∩ K| over elliptic sections with an antipode pair."""
        return frozenset(self.pair_histograms.get(SectionType.ELLIPTIC, {}))

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "k_size": self.k_size,
            "num_hyperplanes": self.num_hyperplanes,
            "histograms": {
                kind.name.lower(): {str(k): v for k, v in sorted(hist.items())}
                for kind, hist in self.histograms.items()
            },
            "pair_histograms": {
                kind.name.lower(): {str(k): v for k, v in sorted(hist.items())}
                for kind, hist in self.pair_histograms.items()
            },
            "distinct_elliptic": sorted(self.distinct_elliptic),
            "minus3_values": sorted(self.minus3_values),
        }


def _partner_pairs(model: Q4Model, section: Section) -> list[tuple[int, int]]:
    """Antipode pairs (i, j), i < j, across a hyperbolic section."""
    if section.kind is not SectionType.HYPERBOLIC:
        raise GeometryError("antipodes need a hyperbolic section")
    return antipode_pairs(model.gq, section.point_local)


def _antipode_pairs_within(
    model: Q4Model, section: Section, members: tuple[int, ...]
) -> list[tuple[int, int]]:
    """Unordered member pairs (i, j), i < j, that are antipodal partners."""
    member_set = set(members)
    return [
        (i, j)
        for i, j in _partner_pairs(model, section)
        if i in member_set and j in member_set
    ]


def pole_section_kinds(quadric) -> np.ndarray:
    """Section type of every hyperplane, as an index into SECTION_TYPES.

    The hyperplane h is the polar hyperplane of its pole c = B^-1 h, with
    B the polar matrix of the form Q.  Q(c) = 0 makes the section a cone
    with vertex c; otherwise the section is a nonsingular quadric in
    c-perp whose kind follows the square class of Q(c).  For the split
    form X0^2 + X1 X2 + X3 X4 a nonzero square gives a hyperbolic and a
    non-square an elliptic section.
    """
    f = quadric.field
    size = quadric.form.nvars
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    rref, pivots = mat_rref(
        f, [list(row) + ident for row, ident in zip(quadric.form.polar_matrix, identity)]
    )
    if pivots != list(range(size)):
        raise GeometryError("the polar form is degenerate")
    inverse = [row[size:] for row in rref]
    hyper = quadric.space.coords
    poles = np.stack([f.dot_arr(hyper, row) for row in inverse], axis=1)
    values = quadric.form.evaluate_all(poles)
    elliptic, hyperbolic, cone = range(3)
    kinds = np.where(f._square_np[values], hyperbolic, elliptic)
    return np.where(values == 0, cone, kinds)


def run_census(
    model: Q4Model,
    members: Iterable[int],
    section: Optional[Section] = None,
) -> CensusReport:
    """Classify every hyperplane section and histogram its member count.

    When no grid section is supplied and the set has the critical size
    q^2 - 1, the section is recovered from the set's uncovered lines.
    Without a section (e.g. for an ovoid) the pair histograms are empty.
    """
    members = tuple(sorted(int(i) for i in members))
    gq = model.gq
    if not check_partial_ovoid(gq, members):
        raise CensusError("input is not a partial ovoid")
    f = model.field
    q = f.q
    quadric = model.quadric

    if section is None and len(members) == q * q - 1:
        section = model.subquadrangle_section(members)

    hyper = quadric.space.coords  # (num_hyperplanes, 5) dual vectors
    kinds = pole_section_kinds(quadric)
    on = f.vanishing_pairs(hyper, quadric.coords[list(members)])
    # one code per hyperplane for the pair (section type, member count)
    codes = kinds * (len(members) + 1) + on.sum(axis=1)
    pairs = np.zeros((0, 2), dtype=np.int64)
    if section is not None:
        column = {m: c for c, m in enumerate(members)}
        pairs = np.array(
            [(column[i], column[j]) for i, j in _antipode_pairs_within(model, section, members)],
            dtype=np.int64,
        ).reshape(-1, 2)
    has_pair = (on[:, pairs[:, 0]] & on[:, pairs[:, 1]]).any(axis=1)

    def histogram(subset: np.ndarray) -> dict[SectionType, dict[int, int]]:
        hist: dict[SectionType, dict[int, int]] = {kind: {} for kind in SectionType}
        keys, counts = np.unique(subset, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            kind, kc = divmod(key, len(members) + 1)
            hist[SECTION_TYPES[kind]][kc] = count
        return hist

    return CensusReport(
        q=q,
        k_size=len(members),
        histograms=histogram(codes),
        pair_histograms=histogram(codes[has_pair]),
        num_hyperplanes=hyper.shape[0],
    )


# ----------------------------------------------------------------------
# derived checks
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    ok: bool
    detail: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def check_mass_conservation(report: CensusReport) -> CheckResult:
    q = report.q
    expected = {
        SectionType.ELLIPTIC: q * q * (q * q - 1) // 2,
        SectionType.HYPERBOLIC: q * q * (q * q + 1) // 2,
        SectionType.CONE: q * q * q + q * q + q + 1,
    }
    total = 0
    for kind, want in expected.items():
        got = report.type_total(kind)
        if got != want:
            return CheckResult(False, f"{kind.name}: {got} sections, expected {want}")
        total += got
    if total != report.num_hyperplanes:
        return CheckResult(
            False, f"type totals {total} != hyperplane count {report.num_hyperplanes}"
        )
    return CheckResult(True, f"{total} hyperplanes split as expected")


def check_double_count(report: CensusReport, model: Q4Model) -> CheckResult:
    """sum over elliptic sections of |section ∩ K| must equal |K| times the
    per-point number of elliptic sections, which is the same for every
    quadric point.  The per-point constant is counted directly at quadric
    point 0, from the section sizes of the hyperplanes through it, rather
    than taken from a formula or from the pole classification."""
    q = model.field.q
    quadric = model.quadric
    hyper = quadric.space.coords
    through_point = hyper[model.field.dot_arr(hyper, quadric.coords[0]) == 0]
    sizes = model.field.vanishing_pairs(through_point, quadric.coords).sum(axis=1)
    through = int((sizes == q * q + 1).sum())
    lhs = sum(
        size * count
        for size, count in report.histograms.get(SectionType.ELLIPTIC, {}).items()
    )
    rhs = report.k_size * through
    if lhs != rhs:
        return CheckResult(
            False,
            f"sum of elliptic member counts {lhs} != |K| * {through} = {rhs}",
        )
    return CheckResult(True, f"{lhs} member incidences, {through} elliptic per point")


def check_residues(report: CensusReport, f) -> CheckResult:
    """Every elliptic section meeting the set has member count mod p in the
    admissible residue set; empty sections are exempt."""
    allowed = residue_set(f)
    bad = sorted(
        size
        for size in report.distinct_elliptic_meeting
        if size % f.p not in allowed
    )
    if bad:
        return CheckResult(False, f"counts {bad} have residues outside {sorted(allowed)}")
    return CheckResult(
        True,
        f"residues of {sorted(report.distinct_elliptic_meeting)} within {sorted(allowed)}",
    )


def check_antipode_minus3(report: CensusReport) -> CheckResult:
    """Elliptic sections holding an antipodal member pair meet the set in
    -3 mod q points; for q with a reference list, exactly two distinct
    counts realize that residue (q=3 realizes only one)."""
    q = report.q
    values = report.minus3_values
    bad = sorted(v for v in values if v % q != (-3) % q)
    if bad:
        return CheckResult(False, f"pair-section counts {bad} are not -3 mod {q}")
    expected = EXPECTED_MINUS3_VALUES.get(q)
    if expected is not None and values != expected:
        return CheckResult(
            False, f"pair-section counts {sorted(values)} != expected {sorted(expected)}"
        )
    return CheckResult(True, f"pair sections realize {sorted(values)}")


def check_antipode_closure(model: Q4Model, section: Section, members) -> CheckResult:
    members = set(int(i) for i in members)
    partner = {}
    for i, j in _partner_pairs(model, section):
        partner[i], partner[j] = j, i
    for i in sorted(members):
        j = partner.get(i)
        if j is None:
            return CheckResult(False, f"member {i} lies on the grid section")
        if j not in members:
            return CheckResult(False, f"antipode {j} of member {i} is missing")
    return CheckResult(True, f"all {len(members)} members antipode-paired within the set")


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def write_census_csv(report: CensusReport, path) -> None:
    """One row per (section type, member count): total sections and how
    many of them contain an antipodal member pair."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "section_type",
                "intersection_size",
                "count",
                "contains_k_point",
                "contains_antipode_pair",
            ]
        )
        for kind in SectionType:
            hist = report.histograms.get(kind, {})
            pair_hist = report.pair_histograms.get(kind, {})
            for size in sorted(hist):
                pair_count = pair_hist.get(size, 0)
                plain = hist[size] - pair_count
                if plain:
                    writer.writerow(
                        [kind.name.lower(), size, plain, int(size > 0), 0]
                    )
                if pair_count:
                    writer.writerow(
                        [kind.name.lower(), size, pair_count, int(size > 0), 1]
                    )


def write_census_json(report: CensusReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2) + "\n")
