"""Verification bundles, structural property suites, and invariant profiles.

Three layers live here:

* ``property_*`` functions re-check foundational invariants (field axioms,
  collinearity structure, partner involutions, counting identities) by
  brute force.  Each returns a :class:`~ovoid.census.CheckResult` so they
  can run standalone or inside the acceptance suite.
* :func:`verify_members` bundles everything we know how to check about a
  candidate maximal partial ovoid in either model: partial-ovoid property,
  maximality, the order-(q, 1) grid on the uncovered lines, partner
  closure, the model-specific identification of that grid, and (in the
  affine model) the full polynomial-identity suite.
* :func:`invariant_profile` computes a model-independent fingerprint of a
  point set inside its quadrangle, so sets found by independent searches
  in the two models can be compared without constructing an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

from .census import CheckResult, check_double_count, check_mass_conservation, run_census
from .geometry import GeometryError, SectionType
from .gf import Field
from .gq import (
    GQ,
    GQError,
    check_partial_ovoid,
    is_maximal,
    uncovered_subquadrangle,
)
from .q4 import Q4Model
from .redei import RedeiError, RedeiSuiteReport, run_redei_suite
from .search import SearchConfig, SearchError, antipode_pairs, search_maximal
from .t2 import T2Model

__all__ = [
    "property_field_axioms",
    "property_collinearity",
    "property_antipode_pairing",
    "property_census_mass",
    "PROPERTY_SUITES",
    "run_property_suites",
    "seed_grid",
    "VerificationReport",
    "verify_members",
    "invariant_profile",
    "profiles_match",
    "find_example",
]

Model = Union[Q4Model, T2Model]


# ----------------------------------------------------------------------
# Property suites: exhaustive re-checks of the invariants everything
# downstream quietly relies on.
# ----------------------------------------------------------------------


def property_field_axioms(f: Field) -> CheckResult:
    """Exhaustively check the field axioms and square-root consistency.

    The O(q^2) and O(q^3) laws run over every tuple as broadcast lookups
    in the field's tables; the O(q) checks use the scalar operations.
    """
    import numpy as np

    q = f.q
    xs = range(q)
    for a in xs:
        if f.add(a, 0) != a or f.mul(a, 1) != a:
            return CheckResult(False, f"identity fails at {a}")
        if f.add(a, f.neg(a)) != 0:
            return CheckResult(False, f"additive inverse fails at {a}")
        if a and f.mul(a, f.inv(a)) != 1:
            return CheckResult(False, f"multiplicative inverse fails at {a}")
    add, mul = f._add_np, f._mul_np
    if not (add == add.T).all() or not (mul == mul.T).all():
        return CheckResult(False, "commutativity fails")
    if (mul[1:, 1:] == 0).any():
        return CheckResult(False, "zero divisor found")
    a3 = np.arange(q, dtype=np.int16)
    left, mid, right = a3[:, None, None], a3[None, :, None], a3[None, None, :]
    if not (add[add[left, mid], right] == add[left, add[mid, right]]).all():
        return CheckResult(False, "+ associativity fails")
    if not (mul[mul[left, mid], right] == mul[left, mul[mid, right]]).all():
        return CheckResult(False, "* associativity fails")
    if not (mul[left, add[mid, right]] == add[mul[left, mid], mul[left, right]]).all():
        return CheckResult(False, "distributivity fails")
    squares = {f.mul(a, a) for a in xs}
    if len(squares) != (q + 1) // 2:
        return CheckResult(False, f"{len(squares)} distinct squares, expected {(q + 1) // 2}")
    for a in xs:
        if f.is_square(a) != (a in squares):
            return CheckResult(False, f"is_square wrong at {a}")
        if a in squares:
            r = f.sqrt(a)
            if f.mul(r, r) != a:
                return CheckResult(False, f"sqrt wrong at {a}")
    return CheckResult(True, f"GF({q}): axioms, squares and roots check out")


def property_collinearity(gq: GQ) -> CheckResult:
    """Collinearity rows are symmetric, self-marked, and of constant size."""
    expected = 1 + (gq.t + 1) * gq.s
    for i in range(gq.num_points):
        row = gq.collinear_bits[i]
        if not (row >> i) & 1:
            return CheckResult(False, f"point {i} not marked on its own row")
        if row.bit_count() != expected:
            return CheckResult(
                False,
                f"point {i} collinear with {row.bit_count()} points, expected {expected}",
            )
        rest = row & ~(1 << i)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if not (gq.collinear_bits[j] >> i) & 1:
                return CheckResult(False, f"collinearity asymmetric between {i} and {j}")
    return CheckResult(
        True, f"{gq.num_points} rows symmetric, each of size {expected}"
    )


def property_antipode_pairing(gq: GQ, grid_points: Sequence[int]) -> CheckResult:
    """Off-grid points fall into non-collinear partner pairs, none fixed."""
    try:
        pairs = antipode_pairs(gq, grid_points)
    except SearchError as exc:
        return CheckResult(False, str(exc))
    seen: set[int] = set()
    for a, b in pairs:
        if a == b:
            return CheckResult(False, f"point {a} is its own partner")
        if gq.collinear(a, b):
            return CheckResult(False, f"partners {a}, {b} are collinear")
        seen.update((a, b))
    off_grid = gq.num_points - len(set(grid_points))
    if len(seen) != 2 * len(pairs) or len(seen) != off_grid:
        return CheckResult(
            False, f"{len(pairs)} pairs cover {len(seen)} of {off_grid} off-grid points"
        )
    return CheckResult(True, f"{len(pairs)} disjoint non-collinear pairs")


def property_census_mass(model: Q4Model, members: Iterable[int]) -> CheckResult:
    """Hyperplane counts add up: per-type totals and the double count."""
    members = tuple(members)
    report = run_census(model, members)
    mass = check_mass_conservation(report)
    if not mass:
        return mass
    double = check_double_count(report, model)
    if not double:
        return double
    return CheckResult(True, f"{mass.detail}; {double.detail}")


PROPERTY_SUITES = (
    "field_axioms",
    "collinearity",
    "antipode_pairing",
    "census_mass",
)


def run_property_suites(model: Model, members: Iterable[int]) -> dict[str, CheckResult]:
    """Run every property suite that applies to the given model."""
    members = tuple(members)
    results = {
        "field_axioms": property_field_axioms(model.field),
        "collinearity": property_collinearity(model.gq),
        "antipode_pairing": property_antipode_pairing(model.gq, seed_grid(model)),
    }
    if isinstance(model, Q4Model):
        results["census_mass"] = property_census_mass(model, members)
    return results


# ----------------------------------------------------------------------
# The verification bundle for a candidate set.
# ----------------------------------------------------------------------


def seed_grid(model: Model) -> tuple[int, ...]:
    """The reference order-(q, 1) grid each model starts from."""
    if isinstance(model, Q4Model):
        return model.hyperbolic_seed.point_local
    return model.grid_points


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_members`: named checks plus extras."""

    model_name: str
    q: int
    size: int
    checks: dict[str, CheckResult] = dc_field(default_factory=dict)
    profile: Optional[dict] = None
    identity_suite: Optional[RedeiSuiteReport] = None

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(r.ok for r in self.checks.values())

    def summary_lines(self) -> list[str]:
        return [
            f"{'PASS' if r.ok else 'FAIL'} {name}: {r.detail}"
            for name, r in self.checks.items()
        ]

    def to_json(self) -> dict:
        doc = {
            "model": self.model_name,
            "q": self.q,
            "size": self.size,
            "passed": self.passed,
            "checks": {
                name: {"ok": r.ok, "detail": r.detail}
                for name, r in self.checks.items()
            },
        }
        if self.profile is not None:
            doc["profile"] = {
                k: (dict(v) if isinstance(v, dict) else v)
                for k, v in self.profile.items()
            }
        if self.identity_suite is not None:
            doc["identity_suite"] = self.identity_suite.to_json()
        return doc


def verify_members(
    model: Model,
    members: Iterable[int],
    expect_size: Optional[int] = None,
    include_identities: bool = True,
    include_profile: bool = False,
) -> VerificationReport:
    """Run the verification bundle for a candidate maximal partial ovoid.

    ``expect_size`` defaults to q^2 - 1.  The structural checks (grid on
    the uncovered lines, partner closure, grid identification) only make
    sense at that size, so a set of any other size fails the size check
    and skips them.  ``include_identities`` gates the polynomial-identity
    suite in the affine model; ``include_profile`` attaches the invariant
    fingerprint, which is the slowest part for larger q.
    """
    members = tuple(sorted(set(int(i) for i in members)))
    gq, f = model.gq, model.field
    q = f.q
    if expect_size is None:
        expect_size = q * q - 1
    report = VerificationReport(model_name=model.name, q=q, size=len(members))
    checks = report.checks

    ok = check_partial_ovoid(gq, members)
    checks["partial_ovoid"] = CheckResult(
        ok, "no two members collinear" if ok else "two members share a line"
    )
    if not ok:
        return report

    maximal, witnesses = is_maximal(gq, members)
    checks["maximal"] = CheckResult(
        maximal,
        "no extension point exists"
        if maximal
        else f"{len(witnesses)} extension points, e.g. {witnesses[0]}",
    )

    checks["size"] = CheckResult(
        len(members) == expect_size,
        f"{len(members)} points (expected {expect_size})",
    )
    if not checks["size"].ok or not maximal:
        return report

    try:
        sub = uncovered_subquadrangle(gq, members)
        grid = sub.point_indices
        checks["grid_order"] = CheckResult(
            sub.order == (q, 1),
            f"uncovered lines form a quadrangle of order {sub.order}",
        )
    except GQError as exc:
        checks["grid_order"] = CheckResult(False, str(exc))
        return report

    try:
        pairs = antipode_pairs(gq, grid)
        partner = {}
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
        member_set = set(members)
        missing = [i for i in members if partner.get(i) not in member_set]
        checks["partner_closed"] = CheckResult(
            not missing,
            "members come in partner pairs"
            if not missing
            else f"{len(missing)} members lack their partner, e.g. {missing[0]}",
        )
    except SearchError as exc:
        checks["partner_closed"] = CheckResult(False, str(exc))

    if isinstance(model, Q4Model):
        try:
            section = model.subquadrangle_section(members)
            checks["grid_identified"] = CheckResult(
                section.kind is SectionType.HYPERBOLIC,
                f"grid is the {section.kind.value} section {section.coeffs}",
            )
        except GeometryError as exc:
            checks["grid_identified"] = CheckResult(False, str(exc))
    else:
        try:
            coeffs = model.fit_quadric_surface(grid)
            checks["grid_identified"] = CheckResult(
                True, f"grid affine points lie on the quadric surface {coeffs}"
            )
        except GeometryError as exc:
            checks["grid_identified"] = CheckResult(False, str(exc))
        if include_identities:
            if model.inf_index in members:
                try:
                    suite = run_redei_suite(model, members)
                    report.identity_suite = suite
                    checks["identity_suite"] = CheckResult(
                        suite.passed,
                        "all polynomial identities hold"
                        if suite.passed
                        else f"{len(suite.failures)} identity failures, "
                        f"first {suite.failures[0][0]}",
                    )
                except (RedeiError, GeometryError) as exc:
                    checks["identity_suite"] = CheckResult(False, str(exc))
            else:
                checks["identity_suite"] = CheckResult(
                    False, "the point at infinity is not a member"
                )

    if include_profile:
        report.profile = invariant_profile(gq, members, grid)
    return report


# ----------------------------------------------------------------------
# Invariant profiles: compare sets across models without an isomorphism.
# ----------------------------------------------------------------------


def invariant_profile(
    gq: GQ, members: Sequence[int], grid_points: Sequence[int]
) -> dict:
    """A fingerprint of (quadrangle, set, grid) preserved by isomorphisms.

    Includes the center-count histogram over member triples (the number of
    points collinear with all three), and the same histogram restricted to
    centers on the grid.  Everything here is defined purely in incidence
    terms, so equal profiles are necessary for two sets to be equivalent.
    """
    members = tuple(sorted(members))
    grid_mask = 0
    for i in grid_points:
        grid_mask |= 1 << i
    centers: dict[int, int] = {}
    grid_centers: dict[int, int] = {}
    rows = gq.collinear_bits
    for a, b, c in combinations(members, 3):
        common = rows[a] & rows[b] & rows[c]
        n = common.bit_count()
        centers[n] = centers.get(n, 0) + 1
        g = (common & grid_mask).bit_count()
        grid_centers[g] = grid_centers.get(g, 0) + 1
    return {
        "order": [gq.s, gq.t],
        "size": len(members),
        "grid_size": len(set(grid_points)),
        "triple_centers": dict(sorted(centers.items())),
        "triple_grid_centers": dict(sorted(grid_centers.items())),
    }


def profiles_match(a: dict, b: dict) -> bool:
    return a == b


def find_example(model: Model, time_budget: Optional[float] = None):
    """Deterministic partner-paired search for a size q^2 - 1 example.

    Returns the search outcome; ``outcome.members`` is the
    lexicographically first witness through pair 0 when one exists.
    """
    q = model.field.q
    cfg = SearchConfig(
        target_size=q * q - 1,
        mode="antipode_paired",
        root_fix=0,
        time_budget=time_budget,
    )
    return search_maximal(model.gq, cfg, seed_grid(model))
