"""Property suites, the verification bundle, and cross-model profiles."""

import pytest

from ovoid.gf import Field, make_field
from ovoid.q4 import build_q4_model
from ovoid.search import SearchConfig, search_maximal
from ovoid.t2 import build_t2_model
from ovoid.verify import (
    PROPERTY_SUITES,
    find_example,
    invariant_profile,
    property_antipode_pairing,
    property_census_mass,
    property_collinearity,
    property_field_axioms,
    run_property_suites,
    seed_grid,
    verify_members,
)

# Fingerprint of the q=3 example: triples of members by common-neighbor count.
Q3_TRIPLE_CENTERS = {0: 24, 2: 32}


def build(name, q):
    builder = build_q4_model if name == "Q4" else build_t2_model
    return builder(make_field(q))


# ----------------------------------------------------------------------
# property suites
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p,h", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (11, 2)])
def test_field_axioms_full_up_to_121(p, h):
    res = property_field_axioms(Field(p, h))
    assert res.ok, res.detail


def test_field_axioms_catch_a_broken_table():
    f = Field(3, 1)
    res = property_field_axioms(f)
    assert res.ok
    saved = f._mul_np.copy()
    try:
        f._mul_np[2, 2] = 0  # breaks associativity/inverses
        assert not property_field_axioms(f).ok
    finally:
        f._mul_np[:] = saved


@pytest.mark.parametrize("name", ["Q4", "T2"])
def test_collinearity_property(name):
    model = build(name, 3)
    res = property_collinearity(model.gq)
    assert res.ok, res.detail


@pytest.mark.parametrize("name", ["Q4", "T2"])
def test_antipode_pairing_property(name):
    model = build(name, 3)
    res = property_antipode_pairing(model.gq, seed_grid(model))
    assert res.ok, res.detail
    # 40 points, 16 on the grid -> 12 disjoint pairs
    assert "12 disjoint" in res.detail


def test_antipode_pairing_rejects_a_bad_grid():
    model = build("Q4", 3)
    grid = seed_grid(model)
    res = property_antipode_pairing(model.gq, grid[:-1])
    assert not res.ok


def test_census_mass_property():
    model = build("Q4", 3)
    members = find_example(model).members
    res = property_census_mass(model, members)
    assert res.ok, res.detail


@pytest.mark.parametrize("name", ["Q4", "T2"])
def test_run_property_suites(name):
    model = build(name, 3)
    members = find_example(model).members
    results = run_property_suites(model, members)
    assert all(results.values()), {
        k: v.detail for k, v in results.items() if not v.ok
    }
    expected = set(PROPERTY_SUITES) if name == "Q4" else set(PROPERTY_SUITES) - {
        "census_mass"
    }
    assert set(results) == expected


# ----------------------------------------------------------------------
# the verification bundle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("name", ["Q4", "T2"])
def test_bundle_passes_on_found_examples(name, q):
    model = build(name, q)
    members = find_example(model).members
    report = verify_members(model, members, include_profile=True)
    assert report.passed, report.summary_lines()
    assert report.size == q * q - 1
    core = {"partial_ovoid", "maximal", "size", "grid_order", "partner_closed",
            "grid_identified"}
    assert core <= set(report.checks)
    if name == "T2":
        assert report.checks["identity_suite"].ok
        assert report.identity_suite is not None and report.identity_suite.passed
    assert report.profile is not None
    doc = report.to_json()
    assert doc["passed"] is True
    assert set(doc["checks"]) == set(report.checks)


def test_bundle_flags_non_partial_ovoid():
    model = build("Q4", 3)
    line = model.gq.lines[0]
    report = verify_members(model, line[:2])
    assert not report.passed
    assert not report.checks["partial_ovoid"].ok
    assert set(report.checks) == {"partial_ovoid"}  # later checks skipped


def test_bundle_flags_truncated_set():
    model = build("Q4", 3)
    members = find_example(model).members
    report = verify_members(model, members[:6])
    assert not report.passed
    assert report.checks["partial_ovoid"].ok
    assert not report.checks["maximal"].ok
    assert not report.checks["size"].ok
    assert "grid_order" not in report.checks


def test_bundle_respects_expect_size():
    model = build("Q4", 3)
    members = find_example(model).members
    report = verify_members(model, members, expect_size=10)
    assert not report.passed
    assert report.checks["maximal"].ok
    assert not report.checks["size"].ok


def test_bundle_reports_unidentified_grid_and_missing_infinity():
    # The first maximal 8-set through the affine origin, found by plain
    # point DFS, misses the point at infinity; its uncovered-line grid is
    # a different order-(3,1) quadrangle that no single quadric surface
    # identifies.  The bundle must say both things rather than pass.
    model = build("T2", 3)
    out = search_maximal(model.gq, SearchConfig(8, mode="exact_dfs", root_fix=0))
    assert out.found and model.inf_index not in out.members
    report = verify_members(model, out.members)
    assert report.checks["grid_order"].ok
    assert not report.checks["grid_identified"].ok
    assert not report.checks["identity_suite"].ok
    assert "infinity" in report.checks["identity_suite"].detail
    assert not report.passed


def test_bundle_can_skip_identities():
    model = build("T2", 3)
    members = find_example(model).members
    report = verify_members(model, members, include_identities=False)
    assert report.passed
    assert "identity_suite" not in report.checks


# ----------------------------------------------------------------------
# invariant profiles
# ----------------------------------------------------------------------


def test_profile_is_frozen_for_q3():
    model = build("Q4", 3)
    members = find_example(model).members
    prof = invariant_profile(model.gq, members, seed_grid(model))
    assert prof["order"] == [3, 3]
    assert prof["size"] == 8
    assert prof["grid_size"] == 16
    assert prof["triple_centers"] == Q3_TRIPLE_CENTERS
    assert sum(prof["triple_centers"].values()) == 56  # C(8,3)
    assert sum(prof["triple_grid_centers"].values()) == 56


@pytest.mark.parametrize("q", [3, 5])
def test_profiles_agree_across_models(q):
    profs = {}
    for name in ("Q4", "T2"):
        model = build(name, q)
        members = find_example(model).members
        profs[name] = invariant_profile(model.gq, members, seed_grid(model))
    assert profs["Q4"] == profs["T2"]


def test_profiles_distinguish_different_sets():
    model = build("Q4", 3)
    a = find_example(model).members
    out = search_maximal(model.gq, SearchConfig(8, mode="exact_dfs", root_fix=2))
    assert out.found
    prof_a = invariant_profile(model.gq, a, seed_grid(model))
    prof_b = invariant_profile(model.gq, out.members, seed_grid(model))
    # same triple-center counts (both are maximal 8-sets) but the grid
    # breakdown differs because the second set is not grid-compatible
    assert prof_a["triple_centers"] == prof_b["triple_centers"]
    assert prof_a != prof_b
