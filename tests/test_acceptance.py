"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Each criterion is checked at desk scale, q in {3, 5, 7}, against exact
expected values and the stated time budgets.  The q = 11 stretch run sits
behind the OVOID_STRETCH environment variable and does not gate.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
lines, or plain ``pytest`` as part of the full suite.
"""

import os
import time
from types import SimpleNamespace

import pytest

from ovoid.census import (
    EXPECTED_DISTINCT_ELLIPTIC,
    EXPECTED_MINUS3_VALUES,
    check_antipode_minus3,
    check_double_count,
    check_mass_conservation,
    check_residues,
    run_census,
)
from ovoid.gf import Field, make_field
from ovoid.gq import check_partial_ovoid, is_maximal
from ovoid.q4 import build_q4_model
from ovoid.redei import residue_set, run_redei_suite
from ovoid.search import check_unique_completion_exhaustive
from ovoid.t2 import build_t2_model
from ovoid.verify import (
    find_example,
    invariant_profile,
    property_antipode_pairing,
    property_census_mass,
    property_collinearity,
    property_field_axioms,
    seed_grid,
    verify_members,
)

DESK_FIELDS = (3, 5, 7)

EXPECTED_RESIDUES = {5: {0, 2, 3}, 7: {2, 3, 4, 6}, 11: {0, 4, 5, 8, 9, 10}}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def workspace():
    """Build both models and find the size q^2 - 1 example for each q."""
    data = {}
    for q in DESK_FIELDS:
        for name, builder in (("Q4", build_q4_model), ("T2", build_t2_model)):
            t0 = time.perf_counter()
            model = builder(make_field(q))
            build_time = time.perf_counter() - t0
            outcome = find_example(model, time_budget=7200.0)
            data[(name, q)] = SimpleNamespace(
                model=model, outcome=outcome, build_time=build_time
            )
    return data


@pytest.fixture(scope="module")
def census_reports(workspace):
    reports = {}
    for q in DESK_FIELDS:
        entry = workspace[("Q4", q)]
        t0 = time.perf_counter()
        reports[q] = (
            run_census(entry.model, entry.outcome.members),
            time.perf_counter() - t0,
        )
    return reports


def test_criterion_1_structure_counts(workspace):
    total = 0.0
    for q in DESK_FIELDS:
        expected = (q + 1) * (q * q + 1)
        for name in ("Q4", "T2"):
            entry = workspace[(name, q)]
            gq = entry.model.gq
            total += entry.build_time
            assert (gq.s, gq.t) == (q, q), (name, q)
            assert gq.num_points == expected, (name, q)
            assert len(gq.lines) == expected, (name, q)
    report(
        1,
        total < 10.0,
        f"both models have order (q,q) and |P| = |B| = 40/156/400; "
        f"construction + verification took {total:.2f} s (< 10 s)",
    )


def test_criterion_2_existence(workspace):
    budgets = {3: 1.0, 5: 60.0, 7: 7200.0}
    details = []
    for q in DESK_FIELDS:
        slowest = 0.0
        for name in ("Q4", "T2"):
            entry = workspace[(name, q)]
            out = entry.outcome
            assert out.found, (name, q, out.status)
            assert len(out.members) == q * q - 1
            assert check_partial_ovoid(entry.model.gq, out.members)
            maximal, _ = is_maximal(entry.model.gq, out.members)
            assert maximal, (name, q)
            assert out.elapsed < budgets[q], (name, q, out.elapsed)
            slowest = max(slowest, out.elapsed)
        details.append(f"q={q} size {q * q - 1} in {slowest:.2f} s")
    report(2, True, "maximal partial ovoids found: " + "; ".join(details))


def test_criterion_3_subquadrangle(workspace):
    t0 = time.perf_counter()
    for q in DESK_FIELDS:
        for name in ("Q4", "T2"):
            entry = workspace[(name, q)]
            rep = verify_members(
                entry.model, entry.outcome.members, include_identities=False
            )
            assert rep.checks["grid_order"].ok, (name, q, rep.summary_lines())
            assert rep.checks["grid_identified"].ok, (name, q, rep.summary_lines())
        section = workspace[("Q4", q)].model.subquadrangle_section(
            workspace[("Q4", q)].outcome.members
        )
        assert len(section.point_local) == (q + 1) * (q + 1)
    elapsed = time.perf_counter() - t0
    report(
        3,
        elapsed < 10.0,
        f"uncovered lines form an order-(q,1) grid on a hyperbolic section "
        f"for every found example ({elapsed:.2f} s < 10 s)",
    )


def test_criterion_4_residue_sets():
    t0 = time.perf_counter()
    got = {q: set(residue_set(make_field(q))) for q in EXPECTED_RESIDUES}
    elapsed = time.perf_counter() - t0
    assert got == EXPECTED_RESIDUES, got
    report(
        4,
        elapsed < 1.0,
        f"residue sets match for q = 5, 7, 11 without any example "
        f"({elapsed:.3f} s < 1 s)",
    )


def test_criterion_5_census_reference_lists(census_reports):
    details = []
    for q in (5, 7):
        census, elapsed = census_reports[q]
        expected = EXPECTED_DISTINCT_ELLIPTIC[q]
        assert census.distinct_elliptic == frozenset(expected), (
            q,
            sorted(census.distinct_elliptic),
        )
        assert elapsed < 60.0, (q, elapsed)
        details.append(f"q={q}: {sorted(expected)} in {elapsed:.2f} s")
    report(5, True, "distinct elliptic intersection sizes match: " + "; ".join(details))


def test_criterion_6_antipode_minus3(workspace, census_reports):
    details = []
    for q in (5, 7):
        census, _ = census_reports[q]
        res = check_antipode_minus3(census)
        assert res.ok, (q, res.detail)
        assert census.minus3_values == frozenset(EXPECTED_MINUS3_VALUES[q]), q
        details.append(f"q={q}: values {sorted(census.minus3_values)}")
    report(
        6,
        True,
        "sections through a member pair meet the set in -3 mod q points, "
        "two values each: " + "; ".join(details),
    )


def test_criterion_7_identity_suite(workspace):
    timings = {}
    for q in DESK_FIELDS:
        entry = workspace[("T2", q)]
        t0 = time.perf_counter()
        suite = run_redei_suite(entry.model, entry.outcome.members)
        timings[q] = time.perf_counter() - t0
        assert suite.passed, (q, suite.failures)
        assert suite.sigma2_rank == 3, q
    assert timings[5] < 60.0, timings
    report(
        7,
        True,
        "translation, factorization, power-sum, plane-count and tangent-locus "
        f"identities all hold (q=5 suite {timings[5]:.2f} s < 60 s)",
    )


def test_criterion_8_unique_completion_q3(workspace):
    gq = workspace[("Q4", 3)].model.gq
    t0 = time.perf_counter()
    checked, failures = check_unique_completion_exhaustive(gq, root_fix=0)
    elapsed = time.perf_counter() - t0
    assert failures == []
    assert checked == 81
    report(
        8,
        elapsed < 300.0,
        f"all {checked} size-9 partial ovoids through point 0 complete to "
        f"exactly one ovoid ({elapsed:.2f} s < 5 min)",
    )


def test_criterion_9_property_suites(workspace):
    for p, h in ((3, 1), (5, 1), (7, 1), (11, 1), (11, 2)):
        res = property_field_axioms(Field(p, h))
        assert res.ok, (p, h, res.detail)
    for q in DESK_FIELDS:
        for name in ("Q4", "T2"):
            entry = workspace[(name, q)]
            res = property_collinearity(entry.model.gq)
            assert res.ok, (name, q, res.detail)
            res = property_antipode_pairing(
                entry.model.gq, seed_grid(entry.model)
            )
            assert res.ok, (name, q, res.detail)
        res = property_census_mass(
            workspace[("Q4", q)].model, workspace[("Q4", q)].outcome.members
        )
        assert res.ok, (q, res.detail)
    report(
        9,
        True,
        "field axioms (full through GF(121)), collinearity symmetry, partner "
        "involution and census mass conservation all pass",
    )


@pytest.mark.skipif(
    not os.environ.get("OVOID_STRETCH"),
    reason="set OVOID_STRETCH=1 for the q=11 stretch run (~20 s)",
)
def test_stretch_q11():
    q = 11
    profiles = {}
    models, found = {}, {}
    for name, builder in (("Q4", build_q4_model), ("T2", build_t2_model)):
        model = builder(make_field(q))
        out = find_example(model, time_budget=7200.0)
        assert out.found, (name, out.status)
        assert len(out.members) == q * q - 1
        models[name], found[name] = model, out.members
        profiles[name] = invariant_profile(
            model.gq, out.members, seed_grid(model)
        )
        if name == "Q4":
            census = run_census(model, out.members)
            assert census.distinct_elliptic == frozenset(
                EXPECTED_DISTINCT_ELLIPTIC[q]
            )
            assert census.minus3_values == frozenset(EXPECTED_MINUS3_VALUES[q])
            for check in (
                check_mass_conservation(census),
                check_double_count(census, model),
                check_residues(census, model.field),
                check_antipode_minus3(census),
            ):
                assert check.ok, check.detail
        else:
            suite = run_redei_suite(model, out.members)
            assert suite.passed, suite.failures
    assert profiles["Q4"] == profiles["T2"]
    # the T2 example mapped into Q4 has the census of the Q4-searched one
    image = models["T2"].to_q4(models["Q4"])
    mapped = sorted(image[i] for i in found["T2"])
    assert run_census(models["Q4"], mapped).to_json() == census.to_json()
    print(
        "stretch PASS: q=11 existence, census, identities, profiles and mapped census",
        flush=True,
    )
