"""Tests for the hyperplane-section census and its derived checks."""

import csv
import json
import random

import numpy as np
import pytest
from antipode_oracle import geometric_antipode_map

from ovoid.census import (
    EXPECTED_DISTINCT_ELLIPTIC,
    EXPECTED_MINUS3_VALUES,
    CensusError,
    CensusReport,
    check_antipode_closure,
    check_antipode_minus3,
    check_double_count,
    check_mass_conservation,
    check_residues,
    run_census,
    write_census_csv,
    write_census_json,
)
from ovoid.geometry import SectionType
from ovoid.gf import make_field
from ovoid.q4 import build_q4_model
from ovoid.search import SearchConfig, search_maximal

# frozen full census of the deterministic size-8 example at q = 3
Q3_HISTOGRAMS = {
    SectionType.ELLIPTIC: {0: 8, 2: 24, 6: 4},
    SectionType.HYPERBOLIC: {0: 1, 3: 32, 4: 12},
    SectionType.CONE: {1: 8, 2: 16, 4: 16},
}
Q3_PAIR_HISTOGRAMS = {
    SectionType.ELLIPTIC: {6: 4},
    SectionType.HYPERBOLIC: {4: 12},
    SectionType.CONE: {2: 16},
}


def model_and_example(q):
    model = build_q4_model(make_field(q))
    out = search_maximal(
        model.gq,
        SearchConfig(q * q - 1, mode="antipode_paired", root_fix=0),
        model.hyperbolic_seed.point_local,
    )
    assert out.status == "found"
    return model, out.members


def oracle_census(model, members):
    """Per-hyperplane recount through the scalar classification path."""
    quadric = model.quadric
    member_set = set(members)
    hist = {kind: {} for kind in SectionType}
    for h in range(len(quadric.space)):
        coeffs = tuple(int(v) for v in quadric.space.coords[h])
        section = quadric.classify_section(coeffs)
        kc = len(member_set & set(section.point_local))
        hist[section.kind][kc] = hist[section.kind].get(kc, 0) + 1
    return hist


def size_based_census(model, members, section=None):
    """Histograms by section size: every hyperplane met against every
    quadric point, in row chunks, the slow path the pole rule must match."""
    members = tuple(sorted(members))
    f = model.field
    q = f.q
    quadric = model.quadric
    if section is None and len(members) == q * q - 1:
        section = model.subquadrangle_section(members)
    partner = (
        geometric_antipode_map(quadric, section) if section is not None else None
    )
    pairs = [
        (i, int(partner[i]))
        for i in members
        if partner is not None and int(partner[i]) > i and int(partner[i]) in members
    ]
    pair_rows = np.array([i for i, _ in pairs], dtype=np.int64)
    pair_cols = np.array([j for _, j in pairs], dtype=np.int64)
    coords = quadric.coords
    hyper = quadric.space.coords
    size_by_kind = {
        q * q + 1: SectionType.ELLIPTIC,
        (q + 1) * (q + 1): SectionType.HYPERBOLIC,
        q * q + q + 1: SectionType.CONE,
    }
    hist = {kind: {} for kind in SectionType}
    pair_hist = {kind: {} for kind in SectionType}
    for start in range(0, hyper.shape[0], 512):
        rows = hyper[start : start + 512]
        vals = np.zeros((rows.shape[0], coords.shape[0]), dtype=np.int16)
        for c in range(5):
            vals = f._add_np[vals, f._mul_np[rows[:, c][:, None], coords[:, c][None, :]]]
        on = vals == 0
        sizes = on.sum(axis=1)
        k_counts = on[:, list(members)].sum(axis=1)
        has_pair = (on[:, pair_rows] & on[:, pair_cols]).any(axis=1)
        for r in range(rows.shape[0]):
            kind = size_by_kind[int(sizes[r])]
            kc = int(k_counts[r])
            hist[kind][kc] = hist[kind].get(kc, 0) + 1
            if has_pair[r]:
                pair_hist[kind][kc] = pair_hist[kind].get(kc, 0) + 1
    return hist, pair_hist


# ----------------------------------------------------------------------
# the census itself
# ----------------------------------------------------------------------

def test_census_matches_oracle_q3():
    model, members = model_and_example(3)
    report = run_census(model, members)
    assert report.histograms == oracle_census(model, members)


def test_census_frozen_q3():
    model, members = model_and_example(3)
    report = run_census(model, members)
    assert report.k_size == 8
    assert report.num_hyperplanes == 121
    assert report.histograms == Q3_HISTOGRAMS
    assert report.pair_histograms == Q3_PAIR_HISTOGRAMS
    assert report.distinct_elliptic == {0, 2, 6}
    assert report.distinct_elliptic_meeting == {2, 6}
    assert report.minus3_values == {6}


@pytest.mark.parametrize("q", [5, 7])
def test_census_reference_lists(q):
    model, members = model_and_example(q)
    report = run_census(model, members)
    assert report.distinct_elliptic == EXPECTED_DISTINCT_ELLIPTIC[q]
    assert report.minus3_values == EXPECTED_MINUS3_VALUES[q]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_census_matches_size_based_oracle(q):
    model, members = model_and_example(q)
    report = run_census(model, members)
    histograms, pair_histograms = size_based_census(model, members)
    assert report.histograms == histograms
    assert report.pair_histograms == pair_histograms


def test_pole_rule_on_random_partial_ovoid_q9():
    # GF(9) has no size q^2 - 1 example; a greedy random partial ovoid of
    # antipodal pairs across the model's seed section checks the pole
    # rule over a non-prime field
    model = build_q4_model(make_field(3, 2))
    section = model.hyperbolic_seed
    partner = geometric_antipode_map(model.quadric, section)
    collinear = model.quadric.collinear
    order = [i for i in range(model.gq.num_points) if partner[i] >= 0]
    random.Random(9).shuffle(order)
    members: list[int] = []
    for i in order:
        pair = [i, int(partner[i])]
        if not collinear[i, pair[1]] and not collinear[np.ix_(pair, members)].any():
            members += pair
    report = run_census(model, members, section)
    histograms, pair_histograms = size_based_census(model, members, section)
    assert report.histograms == histograms
    assert report.pair_histograms == pair_histograms
    assert any(pair_histograms.values())
    assert check_mass_conservation(report).ok


@pytest.mark.parametrize("q", [3, 5])
def test_double_count_matches_scalar_count(q):
    model, members = model_and_example(q)
    report = run_census(model, members)
    quadric = model.quadric
    f = model.field
    point = [int(v) for v in quadric.coords[0]]
    through = 0
    for h in range(len(quadric.space)):
        coeffs = tuple(int(v) for v in quadric.space.coords[h])
        val = 0
        for c in range(5):
            val = f.add(val, f.mul(coeffs[c], point[c]))
        if val == 0 and int(quadric.section_mask(coeffs).sum()) == q * q + 1:
            through += 1
    result = check_double_count(report, model)
    assert result.ok
    assert result.detail.endswith(f"{through} elliptic per point")


def test_census_of_ovoid_has_no_pair_flags():
    model, _ = model_and_example(3)
    ovoid = search_maximal(model.gq, SearchConfig(10, mode="exact_dfs")).members
    report = run_census(model, ovoid)
    assert report.k_size == 10
    assert all(not hist for hist in report.pair_histograms.values())
    assert check_mass_conservation(report).ok
    # the ovoid is itself an elliptic section, so some section holds all 10
    assert 10 in report.distinct_elliptic


def test_census_rejects_non_partial_ovoid():
    model, _ = model_and_example(3)
    line = model.gq.lines[0]
    with pytest.raises(CensusError):
        run_census(model, line[:2])


# ----------------------------------------------------------------------
# derived checks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 5])
def test_checks_pass_on_found_examples(q):
    model, members = model_and_example(q)
    report = run_census(model, members)
    assert check_mass_conservation(report).ok
    assert check_double_count(report, model).ok
    assert check_residues(report, model.field).ok
    assert check_antipode_minus3(report).ok
    section = model.subquadrangle_section(members)
    assert check_antipode_closure(model, section, members).ok


def test_antipode_closure_detects_missing_partner():
    model, members = model_and_example(3)
    section = model.subquadrangle_section(members)
    broken = members[:-1]
    result = check_antipode_closure(model, section, broken)
    assert not result.ok
    assert "missing" in result.detail


def test_residue_check_flags_bad_count():
    report = CensusReport(
        q=5,
        k_size=24,
        histograms={SectionType.ELLIPTIC: {1: 4}},
        pair_histograms={},
        num_hyperplanes=781,
    )
    result = check_residues(report, make_field(5))
    assert not result.ok
    assert "[1]" in result.detail


def test_minus3_check_flags_wrong_residue_and_extra_values():
    bad_residue = CensusReport(
        q=5,
        k_size=24,
        histograms={},
        pair_histograms={SectionType.ELLIPTIC: {3: 1}},
        num_hyperplanes=781,
    )
    assert not check_antipode_minus3(bad_residue).ok
    extra_value = CensusReport(
        q=5,
        k_size=24,
        histograms={},
        pair_histograms={SectionType.ELLIPTIC: {2: 1, 7: 1, 12: 1}},
        num_hyperplanes=781,
    )
    assert not check_antipode_minus3(extra_value).ok


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_census_csv_roundtrip(tmp_path):
    model, members = model_and_example(3)
    report = run_census(model, members)
    path = tmp_path / "census.csv"
    write_census_csv(report, path)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {
        "section_type",
        "intersection_size",
        "count",
        "contains_k_point",
        "contains_antipode_pair",
    }
    by_type: dict[str, int] = {}
    for row in rows:
        by_type[row["section_type"]] = by_type.get(row["section_type"], 0) + int(
            row["count"]
        )
        assert (int(row["intersection_size"]) > 0) == bool(
            int(row["contains_k_point"])
        )
    assert by_type == {"elliptic": 36, "hyperbolic": 45, "cone": 40}
    pair_rows = [r for r in rows if r["contains_antipode_pair"] == "1"]
    assert {(r["section_type"], int(r["intersection_size"])) for r in pair_rows} == {
        ("elliptic", 6),
        ("hyperbolic", 4),
        ("cone", 2),
    }


def test_census_json_roundtrip(tmp_path):
    model, members = model_and_example(3)
    report = run_census(model, members)
    path = tmp_path / "census.json"
    write_census_json(report, path)
    blob = json.loads(path.read_text())
    assert blob["q"] == 3
    assert blob["k_size"] == 8
    assert blob["distinct_elliptic"] == [0, 2, 6]
    assert blob["minus3_values"] == [6]
    assert blob["histograms"]["elliptic"] == {"0": 8, "2": 24, "6": 4}
