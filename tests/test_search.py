"""Tests for the partial-ovoid searches and extendability audits."""

import pytest
from antipode_oracle import geometric_antipode_map

from ovoid.gf import make_field
from ovoid.gq import check_partial_ovoid, extension_bits, uncovered_subquadrangle
from ovoid.q4 import build_q4_model
from ovoid.search import (
    AuditReport,
    PairedUniverse,
    SearchConfig,
    SearchError,
    antipode_pairs,
    check_unique_completion_exhaustive,
    enumerate_maximal,
    extendability_audit,
    search_maximal,
)
from ovoid.t2 import build_t2_model
from ovoid.verify import find_example


# frozen outputs of the deterministic searches at q = 3
LEX_FIRST_MAXIMAL_8 = (0, 1, 12, 16, 21, 24, 25, 32)
NUM_MAXIMAL_8_THROUGH_0 = 27
NUM_SIZE9_THROUGH_0 = 81
# frozen node counts: a change in the walker's order or pruning shows here
EXACT_NODES_Q3 = {8: 52, 9: 885}
FIND_EXAMPLE_NODES = {5: (11, 11), 7: (739, 33)}  # (Q4, T2)


def q4_and_grid(q):
    model = build_q4_model(make_field(q))
    return model, model.hyperbolic_seed.point_local


def t2_and_grid(q):
    model = build_t2_model(make_field(q))
    return model, model.grid_points


def assert_maximal_partial_ovoid(gq, members, size):
    assert len(members) == size
    assert check_partial_ovoid(gq, members)
    assert extension_bits(gq, members) == 0


# ----------------------------------------------------------------------
# antipode pairing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 5])
def test_antipode_pairs_match_geometric_map(q):
    model, grid = q4_and_grid(q)
    pairs = antipode_pairs(model.gq, grid)
    assert len(pairs) == (q**3 - q) // 2
    geo = geometric_antipode_map(model.quadric, model.hyperbolic_seed)
    for a, b in pairs:
        assert geo[a] == b
        assert geo[b] == a


@pytest.mark.parametrize("q", [3, 5])
def test_antipode_pairs_partition_off_grid_points(q):
    model, grid = t2_and_grid(q)
    pairs = antipode_pairs(model.gq, grid)
    flat = [p for ab in pairs for p in ab]
    assert len(flat) == len(set(flat))
    assert set(flat) == set(range(model.gq.num_points)) - set(grid)
    for a, b in pairs:
        assert not model.gq.collinear(a, b)


def test_antipode_pairs_reject_non_grid_subset():
    model, grid = q4_and_grid(3)
    with pytest.raises(SearchError):
        antipode_pairs(model.gq, grid[:5])


def test_paired_universe_adjacency_is_symmetric():
    model, grid = q4_and_grid(3)
    uni = PairedUniverse.build(model.gq, grid)
    n = len(uni.pairs)
    for i in range(n):
        assert (uni.pair_adj[i] >> i) & 1  # self-inclusive
        for j in range(n):
            assert ((uni.pair_adj[i] >> j) & 1) == ((uni.pair_adj[j] >> i) & 1)


# ----------------------------------------------------------------------
# paired search
# ----------------------------------------------------------------------

@pytest.mark.parametrize("make,q", [
    (q4_and_grid, 3),
    (q4_and_grid, 5),
    (t2_and_grid, 3),
    (t2_and_grid, 5),
])
def test_paired_search_finds_antipode_closed_maximal_set(make, q):
    model, grid = make(q)
    cfg = SearchConfig(q * q - 1, mode="antipode_paired", root_fix=0)
    out = search_maximal(model.gq, cfg, grid)
    assert out.status == "found"
    assert_maximal_partial_ovoid(model.gq, out.members, q * q - 1)
    assert not set(out.members) & set(grid)
    pairs = {ab for ab in antipode_pairs(model.gq, grid)}
    chosen = set(out.members)
    for a, b in pairs:
        assert (a in chosen) == (b in chosen)


@pytest.mark.parametrize("q", [3, 5])
def test_paired_witness_leaves_grid_lines_uncovered(q):
    model, grid = q4_and_grid(q)
    cfg = SearchConfig(q * q - 1, mode="antipode_paired", root_fix=0)
    out = search_maximal(model.gq, cfg, grid)
    sub = uncovered_subquadrangle(model.gq, out.members)
    assert sub.order == (q, 1)
    assert set(sub.point_indices) == set(grid)


def test_paired_search_is_deterministic():
    model, grid = q4_and_grid(3)
    cfg = SearchConfig(8, mode="antipode_paired", root_fix=0)
    a = search_maximal(model.gq, cfg, grid)
    b = search_maximal(model.gq, cfg, grid)
    assert a.members == b.members
    assert a.nodes == b.nodes == 3


@pytest.mark.parametrize("q", sorted(FIND_EXAMPLE_NODES))
def test_find_example_node_counts_frozen(q):
    q4 = find_example(build_q4_model(make_field(q)))
    t2 = find_example(build_t2_model(make_field(q)))
    assert (q4.nodes, t2.nodes) == FIND_EXAMPLE_NODES[q]


# ----------------------------------------------------------------------
# exact point-level search
# ----------------------------------------------------------------------

def test_exact_dfs_lex_first_witness_q3():
    model, _ = q4_and_grid(3)
    out = search_maximal(model.gq, SearchConfig(8, mode="exact_dfs", root_fix=0))
    assert out.status == "found"
    assert out.members == LEX_FIRST_MAXIMAL_8
    assert out.nodes == EXACT_NODES_Q3[8]
    assert_maximal_partial_ovoid(model.gq, out.members, 8)


def test_exact_dfs_exhausts_impossible_size():
    # every 9-point partial ovoid extends, so none is maximal
    model, _ = q4_and_grid(3)
    out = search_maximal(model.gq, SearchConfig(9, mode="exact_dfs", root_fix=0))
    assert out.status == "exhausted"
    assert out.members is None
    assert out.nodes == EXACT_NODES_Q3[9]


def test_exact_dfs_finds_ovoids():
    model, _ = q4_and_grid(3)
    out = search_maximal(model.gq, SearchConfig(10, mode="exact_dfs", root_fix=0))
    assert out.status == "found"
    assert_maximal_partial_ovoid(model.gq, out.members, 10)
    # it really is an ovoid: it meets all lines
    for line in model.gq.lines:
        assert len(set(line) & set(out.members)) == 1


def test_enumerate_maximal_q3():
    model, _ = q4_and_grid(3)
    found = enumerate_maximal(model.gq, 8, root_fix=0)
    assert len(found) == NUM_MAXIMAL_8_THROUGH_0
    assert found[0] == LEX_FIRST_MAXIMAL_8
    for members in found:
        assert_maximal_partial_ovoid(model.gq, members, 8)


# ----------------------------------------------------------------------
# randomized restarts
# ----------------------------------------------------------------------

def test_extend_random_is_seed_reproducible():
    model, grid = q4_and_grid(3)
    cfg = SearchConfig(8, mode="extend_random", seed=11, time_budget=30.0)
    a = search_maximal(model.gq, cfg)
    b = search_maximal(model.gq, cfg)
    assert a.status == "found"
    assert a.members == b.members
    assert a.restarts == b.restarts
    assert (a.members, a.nodes, a.restarts) == ((0, 1, 14, 15, 24, 25, 38, 39), 40, 5)
    assert_maximal_partial_ovoid(model.gq, a.members, 8)


def test_extend_random_paired_mode():
    model, grid = t2_and_grid(3)
    cfg = SearchConfig(8, mode="extend_random", seed=2, time_budget=30.0)
    out = search_maximal(model.gq, cfg, grid)
    assert out.status == "found"
    assert (out.members, out.nodes, out.restarts) == ((0, 10, 14, 17, 20, 22, 25, 39), 4, 1)
    assert_maximal_partial_ovoid(model.gq, out.members, 8)
    assert not set(out.members) & set(grid)


def test_extend_random_times_out_on_impossible_target():
    model, _ = q4_and_grid(3)
    cfg = SearchConfig(9, mode="extend_random", seed=0, time_budget=0.2)
    out = search_maximal(model.gq, cfg)
    assert out.status == "timeout"
    assert out.restarts > 0


# ----------------------------------------------------------------------
# configuration errors
# ----------------------------------------------------------------------

def test_search_config_errors():
    model, grid = q4_and_grid(3)
    with pytest.raises(SearchError):
        search_maximal(model.gq, SearchConfig(0))
    with pytest.raises(SearchError):
        search_maximal(model.gq, SearchConfig(8, mode="no_such_mode"))
    with pytest.raises(SearchError):
        search_maximal(model.gq, SearchConfig(8, mode="antipode_paired"))
    with pytest.raises(SearchError):
        search_maximal(model.gq, SearchConfig(7, mode="antipode_paired"), grid)
    for mode, universe in [
        ("antipode_paired", grid),
        ("exact_dfs", None),
        ("extend_random", None),
        ("extend_random", grid),
    ]:
        for root in (999, -1):
            with pytest.raises(SearchError, match="out of range"):
                search_maximal(model.gq, SearchConfig(8, mode, root_fix=root), universe)


# ----------------------------------------------------------------------
# extendability audits
# ----------------------------------------------------------------------

def test_audit_ovoid_minus_point_completes_uniquely():
    model, _ = q4_and_grid(3)
    ovoid = search_maximal(model.gq, SearchConfig(10, mode="exact_dfs")).members
    report = extendability_audit(model.gq, ovoid[:-1])
    assert isinstance(report, AuditReport)
    assert report.size == 9
    assert report.rho == 0
    assert report.in_unique_range
    assert report.extensions == (ovoid[-1],)
    assert report.completions == (ovoid,)
    assert report.unique_completion is True


def test_audit_maximal_set_has_no_extension():
    model, grid = q4_and_grid(3)
    cfg = SearchConfig(8, mode="antipode_paired", root_fix=0)
    members = search_maximal(model.gq, cfg, grid).members
    report = extendability_audit(model.gq, members)
    assert report.size == 8
    assert report.rho == 1
    assert not report.in_unique_range
    assert report.extensions == ()
    assert report.completions == ()
    assert report.unique_completion is None


def test_audit_rejects_non_partial_ovoid():
    model, _ = q4_and_grid(3)
    line = model.gq.lines[0]
    with pytest.raises(Exception):
        extendability_audit(model.gq, line[:2])


def test_unique_completion_exhaustive_q3():
    model, _ = q4_and_grid(3)
    checked, failures = check_unique_completion_exhaustive(model.gq, root_fix=0)
    assert checked == NUM_SIZE9_THROUGH_0
    assert failures == []
