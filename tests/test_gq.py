"""Quadrangle axiom checks, partial ovoid machinery and both models."""

from __future__ import annotations

import itertools

import pytest

from ovoid.geometry import GeometryError, SectionType
from ovoid.gf import make_field
from ovoid.gq import (
    GQ,
    GQError,
    check_partial_ovoid,
    extension_bits,
    grid_gq,
    is_maximal,
    uncovered_subquadrangle,
    verify_gq,
)
from ovoid.q4 import build_q4_model
from ovoid.t2 import INF, build_t2_model


def test_grid_is_gq_of_order_s_1():
    g = grid_gq(3)
    assert (g.s, g.t) == (3, 1)
    assert g.num_points == 16
    assert len(g.lines) == 8


def test_verify_gq_rejects_broken_structures():
    # ragged line sizes
    with pytest.raises(GQError):
        verify_gq(4, [(0, 1), (1, 2, 3)])
    # two common lines through one pair
    with pytest.raises(GQError) as err:
        verify_gq(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    assert "two common lines" in str(err.value)
    # a triangle breaks the quadrangle axiom (and the counts)
    with pytest.raises(GQError):
        verify_gq(3, [(0, 1), (1, 2), (0, 2)])


def test_verify_gq_names_witnesses():
    # drop one line from a grid: degrees become uneven
    g = grid_gq(2)
    with pytest.raises(GQError) as err:
        verify_gq(9, g.lines[:-1])
    assert err.value.witness or "vary" in str(err.value) or "expected" in str(err.value)


@pytest.mark.parametrize("q", [3, 5])
def test_q4_model_order_and_counts(q):
    model = build_q4_model(make_field(q))
    n = (q + 1) * (q * q + 1)
    assert (model.gq.s, model.gq.t) == (q, q)
    assert model.gq.num_points == n
    assert len(model.gq.lines) == n


@pytest.mark.parametrize("q", [3, 5])
def test_t2_model_order_and_counts(q):
    model = build_t2_model(make_field(q))
    n = (q + 1) * (q * q + 1)
    assert (model.gq.s, model.gq.t) == (q, q)
    assert model.gq.num_points == n
    assert len(model.gq.lines) == n
    # point type tally: q^3 affine, q(q+1) planes, one symbol
    assert len(model.affines) == q**3
    assert len(model.planes) == q * (q + 1)
    assert model.inf_index == n - 1


def test_t2_point_counts_frozen_q3():
    model = build_t2_model(make_field(3))
    assert len(model.affines) == 27
    assert len(model.planes) == 12
    assert model.gq.num_points == 40


def test_t2_tangent_planes_match_oracle_q3():
    # oracle: planes of PG(3, 3) meeting the conic exactly once, counted
    # with plain mod-3 arithmetic over all normalized coefficient vectors
    p = 3
    conic = [((t * t) % p, t, 1, 0) for t in range(p)] + [(1, 0, 0, 0)]
    planes = set()
    for vec in itertools.product(range(p), repeat=4):
        if not any(vec):
            continue
        lead = next(v for v in vec if v)
        inv = pow(lead, p - 2, p)
        norm = tuple((inv * v) % p for v in vec)
        hits = sum(1 for c in conic if sum(a * b for a, b in zip(norm, c)) % p == 0)
        if hits == 1:
            planes.add(norm)
    assert len(planes) == p * (p + 1)
    model = build_t2_model(make_field(3))
    got = {(y, z, w, x) for (y, z, w, x) in model.planes}
    assert got == planes


def test_t2_inf_incidence():
    model = build_t2_model(make_field(3))
    gq = model.gq
    inf_lines = gq.point_lines[model.inf_index]
    assert len(inf_lines) == 4  # q + 1 conic points
    for li in inf_lines:
        for i in gq.lines[li]:
            assert i == model.inf_index or model.point_labels[i][0] == "plane"


def test_t2_grid_is_subquadrangle_geometry():
    model = build_t2_model(make_field(3))
    q = 3
    assert len(model.grid_points) == (q + 1) ** 2
    assert model.inf_index not in model.grid_points
    coeffs = model.fit_quadric_surface(model.grid_points)
    # the surface is unique and traces the conic at infinity; also check
    # every affine grid point really satisfies it
    f = model.field
    monos = list(itertools.combinations_with_replacement(range(4), 2))
    for i in model.grid_points:
        label = model.point_labels[i]
        if label[0] != "aff":
            continue
        vec = label[1] + (1,)
        acc = 0
        for (a, b), c in zip(monos, coeffs):
            acc = f.add(acc, f.mul(c, f.mul(vec[a], vec[b])))
        assert acc == 0


def test_partial_ovoid_checks_and_extension():
    model = build_q4_model(make_field(3))
    gq = model.gq
    # an elliptic section is an ovoid: 10 pairwise non-collinear points
    ell = next(
        model.quadric.classify_section(c)
        for c in model.quadric.space.points
        if model.quadric.classify_section(c).kind is SectionType.ELLIPTIC
    )
    ovoid = list(ell.point_local)
    assert len(ovoid) == 10
    assert check_partial_ovoid(gq, ovoid)
    ok, witnesses = is_maximal(gq, ovoid)
    assert ok and witnesses == ()
    # removing a point leaves exactly one extension: the removed point
    sub = ovoid[:-1]
    ok, witnesses = is_maximal(gq, sub)
    assert not ok and witnesses == (ovoid[-1],)
    # two collinear points are not a partial ovoid
    line = gq.lines[0]
    assert not check_partial_ovoid(gq, line[:2])


def test_uncovered_subquadrangle_rejects_ovoid_and_nonovoid():
    model = build_q4_model(make_field(3))
    ell = next(
        model.quadric.classify_section(c)
        for c in model.quadric.space.points
        if model.quadric.classify_section(c).kind is SectionType.ELLIPTIC
    )
    with pytest.raises(GQError):
        uncovered_subquadrangle(model.gq, ell.point_local)  # ovoid covers all
    with pytest.raises(GQError):
        uncovered_subquadrangle(model.gq, model.gq.lines[0][:2])  # collinear


def test_q4_member_codec_round_trip():
    model = build_q4_model(make_field(3))
    for i in (0, 5, len(model.quadric) - 1):
        assert model.decode_member(model.encode_member(i)) == i
    with pytest.raises(GeometryError):
        model.decode_member([1, 0, 0])


def test_t2_member_codec_round_trip():
    model = build_t2_model(make_field(3))
    gq_n = model.gq.num_points
    for i in (0, 10, len(model.affines), gq_n - 2, model.inf_index):
        assert model.decode_member(model.encode_member(i)) == i
    assert model.encode_member(model.inf_index) == INF
    with pytest.raises(GeometryError):
        model.decode_member([0, 0, 0, 2])


def test_t2_u_from_k_round_trip():
    model = build_t2_model(make_field(3))
    gq = model.gq
    # build a small partial ovoid through inf greedily
    free = extension_bits(gq, [model.inf_index])
    members = [model.inf_index]
    while free:
        i = (free & -free).bit_length() - 1
        members.append(i)
        free &= ~gq.collinear_bits[i]
        if len(members) == 5:
            break
    u = model.u_from_k(members)
    assert len(u) == len(members) - 1
    back = model.k_from_u(u)
    assert back == tuple(sorted(members))
    # directions stay off the conic
    dirs = model.determined_directions(u)
    assert not (dirs & model.conic.point_set)
    with pytest.raises(GeometryError):
        model.u_from_k([i for i in members if i != model.inf_index])


def test_conic_direction_census():
    for q in (3, 5):
        conic = build_t2_model(make_field(q)).conic
        buckets = conic.classify_directions()
        assert len(buckets["tangent"]) == q + 1
        assert len(buckets["secant"]) == q * (q + 1) // 2
        assert len(buckets["external"]) == q * (q - 1) // 2
        assert set(buckets["tangent"]) == conic.tangent_set


def oracle_t2_lines(model):
    """The former T2 line loop: every affine line rebuilt from each of its
    points, kept only when that point is the least."""
    f = model.field
    lines = []
    for cpt, tang in zip(model.conic.points, model.conic.tangents):
        for a in model.affines:
            coset = [model._translate(a, cpt, t) for t in f.elements()]
            if min(coset) != a:
                continue
            x = f.neg(
                f.add(
                    f.add(f.mul(tang[0], a[0]), f.mul(tang[1], a[1])),
                    f.mul(tang[2], a[2]),
                )
            )
            members = [model.affine_index[c] for c in coset]
            members.append(model.plane_index[(*tang, x)])
            lines.append(tuple(sorted(members)))
    for tang in model.conic.tangents:
        members = [model.plane_index[(*tang, x)] for x in f.elements()]
        lines.append(tuple(sorted(members + [model.inf_index])))
    return tuple(lines)


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2)])
def test_t2_lines_match_rebuild_oracle(p, h):
    # same lines in the same order: line indices are part of the model
    model = build_t2_model(make_field(p, h))
    assert model.gq.lines == oracle_t2_lines(model)
