"""Quadrangle axiom checks, partial ovoid machinery and both models."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ovoid.geometry import GeometryError, SectionType
from ovoid.gf import FieldError, make_field
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
from ovoid.verify import find_example


def test_grid_is_gq_of_order_s_1():
    g = grid_gq(3)
    assert (g.s, g.t) == (3, 1)
    assert g.num_points == 16
    assert len(g.lines) == 8


def oracle_verify_gq(num_points, lines):
    """The scalar quadrangle check: one Python loop per axiom, kept as the
    oracle of the array version (with the same point range check)."""
    if not lines:
        raise GQError("no lines")
    sizes = {len(line) for line in lines}
    if len(sizes) != 1:
        raise GQError(f"line sizes vary: {sorted(sizes)}")
    s = sizes.pop() - 1
    if s < 1:
        raise GQError("lines must carry at least two points")
    for li, line in enumerate(lines):
        for i in line:
            if not 0 <= i < num_points:
                raise GQError(
                    f"line {li} has point {i}, outside 0..{num_points - 1}",
                    witness={"line": li},
                )

    degrees = [0] * num_points
    for line in lines:
        for i in line:
            degrees[i] += 1
    degs = set(degrees)
    if len(degs) != 1:
        thin = degrees.index(min(degs))
        raise GQError(f"point degrees vary: {sorted(degs)}", witness={"point": thin})
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


def _grid_with_first_line(line):
    return [line] + list(grid_gq(2).lines[1:])


# name -> (num_points, lines, a phrase of the expected error)
BROKEN = {
    "no lines": (4, [], "no lines"),
    "ragged": (4, [(0, 1), (1, 2, 3)], "sizes vary"),
    "repeated point": (4, [(0, 0), (1, 1), (2, 3), (2, 3)], "repeats point 0"),
    "two common lines": (4, [(0, 1), (0, 1), (2, 3), (2, 3)], "two common lines"),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], "expected"),
    "missing line": (9, list(grid_gq(2).lines[:-1]), "degrees vary"),
    "negative point": (9, _grid_with_first_line((-9, 1, 2)), "point -9, outside"),
    "point past the end": (9, _grid_with_first_line((0, 1, 9)), "point 9, outside"),
}


def test_verify_gq_rejects_broken_structures():
    # the array check and the scalar oracle give the same error and witness
    for name, (num_points, lines, phrase) in BROKEN.items():
        with pytest.raises(GQError, match=phrase) as err:
            verify_gq(num_points, lines)
        with pytest.raises(GQError) as oracle_err:
            oracle_verify_gq(num_points, lines)
        assert str(err.value) == str(oracle_err.value), name
        assert err.value.witness == oracle_err.value.witness, name


def test_verify_gq_names_witnesses():
    # drop one line from a grid: degrees become uneven
    g = grid_gq(2)
    with pytest.raises(GQError) as err:
        verify_gq(9, g.lines[:-1])
    assert err.value.witness or "vary" in str(err.value) or "expected" in str(err.value)


@pytest.mark.parametrize("bad", [(-9, 1, 2), (0, 1, 9)])
def test_point_indices_out_of_range_name_the_line(bad):
    # a negative index must not wrap round to a real point
    lines = _grid_with_first_line(bad)
    with pytest.raises(GQError, match="outside 0..8") as err:
        verify_gq(9, lines)
    assert err.value.witness == {"line": 0}
    with pytest.raises(GQError, match="outside 0..8"):
        GQ(lines, num_points=9)


@pytest.mark.parametrize("seed", range(16))
def test_verify_gq_reports_the_oracle_offence_on_corrupted_t2(seed):
    # even seeds move one point of a line elsewhere (degrees break), odd
    # seeds swap points between two lines (degrees hold, so the pair and
    # axiom-three checks must fire); both versions name the same offence
    lines = [list(line) for line in build_t2_model(make_field(3)).gq.lines]
    rng = np.random.RandomState(seed)
    li, lj = rng.choice(len(lines), size=2, replace=False)
    k, m = rng.randint(4, size=2)
    if seed % 2 == 0:
        lines[li][k] = (lines[li][k] + 1 + int(rng.randint(39))) % 40
    else:
        lines[li][k], lines[lj][m] = lines[lj][m], lines[li][k]
    lines = [tuple(line) for line in lines]
    results = []
    for check in (verify_gq, oracle_verify_gq):
        with pytest.raises(GQError) as err:
            check(40, lines)
        results.append((str(err.value), err.value.witness))
    assert results[0] == results[1]


@pytest.mark.parametrize("p,h", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_verify_gq_matches_oracle_on_both_models(p, h):
    field = make_field(p, h)
    for model in (build_q4_model(field), build_t2_model(field)):
        gq = model.gq
        assert verify_gq(gq.num_points, gq.lines) == (field.q, field.q)
        assert oracle_verify_gq(gq.num_points, gq.lines) == (field.q, field.q)


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
    """The scalar T2 line build: each affine line is the coset of its least
    point, walked in ascending order with its points marked as seen."""
    f = model.field
    lines = []
    for cpt, tang in zip(model.conic.points, model.conic.tangents):
        seen = set()
        for a in model.affines:
            if a in seen:
                continue
            coset = [
                tuple(f.add(a[k], f.mul(t, cpt[k])) for k in range(3))
                for t in f.elements()
            ]
            seen.update(coset)
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


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2), (11, 1)])
def test_t2_lines_match_rebuild_oracle(p, h):
    # same lines in the same order: line indices are part of the model
    model = build_t2_model(make_field(p, h))
    assert model.gq.lines == oracle_t2_lines(model)


def oracle_determined_directions(model, triples):
    """The scalar secant directions: one difference per pair, normalized."""
    f = model.field
    pts = [tuple(int(v) for v in t) for t in triples]
    out = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = tuple(f.sub(a, b) for a, b in zip(pts[i], pts[j]))
            out.add(model.conic.plane.normalize(diff))
    return out


@pytest.mark.parametrize("q", [3, 5, 7])
def test_determined_directions_match_oracle_on_found_examples(q):
    model = build_t2_model(make_field(q))
    outcome = find_example(model)
    assert outcome.found
    triples = [
        model.point_labels[i][1]
        for i in outcome.members
        if model.point_labels[i][0] == "aff"
    ]
    got = model.determined_directions(triples)
    assert got == oracle_determined_directions(model, triples)
    assert not got & model.conic.point_set


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2)])
def test_determined_directions_match_oracle_on_random_sets(p, h):
    model = build_t2_model(make_field(p, h))
    rng = np.random.RandomState(p * 10 + h)
    for size in (0, 1, 2, 7, 30):
        rows = rng.choice(len(model.affines), size=size, replace=False)
        triples = [model.affines[r] for r in rows]
        assert model.determined_directions(triples) == oracle_determined_directions(
            model, triples
        )
    with pytest.raises(GeometryError):
        model.determined_directions([(1, 2, 0), (1, 2, 0)])
    with pytest.raises(FieldError):
        model.determined_directions([(0, 0, 0), (0, 0, model.field.q)])
