"""Projective space and quadric tests.

Brute-force oracles here use plain integer arithmetic mod p (prime fields
only) so they share nothing with the module under test beyond the input
sizes; derived expected values are frozen in the assertions.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from antipode_oracle import geometric_antipode_map

from ovoid.census import check_antipode_closure
from ovoid.geometry import (
    GeometryError,
    ProjectiveSpace,
    Quadric,
    QuadraticForm,
    SectionType,
    parabolic_form,
    parabolic_quadric,
)
from ovoid.gf import make_field
from ovoid.q4 import build_q4_model
from ovoid.search import SearchError, antipode_pairs


def pg_size(n, q):
    return (q ** (n + 1) - 1) // (q - 1)


# ----------------------------------------------------------------------
# oracles over prime fields: tuples of ints mod p
# ----------------------------------------------------------------------

def oracle_pg_points(n, p):
    pts = set()
    for vec in itertools.product(range(p), repeat=n + 1):
        if any(vec):
            lead = next(v for v in vec if v)
            inv = pow(lead, p - 2, p)
            pts.add(tuple((inv * v) % p for v in vec))
    return sorted(pts)


def oracle_parabolic_value(vec, p):
    x0, x1, x2, x3, x4 = vec
    return (x0 * x0 + x1 * x2 + x3 * x4) % p


def test_pg_counts_and_order():
    f3 = make_field(3)
    pg43 = ProjectiveSpace(4, f3)
    assert len(pg43) == 121 == pg_size(4, 3)
    assert list(pg43.points) == oracle_pg_points(4, 3)

    f5 = make_field(5)
    pg25 = ProjectiveSpace(2, f5)
    assert len(pg25) == 31 == pg_size(2, 5)
    assert list(pg25.points) == oracle_pg_points(2, 5)

    # enumeration is lexicographic and stable
    assert pg43.points[0] == (0, 0, 0, 0, 1)
    assert pg43.points[-1] == (1, 2, 2, 2, 2)
    for pt in pg25.points:
        assert pg25.points[pg25.index(pt)] == pt


def test_normalization_example():
    f5 = make_field(5)
    pg = ProjectiveSpace(4, f5)
    assert pg.normalize((0, 2, 4, 0, 0)) == (0, 1, 2, 0, 0)
    with pytest.raises(GeometryError):
        pg.normalize((0, 0, 0, 0, 0))
    with pytest.raises(GeometryError):
        pg.normalize((1, 2, 3))


def test_prime_power_space():
    f9 = make_field(3, 2)
    pg = ProjectiveSpace(2, f9)
    assert len(pg) == pg_size(2, 9) == 91


@pytest.mark.parametrize("q", [3, 5, 7])
def test_parabolic_quadric_point_count(q):
    f = make_field(q)
    quad = parabolic_quadric(f)
    assert len(quad) == q**3 + q**2 + q + 1
    # independent recount with mod-p arithmetic
    count = sum(
        1
        for pt in quad.space.points
        if oracle_parabolic_value(pt, q) == 0
    )
    assert count == len(quad)
    for pt in quad.points:
        assert oracle_parabolic_value(pt, q) == 0


def test_parabolic_counts_frozen():
    assert len(parabolic_quadric(make_field(3))) == 40
    assert len(parabolic_quadric(make_field(5))) == 156


def test_singular_form_rejected():
    f = make_field(3)
    coeffs = [[0] * 5 for _ in range(5)]
    coeffs[1][2] = 1
    coeffs[3][4] = 1  # X1X2 + X3X4 is singular in five variables
    with pytest.raises(GeometryError):
        Quadric(ProjectiveSpace(4, f), QuadraticForm(f, coeffs))


def test_polar_form_matches_definition():
    f = make_field(7)
    form = parabolic_form(f)
    pg = ProjectiveSpace(4, f)
    rng = np.random.RandomState(0)
    for _ in range(40):
        u = tuple(int(x) for x in rng.randint(0, 7, size=5))
        v = tuple(int(x) for x in rng.randint(0, 7, size=5))
        s = tuple(f.add(a, b) for a, b in zip(u, v))
        expect = f.sub(f.sub(form.evaluate(s), form.evaluate(u)), form.evaluate(v))
        assert form.polar(u, v) == expect


def test_perp_section_is_cone_q3():
    f = make_field(3)
    quad = parabolic_quadric(f)
    for i in [0, 7, len(quad) - 1]:
        sec = quad.classify_section(quad.perp(i))
        assert sec.kind is SectionType.CONE
        assert len(sec.point_local) == 13
        assert i in sec.point_local


def test_perp_involution_and_incidence():
    # perp of a point is a hyperplane through the point; the polarity is
    # involutory: the pole of the tangent hyperplane is the point itself
    f = make_field(5)
    quad = parabolic_quadric(f)
    pg = quad.space
    B = quad.form
    for i in range(len(quad)):
        h = quad.perp(i)
        assert pg.pairing(h, quad.points[i]) == 0
        # solve B * x = h up to scale: apply B inverse via nullspace trick
        rows = [list(B.polar_matrix[k]) + [h[k]] for k in range(5)]
        from ovoid.gf import mat_nullspace

        ns = mat_nullspace(f, rows)
        assert len(ns) == 1
        pole = pg.normalize(ns[0][:5])
        assert pole == quad.points[i]


def test_section_census_q3_matches_oracle():
    f = make_field(3)
    quad = parabolic_quadric(f)
    pg = quad.space
    sizes = {}
    for coeffs in pg.points:  # hyperplane coefficient vectors
        on = sum(
            1
            for pt in quad.points
            if sum(c * v for c, v in zip(coeffs, pt)) % 3 == 0
        )
        sizes[on] = sizes.get(on, 0) + 1
    # frozen oracle output: elliptic 10, cone 13, hyperbolic 16 point sections
    assert sizes == {10: 36, 13: 40, 16: 45}
    kinds = {}
    for coeffs in pg.points:
        sec = quad.classify_section(coeffs)
        kinds[sec.kind] = kinds.get(sec.kind, 0) + 1
        assert len(sec.point_local) == {
            SectionType.ELLIPTIC: 10,
            SectionType.CONE: 13,
            SectionType.HYPERBOLIC: 16,
        }[sec.kind]
    assert kinds == {
        SectionType.ELLIPTIC: 36,
        SectionType.CONE: 40,
        SectionType.HYPERBOLIC: 45,
    }


def test_elliptic_hyperplane_count_q5():
    f = make_field(5)
    quad = parabolic_quadric(f)
    pg = quad.space
    elliptic = sum(
        1
        for coeffs in pg.points
        if quad.classify_section(coeffs).kind is SectionType.ELLIPTIC
    )
    assert elliptic == 300  # q^2 (q^2 - 1) / 2


@pytest.mark.parametrize("q", [3, 5])
def test_ti_line_counts(q):
    f = make_field(q)
    quad = parabolic_quadric(f)
    lines = quad.lines()
    assert len(lines) == (q + 1) * (q * q + 1)
    seen_pairs = set()
    for line in lines:
        assert len(line) == q + 1
        assert line == tuple(sorted(line))
        for a, b in itertools.combinations(line, 2):
            assert (a, b) not in seen_pairs  # two points lie on one line
            seen_pairs.add((a, b))
            assert quad.collinear[a, b]
    # every collinear pair is covered by exactly one line
    expect_pairs = {
        (i, j)
        for i in range(len(quad))
        for j in np.flatnonzero(quad.collinear[i])
        if i < j
    }
    assert seen_pairs == expect_pairs
    # line sets are fully on the quadric and closed under spans
    degrees = [0] * len(quad)
    for line in lines:
        for i in line:
            degrees[i] += 1
    assert set(degrees) == {q + 1}


def test_line_points_on_quadric_are_collinear_closure():
    f = make_field(3)
    quad = parabolic_quadric(f)
    line = quad.lines()[0]
    pts = [quad.points[i] for i in line]
    # every pair on the line spans the same point set
    base = set(pts)
    for u, v in itertools.combinations(pts, 2):
        assert set(quad.space.line_points(u, v)) == base


def test_hyperbolic_seed_hyperplane():
    # the coordinate hyperplane X0 = 0 cuts the split form in a hyperbolic
    # quadric for every q
    for q in (3, 5, 7):
        quad = parabolic_quadric(make_field(q))
        sec = quad.classify_section((1, 0, 0, 0, 0))
        assert sec.kind is SectionType.HYPERBOLIC
        assert len(sec.point_local) == (q + 1) ** 2


@pytest.mark.parametrize("q", [3, 5])
def test_antipode_involution_fixed_point_free(q):
    quad = parabolic_quadric(make_field(q))
    sec = quad.classify_section((1, 0, 0, 0, 0))
    amap = geometric_antipode_map(quad, sec)
    on = set(sec.point_local)
    off = [i for i in range(len(quad)) if i not in on]
    assert len(off) == q**3 - q
    for i in off:
        j = int(amap[i])
        assert j >= 0 and j != i and j not in on
        assert int(amap[j]) == i
        # a point and its antipode are never collinear
        assert not quad.collinear[i, j]
    assert all(int(amap[i]) == -1 for i in on)


def test_antipode_errors():
    model = build_q4_model(make_field(3))
    quad = model.quadric
    sections = {}
    for c in quad.space.points:
        sec = quad.classify_section(c)
        sections.setdefault(sec.kind, sec)
    # across a cone, the common neighbours of a point's conic are the point
    # and the vertex, so the only partner candidate lies on the section
    with pytest.raises(SearchError, match="lies on the grid"):
        antipode_pairs(model.gq, sections[SectionType.CONE].point_local)
    # the census pairs members across the set's hyperbolic section only
    with pytest.raises(GeometryError, match="hyperbolic"):
        check_antipode_closure(model, sections[SectionType.ELLIPTIC], [])
    assert len(antipode_pairs(model.gq, model.hyperbolic_seed.point_local)) == 12


def test_hyperplane_through_recovers_section():
    quad = parabolic_quadric(make_field(3))
    sec = quad.classify_section((1, 0, 0, 0, 0))
    coeffs = quad.hyperplane_through(sec.point_local)
    assert coeffs == (1, 0, 0, 0, 0)
    with pytest.raises(GeometryError):
        quad.hyperplane_through([0, 1])  # spans too little
