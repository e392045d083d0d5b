"""The explicit isomorphism T2(C) -> Q(4, q) and its outside checks.

``T2Model.to_q4`` writes the map down algebraically and checks it line by
line.  The tests here check its images against the quadric's own
collinearity, break it on purpose, and compare it with two oracles that
share nothing with it: networkx VF2 on the collinearity graphs at q = 3, and
the census of a set found by the Q4 search itself at q = 5 and 7.
"""

from __future__ import annotations

import functools

import networkx as nx
import numpy as np
import pytest

from ovoid.census import run_census
from ovoid.gf import make_field
from ovoid.gq import GQError, check_isomorphism
from ovoid.q4 import build_q4_model
from ovoid.t2 import build_t2_model
from ovoid.verify import find_example, verify_members

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]


@functools.cache  # the models are read-only here; each field is built once
def models(p, h):
    f = make_field(p, h)
    return build_t2_model(f), build_q4_model(f)


@pytest.mark.parametrize("p,h", FIELDS)
def test_to_q4_is_a_bijection_onto_lines(p, h):
    t2, q4 = models(p, h)
    image = t2.to_q4(q4)
    assert sorted(image) == list(range(q4.gq.num_points))
    mapped = {tuple(sorted(image[i] for i in line)) for line in t2.gq.lines}
    assert mapped == set(q4.gq.lines)


@pytest.mark.parametrize("p,h", FIELDS)
def test_to_q4_point_types(p, h):
    t2, q4 = models(p, h)
    q = p**h
    image = t2.to_q4(q4)
    inf = q4.quadric.local_index((0, 0, 0, 0, 1))
    assert image[t2.inf_index] == inf
    # collinearity read from the quadric's polar form, not from the lines
    near = set(np.flatnonzero(q4.quadric.collinear[inf])) - {inf}
    planes = {image[t2.plane_index[pl]] for pl in t2.planes}
    affines = {image[t2.affine_index[a]] for a in t2.affines}
    assert len(near) == q * (q + 1)
    assert planes == near
    assert len(affines) == q**3
    assert affines == set(range(q4.gq.num_points)) - near - {inf}


def test_swapped_images_raise_naming_a_line():
    t2, q4 = models(3, 1)
    image = list(t2.to_q4(q4))
    image[0], image[1] = image[1], image[0]
    with pytest.raises(GQError) as err:
        check_isomorphism(t2.gq, q4.gq, image)
    li = err.value.witness["line"]
    assert f"line {li} " in str(err.value)
    assert 0 in t2.gq.lines[li] or 1 in t2.gq.lines[li]


def test_non_bijections_raise_naming_a_point():
    t2, q4 = models(3, 1)
    image = list(t2.to_q4(q4))
    with pytest.raises(GQError) as err:
        check_isomorphism(t2.gq, q4.gq, image[:5] + [image[0]] + image[6:])
    assert err.value.witness == {"point": 5}
    with pytest.raises(GQError) as err:
        check_isomorphism(t2.gq, q4.gq, image[:-1] + [len(image)])
    assert err.value.witness == {"point": len(image) - 1}
    with pytest.raises(GQError):
        check_isomorphism(t2.gq, q4.gq, image[:-1])


def collinearity_graph(gq):
    g = nx.Graph()
    g.add_nodes_from(range(gq.num_points))
    for line in gq.lines:
        g.add_edges_from((a, b) for k, a in enumerate(line) for b in line[k + 1 :])
    return g


def test_vf2_quadrangles_isomorphic_q3():
    # A quadrangle has no triangles, so its lines are exactly the maximal
    # cliques of its collinearity graph: the collinearity graph determines
    # the point-line incidence graph, and isomorphic collinearity graphs
    # mean isomorphic quadrangles.  VF2 settles the collinearity graphs at
    # once; on the incidence graphs (girth 8) it runs for minutes.
    t2, q4 = models(3, 1)
    graphs = [collinearity_graph(t2.gq), collinearity_graph(q4.gq)]
    for g, gq in zip(graphs, (t2.gq, q4.gq)):
        assert sorted(tuple(sorted(c)) for c in nx.find_cliques(g)) == sorted(gq.lines)
    assert nx.is_isomorphic(*graphs)


@pytest.mark.parametrize("q", [5, 7])
def test_mapped_example_matches_q4_search(q):
    t2, q4 = models(q, 1)
    found = find_example(t2)
    image = t2.to_q4(q4)
    mapped = sorted(image[i] for i in found.members)
    searched = find_example(q4).members
    assert run_census(q4, mapped).to_json() == run_census(q4, searched).to_json()
    t2_report = verify_members(t2, found.members, include_profile=True)
    q4_report = verify_members(q4, mapped, include_profile=True)
    assert q4_report.passed, q4_report.summary_lines()
    assert q4_report.profile == t2_report.profile
