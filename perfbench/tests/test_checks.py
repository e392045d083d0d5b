"""The benchmark's own checkers, at q = 3 and q = 5.

Each checker must accept the program's real output and reject a corrupted
copy of it, so that no check passes by construction.  Run from the root of
the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import images  # noqa: E402
import tracer as tracing  # noqa: E402
from ovoid import build_q4_model, build_t2_model, find_example, make_field, run_census  # noqa: E402

FIELDS = (3, 5)


def _example(builder, q):
    model = builder(make_field(q))
    members = find_example(model).members
    return model, members, [model.encode_member(i) for i in members]


@pytest.fixture(scope="module", params=FIELDS)
def q4(request):
    return (request.param,) + _example(build_q4_model, request.param)


@pytest.fixture(scope="module", params=FIELDS)
def t2(request):
    return (request.param,) + _example(build_t2_model, request.param)


def test_q4_checker_accepts_the_example(q4):
    q, _, _, encoded = q4
    assert checks.check_q4_set(encoded, q) == []


def test_q4_checker_rejects_a_dropped_member(q4):
    q, _, _, encoded = q4
    problems = checks.check_q4_set(encoded[1:], q)
    assert any("members, expected" in p for p in problems)
    assert any("not maximal" in p for p in problems)


def test_q4_checker_rejects_a_collinear_pair(q4):
    q, model, members, encoded = q4
    # swap one member for a point on a line through another member
    line = next(ln for ln in model.gq.lines if members[0] in ln)
    other = next(i for i in line if i != members[0] and i not in members)
    corrupted = [model.encode_member(other)] + encoded[1:]
    assert any("collinear" in p for p in checks.check_q4_set(corrupted, q))


def test_t2_checker_accepts_and_rejects(t2):
    q, _, _, encoded = t2
    assert checks.check_t2_set(encoded, q) == []
    affine = [m for m in encoded if m != "inf"]
    assert checks.check_t2_set(affine[1:] + ["inf"], q)  # a member dropped
    assert checks.check_t2_set(affine, q)  # inf dropped


def test_identity_checker_accepts_and_rejects(t2):
    q, _, _, encoded = t2
    every = len(checks.directions_meeting_conic(q))
    assert checks.check_identity_sympy(encoded, q, random.Random(0), every) == []
    affine = [m for m in encoded if m != "inf"]
    a, b, c, _ = affine[0]
    moved = [[a, b, (c + 1) % q, 1]] + affine[1:] + ["inf"]
    assert checks.check_identity_sympy(moved, q, random.Random(0), every)


def test_independent_census_matches_the_program(q4):
    q, model, members, encoded = q4
    ours = checks.independent_census(encoded, q)
    theirs = run_census(model, members).to_json()
    assert ours["grid_sections"] == 1
    assert checks.check_census(theirs, q, len(members), ours) == []


def test_census_checker_rejects_one_changed_count(q4):
    q, model, members, encoded = q4
    reference = checks.independent_census(encoded, q)
    doc = run_census(model, members).to_json()
    hist = doc["histograms"]["elliptic"]
    size = max(hist, key=int)
    hist[size] += 1
    problems = checks.check_census(doc, q, len(members), reference)
    assert any("elliptic sections total" in p for p in problems)
    assert any("differ from the reference" in p for p in problems)


def test_census_checker_rejects_a_wrong_pair_count(q4):
    q, model, members, encoded = q4
    doc = run_census(model, members).to_json()
    pairs = doc["pair_histograms"]["elliptic"]
    size = next(iter(pairs))
    pairs[str(int(size) + 1)] = pairs.pop(size)
    assert any("not -3 mod" in p for p in checks.check_census(doc, q, len(members)))


def test_residue_set_matches_the_program():
    from ovoid.redei import residue_set

    for q in (3, 5, 7, 11):
        assert checks.residue_set(q) == set(residue_set(make_field(q)))


def test_digest_checker():
    assert checks.check_digests(["ab", "ab", "ab"]) == []
    assert checks.check_digests(["ab", "ab", "ac"])
    assert checks.check_digests(["ab", ""])


def test_q4_images_keep_structure_and_census(q4):
    q, _, _, encoded = q4
    rng = random.Random(7)
    reference = checks.independent_census(encoded, q)
    for _ in range(3):
        image = images.q4_image(encoded, q, rng)
        assert checks.check_q4_set(image, q) == []
        ours = checks.independent_census(image, q)
        assert ours["histograms"] == reference["histograms"]
        assert ours["pair_histograms"] == reference["pair_histograms"]


def test_t2_images_keep_structure_and_identity(t2):
    q, _, _, encoded = t2
    rng = random.Random(7)
    for _ in range(3):
        image = images.t2_image(encoded, q, rng)
        assert checks.check_t2_set(image, q) == []
        assert checks.check_identity_sympy(image, q, rng, 2) == []


def test_conic_similitude_maps_the_conic_onto_itself():
    q = 5
    rng = random.Random(3)
    conic = set(checks.conic_points(q))
    for _ in range(5):
        m = images.conic_similitude(q, rng)
        mapped = {checks.normalize((m @ np.array(c)) % q, q) for c in conic}
        assert mapped == conic


def test_self_times_add_up_to_the_root():
    tr = tracing.Tracer()
    with tr.span("op") as root:
        with tr.span("a"):
            with tr.span("b"):
                sum(range(1000))
        with tr.span("c"):
            sum(range(1000))
    own = tr.self_times(tr.subtree(root))
    assert abs(sum(own.values()) - root.seconds) < 1e-9
    assert tracing.self_sum_error(tr, root) < 1e-9
