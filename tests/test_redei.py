"""Tests for the symmetric-function and plane-count machinery."""

import itertools
import json
import random

import pytest

from ovoid.gf import make_field
from ovoid.redei import (
    RedeiError,
    RedeiSuiteReport,
    affine_set,
    chi_closed,
    chi_closed_all,
    chi_direct,
    chi_direct_all,
    coordinate_sums,
    factorization_mismatches,
    linear_values,
    linear_values_all,
    newton_sigmas,
    newton_sigmas_all,
    plane_point_count,
    power_sums,
    power_sums_all,
    redei_coefficients,
    redei_coefficients_all,
    redei_suite_core,
    residue_set,
    run_redei_suite,
    sigma2_form,
    translate_to_zero_sum,
    verify_plane_count,
    verify_redei_factorization,
)
from ovoid.search import SearchConfig, search_maximal
from ovoid.t2 import build_t2_model


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def oracle_elementary_symmetric(field, values, k):
    """sigma_k by literal sum over all k-subsets."""
    total = 0
    for combo in itertools.combinations(values, k):
        prod = 1
        for v in combo:
            prod = field.mul(prod, v)
        total = field.add(total, prod)
    return total


def oracle_power_sum(field, values, j):
    total = 0
    for v in values:
        total = field.add(total, field.pow(v, j))
    return total


def oracle_directions(field, points):
    """Normalized infinite points determined by a set of affine triples."""
    out = set()
    for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(set(points), 2):
        d = (field.sub(a1, a2), field.sub(b1, b2), field.sub(c1, c2))
        lead = next(v for v in d if v)
        inv = field.inv(lead)
        out.add(tuple(field.mul(inv, v) for v in d))
    return out


def oracle_suite(u, conic):
    """The identity suite as a scalar walk over directions, one checked
    field operation at a time: the slow path the array suite must match
    report for report, witnesses included."""
    field = u.field
    q = field.q
    n = len(u)

    checks: dict[str, bool] = {}
    failures: list[tuple[str, tuple]] = []

    def record(name: str, ok: bool, witness: tuple) -> None:
        if name not in checks:
            checks[name] = True
        if not ok and checks[name]:
            checks[name] = False
            failures.append((name, witness))

    record("sigma1_zero", coordinate_sums(field, u.points) == (0, 0, 0), ())

    form = sigma2_form(u)
    buckets = conic.classify_directions()
    tangent_set = set(buckets["tangent"])
    n_mod = n % field.p
    minus_two = field.neg(2 % field.p)
    sigma2_seen: set[int] = set()

    for direction in conic.plane.points:
        meets = conic.line_meets(direction) > 0
        sigmas = redei_coefficients(u, direction)
        s2 = sigmas[2]
        sigma2_seen.add(s2)

        record("form_matches_product", form.evaluate(direction) == s2, (direction,))

        if meets:
            rep = verify_redei_factorization(u, direction)
            record("factorization", rep.passed, (direction, rep.first_mismatch))

        power = power_sums(u, direction)
        newton = newton_sigmas(field, power, q - 1)
        record(
            "newton_matches_product",
            newton == sigmas[: q],
            (direction,),
        )
        ok_power = all(power[j] == 0 for j in range(1, q, 2)) and all(
            power[2 * l] == field.mul(minus_two, field.pow(s2, l))
            for l in range((q - 1) // 2 + 1)
        )
        record("power_sum_pattern", ok_power, (direction,))
        ok_sigma = all(sigmas[j] == 0 for j in range(1, q, 2)) and all(
            sigmas[2 * l] == field.pow(s2, l) for l in range((q - 1) // 2 + 1)
        )
        record("sigma_pattern", ok_sigma, (direction,))

        record(
            "dual_zero_set",
            (s2 == 0) == (direction in tangent_set),
            (direction,),
        )

        values = linear_values(u, direction)
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        s2_square = field.is_square(s2)
        for x in range(q):
            chi_d = 0
            for v in values:
                chi_d = field.add(chi_d, field.pow(field.add(x, v), q - 1))
            record(
                "chi_two_paths", chi_d == chi_closed(field, x, s2), (direction, x)
            )
            on_plane = counts.get(field.neg(x), 0)
            record(
                "plane_congruence",
                chi_d == field.sub(n_mod, on_plane % field.p),
                (direction, x),
            )
            x2 = field.mul(x, x)
            if s2 == 0:
                expected = 0 if x == 0 else minus_two
                ok_case = chi_d == expected
            elif s2_square:
                ok_case = chi_d == (field.neg(1) if x2 == s2 else minus_two)
            else:
                # chi = -2 (x^2 + s2) / (x^2 - s2); it vanishes exactly
                # when x^2 = -s2, which has solutions iff -1 is a
                # non-square (q = 3 mod 4) since s2 is a non-square here
                ratio = field.div(field.add(x2, s2), field.sub(x2, s2))
                ok_case = chi_d == field.mul(minus_two, ratio) and (
                    (chi_d == 0) == (x2 == field.neg(s2))
                )
            record("chi_case_analysis", ok_case, (direction, x))
            if meets:
                # on lines meeting the conic, sigma2 is square-or-zero
                # (both roots of X^2 - sigma2 lie in the field), so a
                # vanishing chi forces sigma2 = 0 and x = 0 — the step
                # that identifies the zero set of sigma2 with the
                # tangent directions
                record(
                    "chi_zero_locus_on_conic_lines",
                    chi_d != 0 or (s2 == 0 and x == 0),
                    (direction, x),
                )
        if meets:
            record("sigma2_square_on_conic_lines", s2_square, (direction,))
        if direction in tangent_set:
            record(
                "tangent_plane_count", counts.get(0, 0) == q - 2, (direction,)
            )

    record("sigma2_range_full", sigma2_seen == set(range(q)), ())

    return RedeiSuiteReport(
        q=q,
        set_size=n,
        sigma2_rank=form.rank,
        checks=checks,
        failures=failures,
    )


def random_affine_set(field, n, seed):
    rng = random.Random(seed)
    pts = [tuple(rng.randrange(field.q) for _ in range(3)) for _ in range(n)]
    return affine_set(field, pts)


def found_example(q):
    field = make_field(q)
    model = build_t2_model(field)
    out = search_maximal(
        model.gq,
        SearchConfig(q * q - 1, mode="antipode_paired", root_fix=0),
        model.grid_points,
    )
    assert out.status == "found"
    return model, out.members


def plane_drop_set(model, drop):
    """A valid extendable set: the affine points of a plane whose infinite
    line misses the conic, with two points removed."""
    field = model.field
    y, z, w = model.conic.classify_directions()["external"][0]
    x = 1
    aff = [
        (a, b, c)
        for a in range(field.q)
        for b in range(field.q)
        for c in range(field.q)
        if field.add(
            field.add(field.mul(y, a), field.mul(z, b)),
            field.add(field.mul(w, c), x),
        )
        == 0
    ]
    return affine_set(field, [p for i, p in enumerate(aff) if i not in drop])


# ----------------------------------------------------------------------
# affine sets and translation
# ----------------------------------------------------------------------

def test_affine_set_validation():
    field = make_field(5)
    u = affine_set(field, [(1, 2, 3), (0, 0, 0)])
    assert len(u) == 2 and not u.translated
    with pytest.raises(RedeiError):
        affine_set(field, [(1, 2)])
    with pytest.raises(RedeiError):
        affine_set(field, [(1, 2, 7)])


def test_translate_shifts_by_mean():
    field = make_field(5)
    # coordinate sum 3 over 3 points: shift is -3/3 = -1
    u = affine_set(field, [(1, 0, 0), (1, 0, 0), (1, 2, 3)])
    t = translate_to_zero_sum(u)
    assert t.translated
    assert coordinate_sums(field, t.points) == (0, 0, 0)
    assert t.points == ((0, 1, 4), (0, 1, 4), (0, 3, 2))


def test_translate_idempotent_and_error():
    field = make_field(5)
    u = affine_set(field, [(1, 0, 0), (4, 0, 0)])
    assert u.translated
    assert translate_to_zero_sum(u) is u
    five = affine_set(field, [(1, 0, 0)] * 4 + [(2, 0, 0)])
    assert not five.translated
    with pytest.raises(RedeiError):
        translate_to_zero_sum(five)


def test_translate_preserves_directions():
    field = make_field(7)
    u = random_affine_set(field, 10, seed=3)
    t = translate_to_zero_sum(u)
    assert oracle_directions(field, u.points) == oracle_directions(field, t.points)


# ----------------------------------------------------------------------
# power sums, Newton recurrence, expanded product
# ----------------------------------------------------------------------

def test_power_sums_against_oracle():
    field = make_field(7)
    u = random_affine_set(field, 6, seed=1)
    direction = (2, 5, 1)
    values = linear_values(u, direction)
    sums = power_sums(u, direction)
    assert len(sums) == field.q
    for j, s in enumerate(sums):
        assert s == oracle_power_sum(field, values, j)
    assert sums[0] == len(u) % field.p


def test_power_sums_spec_cases():
    field = make_field(5)
    u = affine_set(field, [(1, 0, 0), (4, 0, 0)])  # {(1,0,0), (-1,0,0)}
    sums = power_sums(u, (1, 0, 0))
    assert sums[1] == 0
    assert sums[2] == 2
    with pytest.raises(RedeiError):
        power_sums(u, (0, 0, 0))


def test_redei_coefficients_against_oracle():
    field = make_field(7)
    u = random_affine_set(field, 5, seed=9)
    direction = (1, 3, 6)
    values = linear_values(u, direction)
    sigmas = redei_coefficients(u, direction)
    assert sigmas[0] == 1
    for k in range(len(values) + 1):
        assert sigmas[k] == oracle_elementary_symmetric(field, values, k)


def test_newton_matches_oracle_and_errors():
    field = make_field(7)
    u = random_affine_set(field, 8, seed=4)
    direction = (3, 1, 0)
    values = linear_values(u, direction)
    sums = power_sums(u, direction)
    sigmas = newton_sigmas(field, sums, field.q - 1)
    for k in range(field.q):
        assert sigmas[k] == oracle_elementary_symmetric(field, values, k)
    with pytest.raises(RedeiError):
        newton_sigmas(field, sums, field.q)  # p | k = 7
    with pytest.raises(RedeiError):
        newton_sigmas(field, sums[:3], 5)  # not enough power sums


# ----------------------------------------------------------------------
# the sigma_2 quadratic form
# ----------------------------------------------------------------------

def test_sigma2_form_matches_expansion():
    field = make_field(5)
    u = translate_to_zero_sum(random_affine_set(field, 9, seed=12))
    form = sigma2_form(u)
    for direction in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3), (4, 4, 1), (0, 1, 4)]:
        assert form.evaluate(direction) == redei_coefficients(u, direction)[2]


def test_sigma2_rank_one_square_factor():
    field = make_field(5)
    # L values along (y,z,w) are {y, -y}: sigma_2 = -y^2 = 4y^2 = (2y)^2
    u = affine_set(field, [(1, 0, 0), (4, 0, 0)])
    form = sigma2_form(u)
    assert form.rank == 1 and form.reducible
    factor = form.square_linear_factor()
    assert factor == (2, 0, 0)
    for direction in [(1, 0, 0), (2, 1, 0), (3, 0, 4)]:
        lin = 0
        for f, d in zip(factor, direction):
            lin = field.add(lin, field.mul(f, d))
        assert form.evaluate(direction) == field.mul(lin, lin)


def test_sigma2_nonsquare_multiple_rejected():
    field = make_field(7)
    # sigma_2 = -y^2 = 6y^2 and 6 is a non-square mod 7
    u = affine_set(field, [(1, 0, 0), (6, 0, 0)])
    form = sigma2_form(u)
    assert form.rank == 1
    with pytest.raises(RedeiError):
        form.square_linear_factor()


def test_sigma2_zero_form():
    field = make_field(5)
    u = affine_set(field, [(0, 0, 0), (0, 0, 0)])
    form = sigma2_form(u)
    assert form.rank == 0 and form.reducible
    assert form.square_linear_factor() == (0, 0, 0)


def test_plane_drop_sets_have_rank_one_sigma2():
    model = build_t2_model(make_field(5))
    u = translate_to_zero_sum(plane_drop_set(model, drop=(0, 1)))
    form = sigma2_form(u)
    assert form.rank == 1
    factor = form.square_linear_factor()
    # the construction from the reducible case: adjoining the factor point
    # and its negative kills sigma_2 entirely and the bigger set still
    # determines no conic point
    star = affine_set(
        model.field,
        list(u.points)
        + [factor, tuple(model.field.neg(v) for v in factor)],
    )
    assert all(v == 0 for row in sigma2_form(star).matrix for v in row)
    determined = oracle_directions(model.field, star.points)
    assert not determined & set(model.conic.points)


# ----------------------------------------------------------------------
# chi evaluations and plane counts
# ----------------------------------------------------------------------

def test_chi_closed_frozen_cases():
    field = make_field(5)
    minus_two, minus_one = 3, 4
    # sigma2 = 0: chi = -2 x^(q-1)
    assert chi_closed(field, 0, 0) == 0
    assert chi_closed(field, 2, 0) == minus_two
    # sigma2 = x^2 != 0: chi = -1
    assert chi_closed(field, 2, 4) == minus_one
    # sigma2 square, x^2 != sigma2: chi = -2
    assert chi_closed(field, 1, 4) == minus_two
    # sigma2 non-square: -2 (x^2 + nu) / (x^2 - nu)
    for nu in (2, 3):
        for x in range(5):
            x2 = field.mul(x, x)
            want = field.mul(
                field.neg(2), field.div(field.add(x2, nu), field.sub(x2, nu))
            )
            assert chi_closed(field, x, nu) == want


def test_chi_direct_matches_count_for_any_set():
    # chi == |U| - |U ∩ plane| mod p is an arithmetic identity in the
    # direct sum, valid with no hypotheses on the set
    field = make_field(7)
    u = random_affine_set(field, 11, seed=6)
    for direction in [(1, 0, 0), (2, 3, 1), (0, 0, 1)]:
        for x in range(field.q):
            assert verify_plane_count(u, x, direction)
            on = plane_point_count(u, x, direction)
            assert chi_direct(u, x, direction) == field.sub(len(u) % field.p, on)


def test_chi_direction_validation():
    field = make_field(5)
    u = random_affine_set(field, 4, seed=0)
    with pytest.raises(RedeiError):
        chi_direct(u, 0, (0, 0, 0))
    with pytest.raises(RedeiError):
        chi_direct(u, 9, (1, 0, 0))


# ----------------------------------------------------------------------
# the factorization identity
# ----------------------------------------------------------------------

def test_factorization_on_found_example_q3():
    model, members = found_example(3)
    u = translate_to_zero_sum(
        affine_set(model.field, model.u_from_k(members))
    )
    buckets = model.conic.classify_directions()
    for direction in buckets["tangent"] + buckets["secant"]:
        rep = verify_redei_factorization(u, direction)
        assert rep.passed, (direction, rep.first_mismatch)
        assert rep.sigma2_value == sigma2_form(u).evaluate(direction)
    # scalar rescalings of a direction satisfy the identity too
    direction = buckets["secant"][0]
    doubled = tuple(model.field.mul(2, v) for v in direction)
    assert verify_redei_factorization(u, doubled).passed


def test_factorization_fails_on_external_directions():
    model, members = found_example(3)
    u = translate_to_zero_sum(
        affine_set(model.field, model.u_from_k(members))
    )
    for direction in model.conic.classify_directions()["external"]:
        rep = verify_redei_factorization(u, direction)
        assert not rep.product_exact
        assert not rep.divides
        assert rep.first_mismatch is not None


def test_factorization_preconditions():
    field = make_field(5)
    small = affine_set(field, [(1, 0, 0), (4, 0, 0)])
    with pytest.raises(RedeiError):
        verify_redei_factorization(small, (1, 0, 0))  # wrong size
    model, members = found_example(3)
    untouched = affine_set(model.field, model.u_from_k(members))
    if not untouched.translated:
        with pytest.raises(RedeiError):
            verify_redei_factorization(untouched, (1, 0, 0))
    good = translate_to_zero_sum(untouched)
    with pytest.raises(RedeiError):
        verify_redei_factorization(good, (0, 1, 0), sigma2_value=99)


# ----------------------------------------------------------------------
# residue sets
# ----------------------------------------------------------------------

def test_residue_sets_frozen():
    assert residue_set(make_field(5)) == {0, 2, 3}
    assert residue_set(make_field(7)) == {2, 3, 4, 6}
    assert residue_set(make_field(11)) == {0, 4, 5, 8, 9, 10}


def test_residue_set_rejects_extension_fields():
    with pytest.raises(RedeiError):
        residue_set(make_field(3, 2))


# ----------------------------------------------------------------------
# the full suite
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 5])
def test_suite_passes_on_found_examples(q):
    model, members = found_example(q)
    report = run_redei_suite(model, members)
    assert report.passed, report.failures
    assert report.set_size == q * q - 2
    assert report.sigma2_rank == 3
    assert set(report.checks) == {
        "sigma1_zero",
        "form_matches_product",
        "factorization",
        "newton_matches_product",
        "power_sum_pattern",
        "sigma_pattern",
        "dual_zero_set",
        "chi_two_paths",
        "plane_congruence",
        "chi_case_analysis",
        "chi_zero_locus_on_conic_lines",
        "sigma2_square_on_conic_lines",
        "tangent_plane_count",
        "sigma2_range_full",
    }
    json_blob = report.to_json()
    assert json_blob["passed"] is True


def test_suite_flags_extendable_set():
    # a plane minus two points is valid but not maximal: the polynomial
    # identities hold, the geometric consequences of maximality fail
    model = build_t2_model(make_field(5))
    u = plane_drop_set(model, drop=(0, 7))
    members = model.k_from_u(u.points)
    report = run_redei_suite(model, members)
    assert not report.passed
    assert report.sigma2_rank == 1
    assert report.checks["factorization"]
    assert report.checks["chi_two_paths"]
    assert report.checks["power_sum_pattern"]
    assert report.checks["plane_congruence"]
    assert not report.checks["dual_zero_set"]
    assert not report.checks["sigma2_range_full"]
    assert not report.checks["tangent_plane_count"]


# ----------------------------------------------------------------------
# the array suite against the scalar oracle
# ----------------------------------------------------------------------

def random_zero_sum_set(field, seed):
    """q^2 - 2 random affine points translated to zero sums: a set of the
    identity's size that fails most of its checks."""
    q = field.q
    return translate_to_zero_sum(random_affine_set(field, q * q - 2, seed))


def report_bytes(report):
    return json.dumps(report.to_json())


@pytest.mark.parametrize("q", [3, 5, 7])
def test_suite_matches_oracle_on_found_examples(q):
    model, members = found_example(q)
    u = translate_to_zero_sum(affine_set(model.field, model.u_from_k(members)))
    report = run_redei_suite(model, members)
    assert report.passed
    assert report_bytes(report) == report_bytes(oracle_suite(u, model.conic))


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_suite_core_matches_oracle_on_failing_sets(q, seed):
    model = build_t2_model(make_field(q))
    u = random_zero_sum_set(model.field, seed)
    report = redei_suite_core(u, model.conic)
    assert not report.passed
    assert report_bytes(report) == report_bytes(oracle_suite(u, model.conic))


def test_suite_matches_oracle_on_extendable_set():
    model = build_t2_model(make_field(5))
    u = translate_to_zero_sum(plane_drop_set(model, drop=(0, 7)))
    report = redei_suite_core(u, model.conic)
    assert report_bytes(report) == report_bytes(oracle_suite(u, model.conic))


def test_suite_core_preconditions():
    model = build_t2_model(make_field(3))
    with pytest.raises(RedeiError, match="q\\^2 - 2"):
        redei_suite_core(random_affine_set(model.field, 5, 0), model.conic)
    untranslated = random_affine_set(model.field, 7, 3)
    assert not untranslated.translated
    with pytest.raises(RedeiError, match="zero-sum"):
        redei_suite_core(untranslated, model.conic)


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2)])
def test_kernels_match_scalar_functions(p, h):
    field = make_field(p, h)
    q = field.q
    model = build_t2_model(field)
    u = random_zero_sum_set(field, 11)
    directions = model.conic.plane.points
    values = linear_values_all(u, directions)
    sigmas = redei_coefficients_all(field, values)
    power = power_sums_all(field, values, q - 1)
    chi = chi_direct_all(field, values)
    closed = chi_closed_all(field, sigmas[:, 2])
    for d, direction in enumerate(directions):
        assert values[d].tolist() == linear_values(u, direction)
        assert sigmas[d].tolist() == redei_coefficients(u, direction)
        assert power[d].tolist() == power_sums(u, direction)
        assert chi[d].tolist() == [chi_direct(u, x, direction) for x in range(q)]
        assert closed[d].tolist() == [
            chi_closed(field, x, int(sigmas[d, 2])) for x in range(q)
        ]
    if h == 1:
        newton = newton_sigmas_all(field, power, q - 1)
        for d, direction in enumerate(directions):
            assert newton[d].tolist() == newton_sigmas(field, power_sums(u, direction), q - 1)
    else:
        with pytest.raises(RedeiError, match="sigma_3"):
            newton_sigmas_all(field, power, q - 1)


@pytest.mark.parametrize("q", [3, 5])
def test_factorization_mismatches_match_scalar_check(q):
    model, members = found_example(q)
    found = translate_to_zero_sum(affine_set(model.field, model.u_from_k(members)))
    directions = model.conic.plane.points
    for u in (found, random_zero_sum_set(model.field, 5)):
        sigmas = redei_coefficients_all(model.field, linear_values_all(u, directions))
        batched = factorization_mismatches(model.field, sigmas)
        for direction, first in zip(directions, batched):
            rep = verify_redei_factorization(u, direction)
            assert first == (None if rep.passed else rep.first_mismatch)


# ----------------------------------------------------------------------
# an outside oracle: sympy polynomial arithmetic over GF(p)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7])
def test_identity_against_sympy(q):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    model, members = found_example(q)
    u = translate_to_zero_sum(affine_set(model.field, model.u_from_k(members)))
    buckets = model.conic.classify_directions()
    meeting = buckets["tangent"] + buckets["secant"]
    chosen = random.Random(q).sample(meeting, 4)
    sigmas = redei_coefficients_all(model.field, linear_values_all(u, chosen))
    target = sympy.Poly(X ** (q * q) - X**q, X, modulus=q)
    for row, (y, z, w) in enumerate(chosen):
        product = sympy.Poly(1, X, modulus=q)
        for a, b, c in u.points:
            product *= sympy.Poly(X + (a * y + b * z + c * w), X, modulus=q)
        n = len(u)
        sigma2 = int(product.coeff_monomial(X ** (n - 2))) % q
        assert sigma2 == int(sigmas[row, 2])
        assert product * sympy.Poly(X**2 - sigma2, X, modulus=q) == target
