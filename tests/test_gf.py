"""Field arithmetic tests.

Expected values for the derived cases were computed with the independent
oracles kept in this file (plain mod-p polynomial arithmetic) and frozen
into the assertions.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ovoid.gf import (
    Field,
    FieldError,
    field_from_json,
    make_field,
    mat_nullspace,
    mat_rank,
    mat_rref,
    smallest_irreducible,
)

AXIOM_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (3, 4), (5, 2), (7, 2), (11, 2), (13, 1)]


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------

def oracle_poly_mul_mod(a, b, modulus, p):
    """Schoolbook product of coefficient tuples, reduced mod (modulus, p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # long division by the monic modulus
    deg_m = len(modulus) - 1
    for top in range(len(prod) - 1, deg_m - 1, -1):
        c = prod[top]
        if c:
            for k in range(deg_m + 1):
                prod[top - deg_m + k] = (prod[top - deg_m + k] - c * modulus[k]) % p
    return tuple(prod[:deg_m])


def oracle_has_root(poly, p):
    return any(sum(c * x**i for i, c in enumerate(poly)) % p == 0 for x in range(p))


def oracle_incidence(f, hyper, coords):
    """(rows x columns) boolean array of vanishing pairings, summed through
    the addition and multiplication tables one coordinate at a time."""
    add, mul = f._add_np, f._mul_np
    vals = np.zeros((hyper.shape[0], coords.shape[0]), dtype=np.int16)
    for c in range(hyper.shape[1]):
        # a row gather then a column gather: no broadcast index arrays
        vals = add[vals, mul[hyper[:, c]][:, coords[:, c]]]
    return vals == 0


def oracle_mat_rref(field, rows):
    """Scalar reduced row echelon form, one field operation at a time."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        scale = field.inv(mat[r][c])
        mat[r] = [field.mul(scale, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def oracle_mat_nullspace(field, rows):
    """Null space basis read off the scalar echelon form."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = oracle_mat_rref(field, rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(rref[r][free])
        basis.append(tuple(vec))
    return basis


@functools.lru_cache(maxsize=None)
def cached_field(p, h):
    return make_field(p, h)


def test_gf9_irreducible_is_lex_smallest():
    # oracle: walk monic quadratics over GF(3) in low-degree-first lex order,
    # a quadratic is irreducible iff it has no root
    found = None
    for c0, c1 in itertools.product(range(3), repeat=2):
        if not oracle_has_root((c0, c1, 1), 3):
            found = (c0, c1, 1)
            break
    assert found == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert make_field(3, 2).irreducible == (1, 0, 1)


def test_gf9_multiplication_matches_polynomial_oracle():
    f = make_field(3, 2)
    mod = f.irreducible
    for a in f.elements():
        for b in f.elements():
            expect = oracle_poly_mul_mod(f.coeffs(a), f.coeffs(b), mod, 3)
            assert f.coeffs(f.mul(a, b)) == expect
    # frozen spot check: x * x = -1 = 2, with x encoded as 3
    assert f.mul(3, 3) == 2


def test_gf7_inverse_and_squares():
    f = make_field(7)
    assert f.inv(3) == 5
    squares = {f.mul(x, x) for x in f.elements()}
    assert squares == {0, 1, 2, 4}
    assert {a for a in f.elements() if f.is_square(a)} == {0, 1, 2, 4}


def test_gf5_nonsquares():
    f = make_field(5)
    assert {a for a in f.elements() if not f.is_square(a)} == {2, 3}


def test_construction_errors():
    with pytest.raises(FieldError):
        make_field(9, 1)  # 9 is not prime
    with pytest.raises(FieldError):
        make_field(2, 1)  # even characteristic unsupported
    with pytest.raises(FieldError):
        make_field(4, 2)
    with pytest.raises(FieldError):
        Field(3, 2, irreducible=(0, 0, 1))  # x^2 is reducible
    with pytest.raises(FieldError):
        Field(3, 2, irreducible=(1, 0, 2))  # not monic


def test_arithmetic_errors():
    f = make_field(5)
    with pytest.raises(FieldError):
        f.inv(0)
    with pytest.raises(FieldError):
        f.add(1, 7)  # out of range for this field
    with pytest.raises(FieldError):
        f.mul(-1, 2)


@pytest.mark.parametrize("p,h", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, h):
    f = make_field(p, h)
    q = f.q
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, q - 1) == 1
        # Frobenius fixes exactly the prime subfield elementwise iff h == 1,
        # but x -> x^q is the identity on all of GF(q)
        assert f.pow(a, q) == a
    # commutativity and associativity on the full cube is overkill beyond
    # small q; check commutativity everywhere, associativity on a lattice
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    step = max(1, q // 11)
    sample = els[::step]
    for a in sample:
        for b in sample:
            for c in sample:
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,h", AXIOM_FIELDS)
def test_square_counts_and_nonsquare_root_identity(p, h):
    f = make_field(p, h)
    q = f.q
    squares = {a for a in f.elements() if f.is_square(a)}
    assert len(squares) == (q - 1) // 2 + 1
    for v in f.elements():
        if not f.is_square(v):
            assert f.sqrt(v) is None
            # v^((q+1)/2) = -v for every non-square v
            assert f.pow(v, (q + 1) // 2) == f.neg(v)
        else:
            r = f.sqrt(v)
            assert r is not None and f.mul(r, r) == v


def test_pow_conventions():
    f = make_field(5)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 4) == 0
    assert f.pow(2, -1) == f.inv(2)
    assert f.pow(3, 10) == f.mul(f.pow(3, 5), f.pow(3, 5))


def test_json_round_trip():
    f = make_field(3, 2)
    blob = f.to_json()
    assert blob == {"p": 3, "h": 2, "irreducible": [1, 0, 1]}
    g = field_from_json(blob)
    assert g == f
    assert g.mul(3, 3) == 2


def test_vector_kernels_match_scalar_ops():
    import numpy as np

    f = make_field(7)
    a = np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.int16)
    b = np.array([6, 5, 4, 3, 2, 1, 0], dtype=np.int16)
    assert [int(x) for x in f.add_arr(a, b)] == [f.add(int(x), int(y)) for x, y in zip(a, b)]
    assert [int(x) for x in f.mul_arr(a, b)] == [f.mul(int(x), int(y)) for x, y in zip(a, b)]
    mat = np.array([[1, 2, 3], [4, 5, 6], [0, 0, 0], [6, 6, 6]], dtype=np.int16)
    vec = (2, 0, 5)
    got = [int(x) for x in f.dot_arr(mat, vec)]
    expect = []
    for row in mat:
        acc = 0
        for x, c in zip(row, vec):
            acc = f.add(acc, f.mul(int(x), c))
        expect.append(acc)
    assert got == expect


def test_field_above_table_limit_is_refused():
    with pytest.raises(FieldError, match="table limit"):
        make_field(3, 6)  # q = 729 > TABLE_LIMIT
    with pytest.raises(FieldError, match="table limit"):
        make_field(3, 10**9)  # refused without computing 3^(10^9)


def test_matrix_rank_and_nullspace():
    f = make_field(5)
    rows = [[1, 2, 3], [0, 1, 4], [0, 0, 0]]
    assert mat_rank(f, rows) == 2
    ns = mat_nullspace(f, rows)
    assert len(ns) == 1
    vec = ns[0]
    for row in rows:
        acc = 0
        for c, v in zip(row, vec):
            acc = f.add(acc, f.mul(c, v))
        assert acc == 0
    # full-rank system has trivial null space
    assert mat_nullspace(f, [[1, 0], [0, 1]]) == []


# ----------------------------------------------------------------------
# the pairing kernel and array row reduction against the scalar oracles
# ----------------------------------------------------------------------

KERNEL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]


@st.composite
def element_matrix(draw, q, rows, cols):
    return np.array(
        draw(st.lists(st.integers(0, q - 1), min_size=rows * cols, max_size=rows * cols)),
        dtype=np.int16,
    ).reshape(rows, cols)


@given(st.data())
def test_vanishing_pairs_match_oracle_incidence(data):
    p, h = data.draw(st.sampled_from(KERNEL_FIELDS))
    f = cached_field(p, h)
    k = data.draw(st.integers(1, 10))
    left = data.draw(element_matrix(f.q, data.draw(st.integers(0, 12)), k))
    right = data.draw(element_matrix(f.q, data.draw(st.integers(0, 12)), k))
    got = f.vanishing_pairs(left, right)
    assert got.dtype == bool
    assert np.array_equal(got, oracle_incidence(f, left, right))


@pytest.mark.parametrize("p,h", KERNEL_FIELDS + [(5, 3)])
@pytest.mark.parametrize("k", [1, 5, 10])
def test_vanishing_pairs_match_oracle_across_row_blocks(p, h, k):
    # enough rows and columns that the kernel splits the rows into blocks
    f = cached_field(p, h)
    rng = np.random.default_rng(p * 100 + h * 10 + k)
    left = rng.integers(0, f.q, (700, k)).astype(np.int16)
    right = rng.integers(0, f.q, (300, k)).astype(np.int16)
    left[0] = 0
    if k > 1:
        # (1, -1, 0, ...) pairs to zero with every constant row
        left[1] = 0
        left[1, :2] = (1, f.neg(1))
        right[:50] = right[:50, :1]
    got = f.vanishing_pairs(left, right)
    assert np.array_equal(got, oracle_incidence(f, left, right))
    assert got[0].all() and (k == 1 or got[1, :50].all())


def test_vanishing_pairs_shapes_and_bounds():
    f = cached_field(13, 1)
    assert f.vanishing_pairs(np.zeros((0, 5), np.int16), np.ones((4, 5), np.int16)).shape == (0, 4)
    assert f.vanishing_pairs(np.ones((3, 5), np.int16), np.zeros((0, 5), np.int16)).shape == (3, 0)
    with pytest.raises(FieldError, match="cannot pair"):
        f.vanishing_pairs(np.zeros((2, 5), np.int16), np.zeros((2, 4), np.int16))
    # k * (p - 1)^2 reaches 2^24: the float32 sums could round
    k = (1 << 24) // 144 + 1
    with pytest.raises(FieldError, match="overflow"):
        f.vanishing_pairs(np.zeros((1, k), np.int16), np.zeros((1, k), np.int16))


@st.composite
def rref_case(draw):
    """A random matrix over a kernel field, possibly with zero rows, zero
    columns and duplicated rows."""
    p, h = draw(st.sampled_from(KERNEL_FIELDS))
    f = cached_field(p, h)
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entries = st.one_of(st.just(0), st.integers(0, f.q - 1))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = 0
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, nrows - 1))]))
    if rows and draw(st.booleans()):
        # a combination of two rows, so the rank drops
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, f.q - 1))
        rows.append([f.add(x, f.mul(c, y)) for x, y in zip(rows[a], rows[b])])
    return f, rows


@given(rref_case())
def test_row_reduction_matches_scalar_oracle(case):
    f, rows = case
    expect = oracle_mat_rref(f, rows)
    assert mat_rref(f, rows) == expect
    assert mat_rank(f, rows) == len(expect[1])
    basis = mat_nullspace(f, rows)
    assert basis == oracle_mat_nullspace(f, rows)
    for vec in basis:
        for row in rows:
            acc = 0
            for c, v in zip(row, vec):
                acc = f.add(acc, f.mul(c, v))
            assert acc == 0


def test_row_reduction_returns_lists():
    f = make_field(5)
    rows, pivots = mat_rref(f, [[0, 2, 4], [0, 1, 2], [1, 0, 0]])
    assert (rows, pivots) == ([[1, 0, 0], [0, 1, 2], [0, 0, 0]], [0, 1])
    assert all(type(x) is int for row in rows for x in row)
    assert mat_rref(f, []) == ([], [])
    assert mat_rref(f, [[], []]) == ([[], []], [])


@pytest.mark.parametrize(
    "rows",
    [
        [[1], [3, 4]],  # used to give rank 1 with pivots [0]
        [[1, 2], [2, 4, 1]],  # used to give rank 1
        [[1, 2], [3]],  # used to end in a bare IndexError
    ],
)
def test_ragged_rows_are_refused(rows):
    f = make_field(5)
    for fn in (mat_rref, mat_rank, mat_nullspace):
        with pytest.raises(FieldError, match="entries, row 0 has"):
            fn(f, rows)


@pytest.mark.parametrize("rows", [[[1, 5]], [[0, -1]], [[2], [-5]], [[1.5, 0]]])
def test_entries_outside_the_field_are_refused(rows):
    f = make_field(5)
    for fn in (mat_rref, mat_rank, mat_nullspace):
        with pytest.raises(FieldError):
            fn(f, rows)
