"""Exact arithmetic in GF(p^h) for odd primes p.

Elements are plain integers in ``[0, q)`` encoding coordinates in the
polynomial basis: the element with basis coordinates ``(a0, ..., a_{h-1})``
is stored as ``a0 + a1*p + ... + a_{h-1}*p**(h-1)``.  The scalars of the
prime subfield therefore encode as themselves, so ``0`` and ``1`` are the
additive and multiplicative identities in every field.

Every field is table driven: the constructor builds addition,
multiplication, inverse and square-root tables, as Python lists for the
scalar operations and as numpy arrays so bulk incidence kernels can run
as vectorized gathers.  Pairings of many vectors against many vectors
(``Field.vanishing_pairs``) run as small float32 matrix products over
GF(p) instead, from the coefficient tables read off the same
multiplication table.  Fields above ``TABLE_LIMIT`` elements are refused.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

TABLE_LIMIT = 256

# elements per temporary array in Field.vanishing_pairs
_PAIRING_BLOCK = 1 << 16
# float32 represents every integer below this exactly
_FLOAT32_EXACT = 1 << 24


class FieldError(ValueError):
    """Raised for invalid field parameters or illegal arithmetic."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ----------------------------------------------------------------------
# Dense polynomials over GF(p): coefficient tuples, low degree first.
# ----------------------------------------------------------------------

def _poly_trim(poly: Sequence[int]) -> tuple[int, ...]:
    n = len(poly)
    while n and poly[n - 1] == 0:
        n -= 1
    return tuple(poly[:n])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(
    a: Sequence[int], b: Sequence[int], p: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(_poly_trim(a))
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = (rem[-1] * lead_inv) % p
        quo[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        rem = list(_poly_trim(rem))
    return _poly_trim(quo), _poly_trim(rem)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial factorization by every monic divisor of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            _, rem = _poly_divmod(poly, g, p)
            if not rem:
                return False
    return True


def smallest_irreducible(p: int, h: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree h over GF(p).

    Coefficient tuples are compared low degree first.  For h = 1 the
    reduction polynomial is the placeholder x, which makes the generic
    reduction path coincide with arithmetic mod p.
    """
    if h == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=h):
        f = tuple(tail) + (1,)
        if _is_irreducible(f, p):
            return f
    raise FieldError(f"no irreducible of degree {h} over GF({p})")  # pragma: no cover


class Field:
    """The finite field GF(p^h), p an odd prime, with int-encoded elements.

    All tables come from one representation, the base-p digit vectors of
    the element codes: addition is digitwise mod p, multiplication is
    polynomial multiplication reduced by ``irreducible``, and the F_p-linear
    tables behind ``vanishing_pairs`` are read off the multiplication table.
    """

    def __init__(self, p: int, h: int, irreducible: Optional[Sequence[int]] = None):
        if h < 1:
            raise FieldError(f"extension degree must be positive, got {h}")
        # first, and without computing p^h for an absurd h, so an oversized
        # request costs nothing (testing a huge p for primality would)
        if h > TABLE_LIMIT.bit_length() or p**h > TABLE_LIMIT:
            raise FieldError(f"GF({p}^{h}) exceeds the table limit q <= {TABLE_LIMIT}")
        if not _is_prime(p):
            raise FieldError(f"p must be prime, got {p}")
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        self.p = p
        self.h = h
        self.q = p**h
        if irreducible is None:
            irreducible = smallest_irreducible(p, h)
        else:
            irreducible = tuple(int(c) % p for c in irreducible)
            if len(irreducible) != h + 1 or irreducible[-1] != 1:
                raise FieldError("reduction polynomial must be monic of degree h")
            if h > 1 and not _is_irreducible(irreducible, p):
                raise FieldError(f"{irreducible} is reducible over GF({p})")
        self.irreducible = irreducible
        self._build_tables()

    # -- encoding ------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial-basis coordinates of an element, low degree first."""
        self._check(a)
        out = []
        for _ in range(self.h):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, cs: Sequence[int]) -> int:
        """Element with the given basis coordinates (entries reduced mod p)."""
        val = 0
        for c in reversed(tuple(cs)):
            val = val * self.p + (c % self.p)
        if val >= self.q:
            raise FieldError(f"too many coordinates for GF({self.q})")
        return val

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def _check(self, a: int) -> None:
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise FieldError(f"{a!r} is not an element of GF({self.q})")

    # -- table construction --------------------------------------------

    def _build_tables(self) -> None:
        """Addition, negation, multiplication, inverse and square-root
        tables, plus two F_p-linear tables read off the same digits and
        multiplication table: ``_digits_np[a]``, the base-p coefficient
        vector of a, and ``_mulmat_np[a, j, i]``, coefficient i of a * x^j,
        the matrix of multiplication by a over GF(p)."""
        p, h, q = self.p, self.h, self.q
        digits = np.zeros((q, h), dtype=np.int64)
        vals = np.arange(q)
        for k in range(h):
            digits[:, k] = vals % p
            vals = vals // p
        weights = p ** np.arange(h)

        summed = (digits[:, None, :] + digits[None, :, :]) % p
        add = (summed * weights).sum(axis=2)
        neg = (((-digits) % p) * weights).sum(axis=1)

        mul = np.zeros((q, q), dtype=np.int64)
        polys = [_poly_trim(tuple(int(c) for c in digits[a])) for a in range(q)]
        for a in range(q):
            for b in range(a, q):
                prod = _poly_mul(polys[a], polys[b], p)
                _, rem = _poly_divmod(prod, self.irreducible, p)
                val = 0
                for c in reversed(rem):
                    val = val * p + c
                mul[a, b] = val
                mul[b, a] = val

        inv = np.full(q, -1, dtype=np.int64)
        for a in range(1, q):
            inv[a] = int(np.nonzero(mul[a] == 1)[0][0])

        sqrt = np.full(q, -1, dtype=np.int64)
        for a in range(q):
            s = int(mul[a, a])
            if sqrt[s] < 0 or a < sqrt[s]:
                sqrt[s] = a

        self._digits_np = digits.astype(np.float32)
        # x^j encodes as p^j, so row j of a's matrix is the digits of a * x^j
        self._mulmat_np = self._digits_np[mul[:, p ** np.arange(h)]]
        self._add_np = add.astype(np.int16)
        self._mul_np = mul.astype(np.int16)
        self._neg_np = neg.astype(np.int16)
        # inverse with 0 -> 0 (the x^(q-2) convention), so gathers never fail
        self._inv_np = np.maximum(inv, 0).astype(np.int16)
        self._square_np = sqrt >= 0
        self._add_py = [[int(x) for x in row] for row in add]
        self._mul_py = [[int(x) for x in row] for row in mul]
        self._neg_py = [int(x) for x in neg]
        self._inv_py = [int(x) for x in inv]
        self._sqrt_py = [int(x) for x in sqrt]
        self._square_py = [sqrt[a] >= 0 for a in range(q)]

    # -- scalar arithmetic ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._add_py[a][b]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._neg_py[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul_py[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("0 has no multiplicative inverse")
        return self._inv_py[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a**e with the polynomial-evaluation convention pow(0, 0) == 1."""
        self._check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_square(self, a: int) -> bool:
        self._check(a)
        return self._square_py[a]

    def sqrt(self, a: int) -> Optional[int]:
        """Smallest square root of a, or None when a is a non-square."""
        self._check(a)
        r = self._sqrt_py[a]
        return None if r < 0 else r

    # -- vectorized arithmetic -------------------------------------------

    def add_arr(self, a, b):
        return self._add_np[a, b]

    def mul_arr(self, a, b):
        return self._mul_np[a, b]

    def sum_arr(self, arr: np.ndarray) -> np.ndarray:
        """Field sum along the last axis, by pairwise table additions."""
        add = self._add_np
        arr = np.asarray(arr, dtype=np.int16)
        if arr.shape[-1] == 0:
            return np.zeros(arr.shape[:-1], dtype=np.int16)
        while arr.shape[-1] > 1:
            half = arr.shape[-1] // 2
            paired = add[arr[..., :half], arr[..., half : 2 * half]]
            arr = np.concatenate([paired, arr[..., 2 * half :]], axis=-1)
        return arr[..., 0]

    def dot_arr(self, mat: np.ndarray, vec: Sequence[int]) -> np.ndarray:
        """Row-wise dot products of an element matrix with a fixed vector."""
        acc = np.zeros(mat.shape[0], dtype=np.int16)
        for j, c in enumerate(vec):
            if c:
                acc = self._add_np[acc, self._mul_np[mat[:, j], c]]
        return acc

    def vanishing_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """(n, m) boolean array: sum_c left[i, c] * right[j, c] == 0 in GF(q).

        The pairing is F_p-bilinear in the base-p coefficient vectors, so
        each element of ``left`` expands to its h x h multiplication matrix
        and each element of ``right`` to its h digits: the (n*h, k*h) by
        (k*h, m) integer product holds the digits of every pairing before
        reduction mod p.  Its entries stay below k*h*(p-1)^2, so float32
        BLAS computes them exactly.  Row blocks keep every temporary near
        ``_PAIRING_BLOCK`` elements.
        """
        left = np.asarray(left)
        right = np.asarray(right)
        n, k = left.shape
        m = right.shape[0]
        if right.shape != (m, k):
            raise FieldError(f"cannot pair {k}-vectors with shape {right.shape}")
        p, h = self.p, self.h
        bound = k * h * (p - 1) ** 2
        if bound >= _FLOAT32_EXACT:
            raise FieldError(f"{k}-term pairings over GF({self.q}) overflow float32")
        divisible = np.arange(bound + 1) % p == 0
        rhs = self._digits_np[right].reshape(m, k * h).T
        out = np.empty((n, m), dtype=bool)
        rows = max(1, _PAIRING_BLOCK // max(1, h * m))
        for lo in range(0, n, rows):
            blk = left[lo : lo + rows]
            # (b, k, j, i) -> (b, i, k, j): row (r, i) yields digit i of row r
            lhs = self._mulmat_np[blk].transpose(0, 3, 1, 2)
            sums = lhs.reshape(len(blk) * h, k * h) @ rhs
            zero = divisible[sums.astype(np.intp)]
            out[lo : lo + rows] = zero.reshape(len(blk), h, m).all(axis=1)
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "h": self.h, "irreducible": list(self.irreducible)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.h, self.irreducible)
            == (other.p, other.h, other.irreducible)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.h, self.irreducible))

    def __repr__(self) -> str:
        return f"Field(p={self.p}, h={self.h})"


def make_field(p: int, h: int = 1) -> Field:
    """Construct GF(p^h) with the canonical reduction polynomial."""
    return Field(p, h)


def field_from_json(obj: dict) -> Field:
    return Field(int(obj["p"]), int(obj["h"]), obj.get("irreducible"))


# ----------------------------------------------------------------------
# Small dense linear algebra over a Field (row lists of int elements).
# ----------------------------------------------------------------------

def _element_matrix(field: Field, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Rows of field elements as an int16 array; ragged rows and entries
    outside 0..q-1 raise FieldError."""
    mat = [list(r) for r in rows]
    width = len(mat[0]) if mat else 0
    for i, row in enumerate(mat):
        if len(row) != width:
            raise FieldError(f"row {i} has {len(row)} entries, row 0 has {width}")
    if not mat or not width:
        return np.zeros((len(mat), width), dtype=np.int16)
    arr = np.asarray(mat)
    if arr.dtype.kind not in "iu":
        raise FieldError(f"matrix entries must be integers, got {arr.dtype}")
    bad = np.argwhere((arr < 0) | (arr >= field.q))
    if len(bad):
        i, j = bad[0]
        raise FieldError(f"entry {arr[i, j]} at ({i}, {j}) is not an element of GF({field.q})")
    return arr.astype(np.int16)


def mat_rref(field: Field, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Each pivot column is cleared by whole-row table gathers: the pivot row
    is scaled by the inverse of its pivot, and every row i becomes
    row_i - row_i[c] * pivot_row in one gather for all rows.
    """
    mat = _element_matrix(field, rows)
    nrows, ncols = mat.shape
    add, mul, neg, inv = field._add_np, field._mul_np, field._neg_np, field._inv_np
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = np.flatnonzero(mat[r:, c])
        if not len(below):
            continue
        pivot = r + int(below[0])
        mat[[r, pivot]] = mat[[pivot, r]]
        mat[r] = mul[inv[mat[r, c]], mat[r]]
        factors = neg[mat[:, c]]
        factors[r] = 0
        mat = add[mat, mul[factors[:, None], mat[r]]]
        pivots.append(c)
        r += 1
    return mat.tolist(), pivots


def mat_rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    _, pivots = mat_rref(field, rows)
    return len(pivots)


def mat_nullspace(field: Field, rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the right null space, one vector per free column."""
    rref, pivots = mat_rref(field, rows)
    if not rref:
        return []
    ncols = len(rref[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(rref[r][f])
        basis.append(tuple(vec))
    return basis
