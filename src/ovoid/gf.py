"""Exact arithmetic in GF(p^h) for odd primes p.

Elements are plain integers in ``[0, q)`` encoding coordinates in the
polynomial basis: the element with basis coordinates ``(a0, ..., a_{h-1})``
is stored as ``a0 + a1*p + ... + a_{h-1}*p**(h-1)``.  The scalars of the
prime subfield therefore encode as themselves, so ``0`` and ``1`` are the
additive and multiplicative identities in every field.

Every field is table driven: the constructor builds addition,
multiplication, inverse and square-root tables, as Python lists for the
scalar operations and as numpy arrays so bulk incidence kernels can run
as vectorized gathers.  Fields above ``TABLE_LIMIT`` elements are refused.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

TABLE_LIMIT = 256


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
    """The finite field GF(p^h), p an odd prime, with int-encoded elements."""

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

def mat_rref(field: Field, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
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


def mat_rank(field: Field, rows: Sequence[Sequence[int]]) -> int:
    _, pivots = mat_rref(field, rows)
    return len(pivots)


def mat_nullspace(field: Field, rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the right null space, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = mat_rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(rref[r][f])
        basis.append(tuple(vec))
    return basis
