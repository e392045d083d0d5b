"""Symmetric-function machinery for affine point sets in AG(3,q).

For a set U of affine points (a_i, b_i, c_i) and a direction triple
(y, z, w), the linear values L_i = a_i*y + b_i*z + c_i*w drive everything
here: power sums S_j = sum(L_i^j), elementary symmetric functions sigma_k
(coefficients of the product prod(X + L_i)), the ternary quadratic form
sigma_2(Y,Z,W), and the plane-count polynomial chi = sum((X + L_i)^(q-1)).

The headline identity verified per direction: when U has q^2 - 2 points,
zero coordinate sums, and determines no point of the reference conic,
then for every direction whose infinite line meets the conic

    prod(X + L_i) * (X^2 - sigma_2(y,z,w)) == X^(q^2) - X^q

coefficient for coefficient, which pins down every sigma_k in terms of
sigma_2 and makes chi collapse to -2 * sum(X^(q-1-2k) sigma_2^k).

Conventions: 0^0 = 1 throughout (so S_0 counts all points and sigma_2^0
is 1 even on the zero set of sigma_2); polynomials are coefficient lists
indexed by degree, ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ovoid.gf import Field, mat_rank

Triple = tuple[int, int, int]


class RedeiError(ValueError):
    """Raised for invalid affine sets, directions, or identity requests."""


# ----------------------------------------------------------------------
# affine point sets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AffineSet:
    """A finite list of affine points with cached zero-sum status."""

    field: Field
    points: tuple[Triple, ...]
    translated: bool  # true iff all three coordinate sums vanish

    def __len__(self) -> int:
        return len(self.points)


def coordinate_sums(field: Field, points: Sequence[Triple]) -> Triple:
    sums = [0, 0, 0]
    for point in points:
        for c in range(3):
            sums[c] = field.add(sums[c], point[c])
    return tuple(sums)


def affine_set(field: Field, points: Iterable[Sequence[int]]) -> AffineSet:
    cleaned: list[Triple] = []
    for point in points:
        triple = tuple(int(v) for v in point)
        if len(triple) != 3:
            raise RedeiError(f"affine point {triple} is not a triple")
        for v in triple:
            if not 0 <= v < field.q:
                raise RedeiError(f"coordinate {v} is not an element of GF({field.q})")
        cleaned.append(triple)
    translated = coordinate_sums(field, cleaned) == (0, 0, 0)
    return AffineSet(field, tuple(cleaned), translated)


def translate_to_zero_sum(u: AffineSet) -> AffineSet:
    """Shift every coordinate by -(sum)/|U|, making all three sums zero.

    Shifting each point by a constant vector leaves every difference of
    two points unchanged, so the determined directions are preserved.
    """
    if u.translated:
        return u
    field = u.field
    n = len(u.points) % field.p
    if n == 0:
        raise RedeiError(
            f"set size {len(u.points)} is divisible by p={field.p}; "
            "no zero-sum translate exists"
        )
    sums = coordinate_sums(field, u.points)
    shift = tuple(field.neg(field.div(s, n)) for s in sums)
    moved = [
        (
            field.add(a, shift[0]),
            field.add(b, shift[1]),
            field.add(c, shift[2]),
        )
        for a, b, c in u.points
    ]
    out = AffineSet(field, tuple(moved), True)
    if coordinate_sums(field, out.points) != (0, 0, 0):
        raise RedeiError("translation failed to zero the coordinate sums")
    return out


def _check_direction(field: Field, direction: Sequence[int]) -> Triple:
    d = tuple(int(v) for v in direction)
    if len(d) != 3 or d == (0, 0, 0):
        raise RedeiError(f"direction {direction!r} must be a nonzero triple")
    for v in d:
        if not 0 <= v < field.q:
            raise RedeiError(f"direction entry {v} is not an element of GF({field.q})")
    return d


def linear_values(u: AffineSet, direction: Sequence[int]) -> list[int]:
    """L_i = a_i*y + b_i*z + c_i*w for every point of U."""
    y, z, w = _check_direction(u.field, direction)
    add, mul = u.field.add, u.field.mul
    return [
        add(add(mul(a, y), mul(b, z)), mul(c, w)) for a, b, c in u.points
    ]


# ----------------------------------------------------------------------
# power sums and Newton recurrence
# ----------------------------------------------------------------------

def power_sums(
    u: AffineSet, direction: Sequence[int], j_max: Optional[int] = None
) -> list[int]:
    """S_j = sum_i L_i^j for j = 0 .. j_max (default q-1); S_0 = |U| mod p."""
    field = u.field
    if j_max is None:
        j_max = field.q - 1
    if j_max < 0:
        raise RedeiError("j_max must be nonnegative")
    values = linear_values(u, direction)
    add, mul = field.add, field.mul
    sums = [0] * (j_max + 1)
    for v in values:
        acc = 1  # v^0, including 0^0 = 1
        sums[0] = add(sums[0], acc)
        for j in range(1, j_max + 1):
            acc = mul(acc, v)
            sums[j] = add(sums[j], acc)
    return sums


def newton_sigmas(field: Field, power: Sequence[int], k_max: int) -> list[int]:
    """sigma_0 .. sigma_k_max from power sums via the Newton recurrence

        k * sigma_k = sum_{j=1..k} (-1)^(j-1) * S_j * sigma_(k-j).

    The left-hand factor k is taken mod p, so indices divisible by p are
    not solvable this way and raise; read those off an expanded product
    instead (see redei_coefficients).
    """
    if k_max >= len(power):
        raise RedeiError(
            f"sigma_{k_max} needs S_j up to j={k_max}, only {len(power) - 1} available"
        )
    add, mul, sub = field.add, field.mul, field.sub
    sigmas = [1]
    for k in range(1, k_max + 1):
        if k % field.p == 0:
            raise RedeiError(
                f"sigma_{k} is not determined by the recurrence when p={field.p} divides k"
            )
        acc = 0
        for j in range(1, k + 1):
            term = mul(power[j], sigmas[k - j])
            acc = add(acc, term) if j % 2 == 1 else sub(acc, term)
        sigmas.append(mul(acc, field.inv(k % field.p)))
    return sigmas


# ----------------------------------------------------------------------
# sigma_2 as a ternary quadratic form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Sigma2Form:
    """sigma_2(Y,Z,W) as a symmetric 3x3 matrix M with value v.M.v^T."""

    field: Field
    matrix: tuple[tuple[int, int, int], ...]

    def evaluate(self, direction: Sequence[int]) -> int:
        y, z, w = _check_direction(self.field, direction)
        add, mul = self.field.add, self.field.mul
        vec = (y, z, w)
        total = 0
        for r in range(3):
            if vec[r] == 0:
                continue
            row = 0
            for c in range(3):
                row = add(row, mul(self.matrix[r][c], vec[c]))
            total = add(total, mul(vec[r], row))
        return total

    @property
    def rank(self) -> int:
        return mat_rank(self.field, [list(row) for row in self.matrix])

    @property
    def reducible(self) -> bool:
        """True iff the form is a scalar multiple of a squared linear form."""
        return self.rank <= 1

    def square_linear_factor(self) -> Triple:
        """Coefficients (A,B,C) with sigma_2 = (A*Y + B*Z + C*W)^2.

        Only a rank-one matrix whose nonzero diagonal entry is a square
        admits such a factor; anything else raises.
        """
        field = self.field
        if self.rank > 1:
            raise RedeiError("form has rank > 1, not a squared linear form")
        pivot = next(
            (r for r in range(3) if self.matrix[r][r] != 0),
            None,
        )
        if pivot is None:
            if any(v != 0 for row in self.matrix for v in row):
                # zero diagonal but nonzero matrix: value 2*m_rc*y_r*y_c,
                # a product of two distinct linear forms, never a square
                raise RedeiError("rank-one form with zero diagonal is not a square")
            return (0, 0, 0)
        d = self.matrix[pivot][pivot]
        if not field.is_square(d):
            raise RedeiError("form is a non-square multiple of a squared linear form")
        root = field.sqrt(d)
        inv_d = field.inv(d)
        factor = tuple(
            field.mul(root, field.mul(self.matrix[pivot][c], inv_d)) for c in range(3)
        )
        return factor


def sigma2_form(u: AffineSet) -> Sigma2Form:
    """The quadratic form sigma_2 = sum_{i<j} L_i * L_j, built coefficient-wise
    as (S_1_form^2 - S_2_form) / 2.

    S_1_form is the linear form with the coordinate sums as coefficients
    (identically zero on a translated set) and S_2_form has matrix entry
    (r, c) equal to sum_i point_i[r] * point_i[c].
    """
    field = u.field
    add, mul, sub = field.add, field.mul, field.sub
    s1 = coordinate_sums(field, u.points)
    m2 = [[0] * 3 for _ in range(3)]
    for point in u.points:
        for r in range(3):
            if point[r] == 0:
                continue
            for c in range(r, 3):
                m2[r][c] = add(m2[r][c], mul(point[r], point[c]))
    for r in range(3):
        for c in range(r):
            m2[r][c] = m2[c][r]
    half = field.inv(2 % field.p)
    matrix = tuple(
        tuple(
            mul(half, sub(mul(s1[r], s1[c]), m2[r][c]))
            for c in range(3)
        )
        for r in range(3)
    )
    return Sigma2Form(field, matrix)


# ----------------------------------------------------------------------
# the chi polynomial and plane counts
# ----------------------------------------------------------------------

def chi_direct(u: AffineSet, x: int, direction: Sequence[int]) -> int:
    """chi(x, y, z, w) = sum_i (x + L_i)^(q-1), evaluated term by term."""
    field = u.field
    if not 0 <= x < field.q:
        raise RedeiError(f"{x} is not an element of GF({field.q})")
    total = 0
    for v in linear_values(u, direction):
        total = field.add(total, field.pow(field.add(x, v), field.q - 1))
    return total


def chi_closed(field: Field, x: int, sigma2_value: int) -> int:
    """-2 * sum_{k=0..(q-1)/2} x^(q-1-2k) * sigma2^k, by Horner in x^2.

    This summation form of the closed expression needs no division and
    is valid on the locus x^2 = sigma2 as well.
    """
    if not 0 <= x < field.q or not 0 <= sigma2_value < field.q:
        raise RedeiError("arguments must be field elements")
    # Horner in x^2 over the coefficients 1, s, s^2, ..., s^((q-1)/2);
    # at x = 0 the surviving term is s^((q-1)/2) * x^0 with x^0 = 1.
    x2 = field.mul(x, x)
    acc = 0
    s_pow = 1
    for _ in range((field.q - 1) // 2 + 1):
        acc = field.add(field.mul(acc, x2), s_pow)
        s_pow = field.mul(s_pow, sigma2_value)
    return field.mul(field.neg(2 % field.p), acc)


def plane_point_count(u: AffineSet, x: int, direction: Sequence[int]) -> int:
    """|U ∩ plane| for the plane y*X0 + z*X1 + w*X2 + x*X3 = 0.

    An affine point (a, b, c, 1) lies on the plane iff x + L_i = 0.
    """
    field = u.field
    if not 0 <= x < field.q:
        raise RedeiError(f"{x} is not an element of GF({field.q})")
    neg_x = field.neg(x)
    return sum(1 for v in linear_values(u, direction) if v == neg_x)


def verify_plane_count(u: AffineSet, x: int, direction: Sequence[int]) -> bool:
    """chi(x,y,z,w) == |U| - |U ∩ plane| mod p (the plane-count congruence)."""
    d = _check_direction(u.field, direction)
    field = u.field
    expected = field.sub(len(u.points) % field.p, plane_point_count(u, x, d) % field.p)
    return chi_direct(u, x, d) == expected


# ----------------------------------------------------------------------
# the expanded product and its factorization identity
# ----------------------------------------------------------------------

def redei_coefficients(u: AffineSet, direction: Sequence[int]) -> list[int]:
    """All elementary symmetric functions sigma_0 .. sigma_n of the L_i,
    read off the expanded product prod(X + L_i).

    Entry k is sigma_k, i.e. the coefficient of X^(n-k).
    """
    field = u.field
    values = linear_values(u, direction)
    add, mul = field.add, field.mul
    # coeffs[d] = coefficient of X^d, ascending degree
    coeffs = [1]
    for v in values:
        coeffs.append(0)
        for d in range(len(coeffs) - 1, 0, -1):
            coeffs[d] = add(coeffs[d - 1], mul(v, coeffs[d]))
        coeffs[0] = mul(v, coeffs[0])
    n = len(values)
    return [coeffs[n - k] for k in range(n + 1)]


def _poly_mul_field(field: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    add, mul = field.add, field.mul
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            if bv:
                out[i + j] = add(out[i + j], mul(av, bv))
    return out


def _poly_divmod_field(
    field: Field, num: Sequence[int], den: Sequence[int]
) -> tuple[list[int], list[int]]:
    num = list(num)
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    inv_lead = field.inv(den[dd])
    quot = [0] * max(len(num) - dd, 1)
    for d in range(len(num) - 1, dd - 1, -1):
        if num[d] == 0:
            continue
        factor = field.mul(num[d], inv_lead)
        quot[d - dd] = factor
        for j in range(dd + 1):
            num[d - dd + j] = field.sub(num[d - dd + j], field.mul(factor, den[j]))
    return quot, num[:dd] if dd else []


@dataclass
class FactorizationReport:
    direction: Triple
    sigma2_value: int
    product_exact: bool  # prod(X+L_i) * (X^2 - sigma2) == X^(q^2) - X^q
    divides: bool  # prod(X+L_i) divides X^(q^2) - X^q
    sigma_pattern_ok: bool  # the per-index sigma identities below
    first_mismatch: Optional[tuple[str, int]]  # (check, coefficient/index)

    @property
    def passed(self) -> bool:
        return self.product_exact and self.divides and self.sigma_pattern_ok


def verify_redei_factorization(
    u: AffineSet, direction: Sequence[int], sigma2_value: Optional[int] = None
) -> FactorizationReport:
    """Check, for one direction, the coefficient-exact identity

        prod(X + L_i) * (X^2 - sigma2) == X^(q^2) - X^q,

    the divisibility of the product into X^(q^2) - X^q, and the sigma
    index patterns it forces:

        sigma_(2l+1) = 0                      for all odd indices,
        sigma_(2l)   = sigma2^l               for 2l <= q^2 - q - 2,
        sigma_(q^2-q+2k) = sigma2^((q^2-q+2k)/2) - sigma2^k
                                              for 0 <= k <= (q-3)/2.

    Expects a translated set of q^2 - 2 points; the direction's line at
    infinity must meet the reference conic for the identity to hold, but
    that is the caller's knowledge — here the check simply runs.
    """
    field = u.field
    q = field.q
    d = _check_direction(field, direction)
    n = len(u.points)
    if n != q * q - 2:
        raise RedeiError(f"identity needs |U| = q^2 - 2, got {n}")
    if not u.translated:
        raise RedeiError("identity needs a zero-sum (translated) set")
    sigmas = redei_coefficients(u, d)
    if sigma2_value is None:
        sigma2_value = sigmas[2]
    elif sigma2_value != sigmas[2]:
        raise RedeiError("supplied sigma2 disagrees with the expanded product")

    first: Optional[tuple[str, int]] = None

    # product check against X^(q^2) - X^q
    r_poly = [sigmas[n - deg] for deg in range(n + 1)]  # ascending degree
    quadratic = [field.neg(sigma2_value), 0, 1]
    product = _poly_mul_field(field, r_poly, quadratic)
    target = [0] * (q * q + 1)
    target[q * q] = 1
    target[q] = field.neg(1)
    product_exact = product == target
    if not product_exact:
        for deg, (got, want) in enumerate(zip(product, target)):
            if got != want:
                first = first or ("product", deg)
                break

    # independent long-division divisibility check
    _, remainder = _poly_divmod_field(field, target, r_poly)
    divides = all(v == 0 for v in remainder)
    if not divides and first is None:
        first = ("divides", next(i for i, v in enumerate(remainder) if v))

    # sigma index patterns
    pattern_ok = True
    for k in range(1, n + 1, 2):
        if sigmas[k] != 0:
            pattern_ok = False
            first = first or ("sigma_odd", k)
            break
    if pattern_ok:
        for l in range(0, (q * q - q - 2) // 2 + 1):
            if sigmas[2 * l] != field.pow(sigma2_value, l):
                pattern_ok = False
                first = first or ("sigma_even", 2 * l)
                break
    if pattern_ok:
        for k in range(0, (q - 3) // 2 + 1):
            idx = q * q - q + 2 * k
            want = field.sub(
                field.pow(sigma2_value, idx // 2), field.pow(sigma2_value, k)
            )
            if sigmas[idx] != want:
                pattern_ok = False
                first = first or ("sigma_top", idx)
                break

    return FactorizationReport(
        direction=d,
        sigma2_value=sigma2_value,
        product_exact=product_exact,
        divides=divides,
        sigma_pattern_ok=pattern_ok,
        first_mismatch=first,
    )


# ----------------------------------------------------------------------
# residue sets for elliptic intersection counts
# ----------------------------------------------------------------------

def residue_set(field: Field) -> frozenset[int]:
    """{ -1 + 2*(x^2 + nu)/(x^2 - nu) : nu non-square, x in GF(q) } as
    residues mod p; requires q = p prime.

    These are the admissible values of an elliptic-section intersection
    count mod p when the section meets the point set.
    """
    if field.h != 1:
        raise RedeiError("residue sets are defined for prime fields only")
    q = field.q
    out = set()
    for nu in range(1, q):
        if field.is_square(nu):
            continue
        for x in range(q):
            x2 = field.mul(x, x)
            num = field.add(x2, nu)
            den = field.sub(x2, nu)  # never zero: nu is a non-square
            out.add(field.sub(field.mul(2 % field.p, field.div(num, den)), 1))
    return frozenset(out)


# ----------------------------------------------------------------------
# whole-array kernels: one row per direction
# ----------------------------------------------------------------------
#
# Each kernel works on int16 element arrays through the field's lookup
# tables, with row d standing for the d-th direction.  Row d of each
# result equals the scalar function of the same name at that direction.

def linear_values_all(u: AffineSet, directions) -> np.ndarray:
    """(directions x |U|) array whose row d is linear_values(u, d)."""
    add, mul = u.field._add_np, u.field._mul_np
    pts = np.array(u.points, dtype=np.int16).reshape(-1, 3)
    dirs = np.asarray(directions, dtype=np.int16).reshape(-1, 3)
    out = np.zeros((dirs.shape[0], pts.shape[0]), dtype=np.int16)
    for c in range(3):
        out = add[out, mul[dirs[:, c, None], pts[None, :, c]]]
    return out


def redei_coefficients_all(field: Field, values: np.ndarray) -> np.ndarray:
    """sigma_0 .. sigma_n per row, expanding prod(X + L_i) one factor at
    a time: multiplying by (X + v) adds v * sigma_(k-1) to sigma_k."""
    add, mul = field._add_np, field._mul_np
    rows, n = values.shape
    sig = np.zeros((rows, n + 1), dtype=np.int16)
    sig[:, 0] = 1
    for i in range(n):
        # after i factors only sigma_0 .. sigma_i can be nonzero
        sig[:, 1 : i + 2] = add[sig[:, 1 : i + 2], mul[values[:, i, None], sig[:, : i + 1]]]
    return sig


def power_sums_all(field: Field, values: np.ndarray, j_max: int) -> np.ndarray:
    """S_0 .. S_j_max per row by repeated powering (0^0 = 1)."""
    mul = field._mul_np
    acc = np.ones_like(values)
    sums = [field.sum_arr(acc)]
    for _ in range(j_max):
        acc = mul[acc, values]
        sums.append(field.sum_arr(acc))
    return np.stack(sums, axis=1)


def newton_sigmas_all(field: Field, power: np.ndarray, k_max: int) -> np.ndarray:
    """newton_sigmas for every row of a power-sum array."""
    add, mul, neg = field._add_np, field._mul_np, field._neg_np
    sigmas = [np.ones(power.shape[0], dtype=np.int16)]
    for k in range(1, k_max + 1):
        if k % field.p == 0:
            raise RedeiError(
                f"sigma_{k} is not determined by the recurrence when p={field.p} divides k"
            )
        acc = np.zeros(power.shape[0], dtype=np.int16)
        for j in range(1, k + 1):
            term = mul[power[:, j], sigmas[k - j]]
            acc = add[acc, term if j % 2 == 1 else neg[term]]
        sigmas.append(mul[acc, field.inv(k % field.p)])
    return np.stack(sigmas, axis=1)


def chi_direct_all(field: Field, values: np.ndarray) -> np.ndarray:
    """(rows x q) array of sum_i (x + L_i)^(q-1), by direct powering."""
    add, mul = field._add_np, field._mul_np
    x = np.arange(field.q, dtype=np.int16)
    shifted = add[x[None, :, None], values[:, None, :]]
    acc = shifted
    for _ in range(field.q - 2):
        acc = mul[acc, shifted]
    return field.sum_arr(acc)


def chi_closed_all(field: Field, sigma2: np.ndarray) -> np.ndarray:
    """(rows x q) array of chi_closed(x, sigma2[row]), Horner in x^2."""
    add, mul = field._add_np, field._mul_np
    x = np.arange(field.q, dtype=np.int16)
    x2 = mul[x, x][None, :]
    acc = np.zeros((sigma2.shape[0], field.q), dtype=np.int16)
    s_pow = np.ones(sigma2.shape[0], dtype=np.int16)
    for _ in range((field.q - 1) // 2 + 1):
        acc = add[mul[acc, x2], s_pow[:, None]]
        s_pow = mul[s_pow, sigma2]
    return mul[acc, field.neg(2 % field.p)]


def _powers(field: Field, base: np.ndarray, e_max: int) -> np.ndarray:
    """(rows x (e_max + 1)) array of base^e, with 0^0 = 1."""
    mul = field._mul_np
    out = np.ones((base.shape[0], e_max + 1), dtype=np.int16)
    for e in range(1, e_max + 1):
        out[:, e] = mul[out[:, e - 1], base]
    return out


def _first_true(mask: np.ndarray) -> np.ndarray:
    """Per row, the column of the first True entry, or -1."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), -1)


def factorization_mismatches(
    field: Field, sigmas: np.ndarray
) -> list[Optional[tuple[str, int]]]:
    """verify_redei_factorization's first_mismatch for every row of an
    already-expanded sigma array (rows x (q^2 - 1)); None where the row
    passes the product, divisibility and sigma-pattern checks."""
    q = field.q
    rows, width = sigmas.shape
    n = width - 1
    if n != q * q - 2:
        raise RedeiError(f"identity needs |U| = q^2 - 2, got {n}")
    add, mul, neg = field._add_np, field._mul_np, field._neg_np
    s2 = sigmas[:, 2]
    r_poly = sigmas[:, ::-1]  # ascending degree; monic since sigma_0 = 1

    target = np.zeros(q * q + 1, dtype=np.int16)
    target[q * q] = 1
    target[q] = neg[1]
    product = np.zeros((rows, n + 3), dtype=np.int16)
    product[:, 2:] = r_poly
    product[:, : n + 1] = add[product[:, : n + 1], neg[mul[s2[:, None], r_poly]]]
    bad_product = _first_true(product != target)

    num = np.tile(target, (rows, 1))
    for d in range(q * q, n - 1, -1):
        window = num[:, d - n : d + 1]
        num[:, d - n : d + 1] = add[window, neg[mul[num[:, d, None], r_poly]]]
    bad_divides = _first_true(num[:, :n] != 0)

    pw = _powers(field, s2, (q * q - 3) // 2)
    odd = np.arange(1, n + 1, 2)
    even = np.arange(0, q * q - q - 1, 2)
    ks = np.arange((q - 3) // 2 + 1)
    top = q * q - q + 2 * ks
    bad_odd = _first_true(sigmas[:, odd] != 0)
    bad_even = _first_true(sigmas[:, even] != pw[:, even // 2])
    bad_top = _first_true(sigmas[:, top] != add[pw[:, top // 2], neg[pw[:, ks]]])

    out: list[Optional[tuple[str, int]]] = []
    for i in range(rows):
        if bad_product[i] >= 0:
            out.append(("product", int(bad_product[i])))
        elif bad_divides[i] >= 0:
            out.append(("divides", int(bad_divides[i])))
        elif bad_odd[i] >= 0:
            out.append(("sigma_odd", int(odd[bad_odd[i]])))
        elif bad_even[i] >= 0:
            out.append(("sigma_even", int(even[bad_even[i]])))
        elif bad_top[i] >= 0:
            out.append(("sigma_top", int(top[bad_top[i]])))
        else:
            out.append(None)
    return out


# ----------------------------------------------------------------------
# the full per-example verification suite
# ----------------------------------------------------------------------

@dataclass
class RedeiSuiteReport:
    """Outcome of every identity check for one affine point set.

    checks maps a check name to pass/fail; failures carries one witness
    per failed check: (check name, direction or (direction, x) or index).
    """

    q: int
    set_size: int
    sigma2_rank: int
    checks: dict[str, bool]
    failures: list[tuple[str, tuple]]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        def plain(value):
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            return value

        return {
            "q": self.q,
            "set_size": self.set_size,
            "sigma2_rank": self.sigma2_rank,
            "checks": dict(self.checks),
            "failures": [[name, plain(w)] for name, w in self.failures],
            "passed": self.passed,
        }


def run_redei_suite(model, members) -> RedeiSuiteReport:
    """Run every per-direction and per-plane identity check against a
    partial ovoid of the affine model that contains the infinite point.

    The set is translated to zero coordinate sums and handed to
    :func:`redei_suite_core` with the model's conic.
    """
    u = translate_to_zero_sum(affine_set(model.field, model.u_from_k(members)))
    return redei_suite_core(u, model.conic)


def redei_suite_core(u: AffineSet, conic) -> RedeiSuiteReport:
    """Every identity check for a zero-sum set U of q^2 - 2 affine points
    against a conic at infinity (anything with ``points`` and
    ``plane.points``, like :class:`ovoid.t2.Conic`).

    The walk covers all q^2 + q + 1 direction triples and all q^3 + q^2 + q
    planes other than the plane at infinity.  Checks:

    - the three coordinate sums vanish after translation
    - the expanded product times (X^2 - sigma2) equals X^(q^2) - X^q on
      every direction whose line meets the conic, with the divisibility
      and per-index sigma patterns it implies
    - Newton-recurrence sigmas match the expanded product on every
      direction (indices 1 .. q-1)
    - power sums: odd ones vanish, S_(2l) = -2*sigma2^l, every direction
    - sigma pattern at small indices on every direction: odd vanish,
      sigma_(2l) = sigma2^l for 2l <= q-1
    - the quadratic-form sigma2 agrees with the expanded product
    - chi by direct powering equals the collapsed sum, all planes
    - the chi case analysis by quadratic character of sigma2, all planes
    - chi == |U| - |plane ∩ U| mod p, all planes
    - tangent-direction planes with x = 0 hold exactly q - 2 set points
    - sigma2 vanishes exactly on the tangent directions
    - sigma2 attains every field element over the directions

    Four arrays carry the checks and none is derived from another: the
    expanded product, power sums with their Newton recurrence, chi by
    direct powering, and chi in closed form from the product's sigma2.
    The first failure of each check is reported in the order of a walk
    over directions (and x within a direction), whatever that walk
    would have met first.
    """
    field = u.field
    q, p = field.q, field.p
    n = len(u)
    if n != q * q - 2:
        raise RedeiError(f"identity needs |U| = q^2 - 2, got {n}")
    if not u.translated:
        raise RedeiError("identity needs a zero-sum (translated) set")
    add, mul, neg = field._add_np, field._mul_np, field._neg_np

    directions = conic.plane.points
    dirs = np.array(directions, dtype=np.int16)
    values = linear_values_all(u, dirs)
    sigmas = redei_coefficients_all(field, values)
    power = power_sums_all(field, values, q - 1)
    newton = newton_sigmas_all(field, power, q - 1)
    chi = chi_direct_all(field, values)
    s2 = sigmas[:, 2]
    chi_sum = chi_closed_all(field, s2)

    conic_pts = np.array(conic.points, dtype=np.int16)
    meet_count = (field.sum_arr(mul[dirs[:, None, :], conic_pts[None, :, :]]) == 0).sum(axis=1)
    meets = meet_count > 0
    tangent = meet_count == 1
    every = np.ones(len(directions), dtype=bool)

    form = sigma2_form(u)
    matrix = np.array(form.matrix, dtype=np.int16)
    form_values = field.sum_arr(mul[dirs, field.sum_arr(mul[dirs[:, None, :], matrix[None, :, :]])])

    # the factorization check runs on the product rows expanded above
    mismatches: list[Optional[tuple[str, int]]] = [None] * len(directions)
    meet_rows = np.flatnonzero(meets)
    for d, first in zip(meet_rows, factorization_mismatches(field, sigmas[meet_rows])):
        mismatches[d] = first
    factorization = np.array([first is None for first in mismatches])

    minus_two = neg[2 % p]
    pw = _powers(field, s2, (q - 1) // 2)
    odd = np.arange(1, q, 2)
    even = 2 * np.arange((q - 1) // 2 + 1)
    power_ok = (power[:, odd] == 0).all(axis=1) & (power[:, even] == mul[minus_two, pw]).all(axis=1)
    sigma_ok = (sigmas[:, odd] == 0).all(axis=1) & (sigmas[:, even] == pw).all(axis=1)

    x = np.arange(q, dtype=np.int16)
    x2 = mul[x, x][None, :]
    s2c = s2[:, None]
    on_plane = (values[:, None, :] == neg[x][None, :, None]).sum(axis=2)
    congruence = add[n % p, neg[on_plane % p]]
    square = field._square_np[s2]
    zero_case = chi == np.where(x == 0, 0, minus_two)[None, :]
    square_case = chi == np.where(x2 == s2c, neg[1], minus_two)
    # chi = -2 (x^2 + s2) / (x^2 - s2), vanishing exactly when x^2 = -s2;
    # the denominator is nonzero wherever s2 is a non-square
    ratio = mul[add[x2, s2c], field._inv_np[add[x2, neg[s2c]]]]
    nonsquare_case = (chi == mul[minus_two, ratio]) & ((chi == 0) == (x2 == neg[s2c]))
    case_ok = np.where(
        (s2 == 0)[:, None], zero_case, np.where(square[:, None], square_case, nonsquare_case)
    )
    # on lines meeting the conic, sigma2 is square-or-zero (both roots of
    # X^2 - sigma2 lie in the field), so a vanishing chi forces sigma2 = 0
    # and x = 0 -- the step that identifies the zero set of sigma2 with
    # the tangent directions
    zero_locus = (chi != 0) | ((s2c == 0) & (x == 0)[None, :])

    # (name, ok per direction or per (direction, x), applies, slot): the
    # slot orders checks within one direction as a per-direction walk
    # records them; x-indexed checks take slot + 4x
    table = [
        ("form_matches_product", form_values == s2, every, 0),
        ("factorization", factorization, meets, 1),
        ("newton_matches_product", (newton == sigmas[:, :q]).all(axis=1), every, 2),
        ("power_sum_pattern", power_ok, every, 3),
        ("sigma_pattern", sigma_ok, every, 4),
        ("dual_zero_set", (s2 == 0) == tangent, every, 5),
        ("chi_two_paths", chi == chi_sum, every, 6),
        ("plane_congruence", chi == congruence, every, 7),
        ("chi_case_analysis", case_ok, every, 8),
        ("chi_zero_locus_on_conic_lines", zero_locus, meets, 9),
        ("sigma2_square_on_conic_lines", square, meets, 6 + 4 * q),
        ("tangent_plane_count", on_plane[:, 0] == q - 2, tangent, 7 + 4 * q),
    ]
    seen: list[tuple[tuple[int, int], str, bool]] = []
    found: list[tuple[tuple[int, int], str, tuple]] = []
    for name, ok, applies, slot in table:
        bad = ~ok & (applies[:, None] if ok.ndim == 2 else applies)
        seen.append(((int(np.flatnonzero(applies)[0]), slot), name, not bad.any()))
        if not bad.any():
            continue
        first = int(np.flatnonzero(bad)[0])
        if ok.ndim == 2:
            d, xi = divmod(first, q)
            found.append(((d, slot + 4 * xi), name, (directions[d], xi)))
        elif name == "factorization":
            found.append(((first, slot), name, (directions[first], mismatches[first])))
        else:
            found.append(((first, slot), name, (directions[first],)))

    checks = {"sigma1_zero": coordinate_sums(field, u.points) == (0, 0, 0)}
    failures: list[tuple[str, tuple]] = [] if checks["sigma1_zero"] else [("sigma1_zero", ())]
    for _, name, ok in sorted(seen):
        checks[name] = ok
    failures += [(name, witness) for _, name, witness in sorted(found, key=lambda t: t[0])]
    checks["sigma2_range_full"] = set(s2.tolist()) == set(range(q))
    if not checks["sigma2_range_full"]:
        failures.append(("sigma2_range_full", ()))

    return RedeiSuiteReport(
        q=q,
        set_size=n,
        sigma2_rank=form.rank,
        checks=checks,
        failures=failures,
    )
