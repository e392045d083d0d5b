"""Output checks computed apart from the program.

Everything here uses plain integer arithmetic mod a prime p (numpy int64
or Python ints) and never imports ``ovoid``: a check that reused the
program's own code could not catch the program's own faults.  Every check
returns a list of problems; an empty list means the output passed.

Conventions (the ones the set files use):

- Q(4,q) is the quadric Q(x) = x0^2 + x1 x2 + x3 x4 in PG(4,q), with polar
  form B(x,y) = 2 x0 y0 + x1 y2 + x2 y1 + x3 y4 + x4 y3.  Two distinct
  quadric points are collinear in the quadrangle iff B(x,y) = 0.
- T2(C) uses the conic C = {(t^2, t, 1)} u {(1, 0, 0)} of X1^2 - X0 X2 in
  the plane at infinity.  Two affine points are collinear iff their
  difference is a multiple of a conic point; the symbol "inf" is
  collinear only with the tangent planes.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import numpy as np

POLAR = np.array(
    [
        [2, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ],
    dtype=np.int64,
)
KINDS = ("elliptic", "hyperbolic", "cone")
CHUNK = 256  # hyperplane rows per block in the census; keeps memory small


def quadric_value(x, p: int) -> int:
    x0, x1, x2, x3, x4 = (int(v) for v in x)
    return (x0 * x0 + x1 * x2 + x3 * x4) % p


def normalize(vec, p: int) -> tuple[int, ...]:
    """Scale a nonzero vector mod p so its first nonzero entry is 1."""
    vec = [int(v) % p for v in vec]
    lead = next(v for v in vec if v)
    inv = pow(lead, -1, p)
    return tuple(v * inv % p for v in vec)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Read-only, since the cached arrays are shared by every caller."""
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def projective_points(n: int, p: int) -> np.ndarray:
    """All normalized vectors of PG(n, p), one per row, lexicographic."""
    rows = []
    for lead in range(n + 1):
        for tail in itertools.product(range(p), repeat=n - lead):
            rows.append((0,) * lead + (1,) + tail)
    rows.sort()
    return _frozen(np.array(rows, dtype=np.int64))


@lru_cache(maxsize=None)
def quadric_points(p: int) -> np.ndarray:
    pts = projective_points(4, p)
    q_vals = (pts[:, 0] ** 2 + pts[:, 1] * pts[:, 2] + pts[:, 3] * pts[:, 4]) % p
    return _frozen(pts[q_vals == 0])


def section_sizes(q: int) -> dict[int, int]:
    """Hyperplane-section size -> index into KINDS."""
    return {q * q + 1: 0, (q + 1) * (q + 1): 1, q * q + q + 1: 2}


def pole(h, p: int) -> np.ndarray:
    """The point c with B c = h: POLAR is diag(2) + two coordinate swaps."""
    h0, h1, h2, h3, h4 = (int(v) for v in h)
    return np.array([h0 * pow(2, -1, p) % p, h2, h1, h4, h3], dtype=np.int64)


# ----------------------------------------------------------------------
# Q(4,q) sets
# ----------------------------------------------------------------------


def check_q4_set(members, p: int) -> list[str]:
    """A maximal partial ovoid of Q(4,p) of size p^2 - 1."""
    problems = []
    want = p * p - 1
    if len(members) != want:
        problems.append(f"Q4 set has {len(members)} members, expected {want}")
    k = np.array(members, dtype=np.int64).reshape(-1, 5)
    for x in k:
        if not x.any() or tuple(int(v) for v in x) != normalize(x, p):
            return problems + [f"Q4 member {x.tolist()} is not a normalized point"]
        if quadric_value(x, p):
            return problems + [f"Q4 member {x.tolist()} is not on the quadric"]
    if len({tuple(x) for x in k.tolist()}) != len(k):
        return problems + ["Q4 set repeats a member"]
    gram = (k @ POLAR @ k.T) % p
    np.fill_diagonal(gram, 1)
    if not gram.all():
        i, j = np.argwhere(gram == 0)[0]
        problems.append(f"Q4 members {k[i].tolist()} and {k[j].tolist()} are collinear")
    pts = quadric_points(p)
    in_k = {tuple(x) for x in k.tolist()}
    outside = np.array([x for x in pts.tolist() if tuple(x) not in in_k], dtype=np.int64)
    covered = ((outside @ POLAR @ k.T) % p == 0).any(axis=1)
    if not covered.all():
        problems.append(
            f"Q4 set is not maximal: {outside[~covered][0].tolist()} extends it"
        )
    return problems


def reflect(x: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Rows x mapped by the reflection x -> x - (B(x,v)/Q(v)) v."""
    qv = quadric_value(v, p)
    scale = (x @ POLAR @ v) % p * pow(qv, -1, p) % p
    return (x - scale[:, None] * v[None, :]) % p


def independent_census(members, p: int) -> dict:
    """Hyperplane-section histograms of a size p^2 - 1 set, from scratch.

    Each hyperplane is classified by its number of quadric points.  The
    set's grid is the one hyperbolic section that misses the set; the
    partner of a point off the grid is its image under the reflection in
    the grid's pole, which fixes the grid pointwise.  A section "holds a
    pair" when it contains a member and that member's partner.
    """
    k = np.array(members, dtype=np.int64).reshape(-1, 5)
    pts = quadric_points(p)
    hyper = projective_points(4, p)
    kinds = section_sizes(p)
    kind = np.empty(len(hyper), dtype=np.int64)
    k_counts = np.empty(len(hyper), dtype=np.int64)
    for start in range(0, len(hyper), CHUNK):
        rows = hyper[start : start + CHUNK]
        sizes = ((rows @ pts.T) % p == 0).sum(axis=1).tolist()
        if any(size not in kinds for size in sizes):
            raise ValueError("a hyperplane cuts the quadric in an impossible size")
        kind[start : start + CHUNK] = [kinds[size] for size in sizes]
        k_counts[start : start + CHUNK] = ((rows @ k.T) % p == 0).sum(axis=1)

    def histogram(selected: np.ndarray) -> dict[str, dict[int, int]]:
        out = {}
        for code, name in enumerate(KINDS):
            sizes, counts = np.unique(k_counts[selected & (kind == code)], return_counts=True)
            out[name] = dict(zip(sizes.tolist(), counts.tolist()))
        return out

    has_pair = np.zeros(len(hyper), dtype=bool)
    grid = np.flatnonzero((kind == 1) & (k_counts == 0))
    if len(grid) == 1:
        partner = reflect(k, pole(hyper[grid[0]], p), p)
        index = {tuple(x): i for i, x in enumerate(k.tolist())}
        mates = [index.get(normalize(y, p), -1) for y in partner.tolist()]
        pairs = [(i, j) for i, j in enumerate(mates) if j > i]
        if pairs:
            a = k[[i for i, _ in pairs]]
            b = k[[j for _, j in pairs]]
            for start in range(0, len(hyper), CHUNK):
                rows = hyper[start : start + CHUNK]
                both = ((rows @ a.T) % p == 0) & ((rows @ b.T) % p == 0)
                has_pair[start : start + CHUNK] = both.any(axis=1)
    return {
        "histograms": histogram(np.ones(len(hyper), dtype=bool)),
        "pair_histograms": histogram(has_pair),
        "grid_sections": len(grid),
    }


def residue_set(p: int) -> set[int]:
    """{-1 + 2 (x^2 + nu)/(x^2 - nu) mod p : nu a non-square, x in GF(p)}."""
    squares = {x * x % p for x in range(1, p)}
    out = set()
    for nu in range(1, p):
        if nu in squares:
            continue
        for x in range(p):
            x2 = x * x % p
            out.add((-1 + 2 * (x2 + nu) * pow((x2 - nu) % p, -1, p)) % p)
    return out


def _int_hist(hist: dict) -> dict[str, dict[int, int]]:
    return {
        kind: {int(size): int(count) for size, count in hist.get(kind, {}).items()}
        for kind in KINDS
    }


def check_census(doc: dict, p: int, k_size: int, reference: dict | None = None) -> list[str]:
    """Census totals, double count, residues, the -3 rule, and (when given)
    equality with reference histograms.

    ``doc`` has the program's census JSON shape: ``histograms`` and
    ``pair_histograms`` keyed by section kind, then by member count.
    """
    q = p
    problems = []
    hist = _int_hist(doc["histograms"])
    pairs = _int_hist(doc["pair_histograms"])
    totals = {
        "elliptic": q * q * (q * q - 1) // 2,
        "hyperbolic": q * q * (q * q + 1) // 2,
        "cone": q**3 + q * q + q + 1,
    }
    for kind, want in totals.items():
        got = sum(hist[kind].values())
        if got != want:
            problems.append(f"{kind} sections total {got}, expected {want}")
    incidences = sum(size * count for size, count in hist["elliptic"].items())
    want = k_size * q * q * (q - 1) // 2
    if incidences != want:
        problems.append(f"elliptic incidences {incidences}, expected {want}")
    allowed = residue_set(p)
    bad = sorted(size for size in hist["elliptic"] if size and size % p not in allowed)
    if bad:
        problems.append(f"elliptic counts {bad} fall outside residues {sorted(allowed)}")
    bad = sorted(size for size in pairs["elliptic"] if size % q != (-3) % q)
    if bad:
        problems.append(f"elliptic pair-section counts {bad} are not -3 mod {q}")
    if not pairs["elliptic"]:
        problems.append("no elliptic section holds a partner pair")
    if reference is not None:
        for key, got in (("histograms", hist), ("pair_histograms", pairs)):
            if got != _int_hist(reference[key]):
                problems.append(f"census {key} differ from the reference")
    return problems


# ----------------------------------------------------------------------
# T2(C) sets
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def conic_points(p: int) -> tuple[tuple[int, int, int], ...]:
    pts = [normalize((t * t, t, 1), p) for t in range(p)]
    return tuple(pts + [(1, 0, 0)])


@lru_cache(maxsize=None)
def conic_direction_table(p: int) -> np.ndarray:
    """Flag per vector d of GF(p)^3 (index d0 p^2 + d1 p + d2): d is a
    nonzero multiple of a conic point."""
    table = np.zeros(p**3, dtype=bool)
    for c in conic_points(p):
        for lam in range(1, p):
            d = [lam * v % p for v in c]
            table[d[0] * p * p + d[1] * p + d[2]] = True
    return _frozen(table)


def t2_affine_points(members) -> tuple[list[tuple[int, int, int]], list[str]]:
    """Split a T2 set into its affine triples; other members are problems."""
    triples, problems = [], []
    inf = 0
    for obj in members:
        if obj == "inf":
            inf += 1
        elif isinstance(obj, list) and len(obj) == 4 and obj[3] == 1:
            triples.append(tuple(int(v) for v in obj[:3]))
        else:
            problems.append(f"T2 member {obj!r} is neither inf nor affine")
    if inf != 1:
        problems.append(f"T2 set holds inf {inf} times, expected once")
    return triples, problems


def check_t2_set(members, p: int) -> list[str]:
    """A maximal partial ovoid of T2(C) through inf, of size p^2 - 1."""
    want = p * p - 1
    triples, problems = t2_affine_points(members)
    if len(members) != want:
        problems.append(f"T2 set has {len(members)} members, expected {want}")
    if problems:
        return problems
    u = np.array(triples, dtype=np.int64)
    if ((u < 0) | (u >= p)).any() or len(set(triples)) != len(triples):
        return ["T2 affine members are out of range or repeated"]
    table = conic_direction_table(p)

    def code(d: np.ndarray) -> np.ndarray:  # index of a vector of GF(p)^3
        return (d[..., 0] * p + d[..., 1]) * p + d[..., 2]

    pair = table[code((u[:, None, :] - u[None, :, :]) % p)]
    if pair.any():
        i, j = np.argwhere(pair)[0]
        return [f"T2 members {triples[i]} and {triples[j]} are collinear"]
    allpts = np.array(list(itertools.product(range(p), repeat=3)), dtype=np.int64)
    in_u = np.zeros(p**3, dtype=bool)
    in_u[code(u)] = True
    outside = allpts[~in_u[code(allpts)]]
    covered = table[code((outside[:, None, :] - u[None, :, :]) % p)].any(axis=1)
    if not covered.all():
        return [f"T2 set is not maximal: {outside[~covered][0].tolist()} extends it"]
    return []


def directions_meeting_conic(p: int) -> list[tuple[int, int, int]]:
    """Lines y X0 + z X1 + w X2 = 0 of the plane at infinity that meet C."""
    conic = np.array(conic_points(p), dtype=np.int64)
    dirs = projective_points(2, p)
    meets = ((dirs @ conic.T) % p == 0).any(axis=1)
    return [tuple(d) for d in dirs[meets].tolist()]


def check_identity_sympy(members, p: int, rng: random.Random, count: int = 3) -> list[str]:
    """prod(X + L_i) (X^2 - sigma2) = X^(q^2) - X^q over GF(p), with sympy.

    L_i = a_i y + b_i z + c_i w over the affine members translated to zero
    coordinate sums, for ``count`` directions (y, z, w) drawn from ``rng``
    among the lines meeting the conic.  sigma2 is the second elementary
    symmetric function of the L_i, from their power sums.
    """
    from sympy import Poly, symbols

    triples, problems = t2_affine_points(members)
    if problems:
        return problems
    q = p
    n = len(triples)
    u = np.array(triples, dtype=np.int64)
    shift = (-u.sum(axis=0)) * pow(n % p, -1, p) % p
    u = (u + shift) % p
    x = symbols("X")
    target = Poly(x ** (q * q) - x**q, x, modulus=p)
    for y, z, w in rng.sample(directions_meeting_conic(p), count):
        vals = ((u @ np.array([y, z, w], dtype=np.int64)) % p).tolist()
        sigma2 = (sum(vals) ** 2 - sum(v * v for v in vals)) * pow(2, -1, p) % p
        prod = Poly(1, x, modulus=p)
        for v in vals:
            prod = prod * Poly(x + v, x, modulus=p)
        if prod * Poly(x**2 - sigma2, x, modulus=p) != target:
            problems.append(f"identity fails on direction {(y, z, w)}")
    return problems


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------


def check_digests(digests: list[str]) -> list[str]:
    """Every operation of one run printed the same digest."""
    if not digests or any(not d for d in digests):
        return ["an operation printed no digest"]
    if len(set(digests)) != 1:
        return [f"operations printed {len(set(digests))} different digests"]
    return []
