"""Seeded images of stored example sets under automorphisms of the models.

The benchmark applies the maps itself, so the inputs it hands the program
are new sets whose structure is known in advance:

- Q(4,q): a product of reflections x -> x - (B(x,v)/Q(v)) v with Q(v) != 0.
  Each reflection is an isometry of the quadric, so it maps a maximal
  partial ovoid to one with the same census histograms.
- T2(C): an affine map x -> M x + t of AG(3,q), where M = lam * Sym^2(A)
  for an invertible 2x2 matrix A.  Sym^2(A) acts on the conic points
  (x^2, xy, y^2) as A acts on (x, y), so M maps C onto itself, preserves
  X1^2 - X0 X2 up to the square lam^2 det(A)^2, fixes inf and permutes
  the tangent planes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from checks import normalize, quadric_value, reflect

REFLECTIONS = 3


def q4_image(members, p: int, rng: random.Random) -> list[list[int]]:
    k = np.array(members, dtype=np.int64).reshape(-1, 5)
    for _ in range(REFLECTIONS):
        while True:
            v = np.array([rng.randrange(p) for _ in range(5)], dtype=np.int64)
            if quadric_value(v, p):
                break
        k = reflect(k, v, p)
    return sorted(list(normalize(x, p)) for x in k.tolist())


def conic_similitude(p: int, rng: random.Random) -> np.ndarray:
    """lam * Sym^2(A) for a random invertible A and nonzero lam."""
    while True:
        a, b, c, d = (rng.randrange(p) for _ in range(4))
        if (a * d - b * c) % p:
            break
    lam = rng.randrange(1, p)
    sym2 = np.array(
        [
            [a * a, 2 * a * b, b * b],
            [a * c, a * d + b * c, b * d],
            [c * c, 2 * c * d, d * d],
        ],
        dtype=np.int64,
    )
    return lam * sym2 % p


def t2_image(members, p: int, rng: random.Random) -> list:
    m = conic_similitude(p, rng)
    t = np.array([rng.randrange(p) for _ in range(3)], dtype=np.int64)
    out = []
    for obj in members:
        if obj == "inf":
            out.append("inf")
            continue
        x = np.array(obj[:3], dtype=np.int64)
        out.append([int(v) for v in (m @ x + t) % p] + [1])
    affine = sorted(o for o in out if o != "inf")
    return affine + ["inf"] * (len(out) - len(affine))


def write_image(src: dict, members: list, path: Path) -> None:
    """A set file like ``src`` (same model and field) holding ``members``."""
    doc = {key: src[key] for key in ("format", "version", "model", "field")}
    doc["size"] = len(members)
    doc["members"] = members
    path.write_text(json.dumps(doc) + "\n")
