"""Backtracking searches for maximal partial ovoids.

Every search runs over a universe of adjacency bitsets: the points of a
verified quadrangle (``gq.collinear_bits``) or the antipode pairs across
a grid subquadrangle (``PairedUniverse.pair_adj``).  Rows are
self-inclusive, so choosing an element removes its own row from the
candidates.  One depth-first walker serves every deterministic search and
audit: it extends a start prefix in ascending index order and hands each
full-depth set to a leaf predicate, so reruns are reproducible bit for
bit and the first witness is the lexicographically first.  One restart
loop serves the randomized mode, a seeded greedy completion repeated
until the budget runs out.

The paired universe fixes a grid subquadrangle (a hyperbolic section in
the orthogonal model) and searches over antipode pairs: the partner of an
off-grid point is the unique second point collinear with the whole conic
of grid points collinear with the first.  Selecting whole pairs keeps
every candidate set antipode closed by construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ovoid.gq import GQ, GQError, check_partial_ovoid, extension_bits

# leaf(chosen, candidates) -> True to stop the walk (or accept a restart)
Leaf = Callable[[list[int], int], bool]


class SearchError(ValueError):
    """Raised for inconsistent search configurations."""


@dataclass
class SearchConfig:
    target_size: int
    mode: str = "exact_dfs"  # exact_dfs | antipode_paired | extend_random
    seed: int = 0
    time_budget: Optional[float] = None  # seconds, None is unlimited
    root_fix: Optional[int] = None  # point index (exact) or pair index (paired)


@dataclass
class SearchOutcome:
    status: str  # found | exhausted | timeout
    members: Optional[tuple[int, ...]]
    nodes: int
    elapsed: float
    restarts: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


# ----------------------------------------------------------------------
# the walker and the restart loop
# ----------------------------------------------------------------------

def _start(adj: Sequence[int], prefix: Sequence[int]) -> int:
    """Candidates left by the prefix; every prefix index must be in range."""
    cands = (1 << len(adj)) - 1
    for i in prefix:
        if not 0 <= i < len(adj):
            raise SearchError(f"root {i} out of range 0..{len(adj) - 1}")
        cands &= ~adj[i]
    return cands


def _walk(
    adj: Sequence[int],
    target: int,
    leaf: Leaf,
    prefix: Sequence[int] = (),
    cands: Optional[int] = None,
    deadline: Optional[float] = None,
) -> tuple[int, bool]:
    """Depth-first walk from ``prefix`` to every set of ``target`` elements.

    Elements after the prefix come in ascending order, above the prefix's
    last element, from ``cands`` (by default what the prefix leaves); each
    choice removes its adjacency row.  Each full-depth set goes to
    ``leaf(chosen, cands)``, which returns True to stop the walk.  Returns
    the number of nodes and whether the deadline cut the walk short.
    """
    initial = _start(adj, prefix)  # checks the prefix in every mode
    if cands is None:
        cands = initial
    full = (1 << len(adj)) - 1
    chosen = list(prefix)
    nodes = 0
    timed_out = False

    def walk(cands: int, last: int) -> bool:
        nonlocal nodes, timed_out
        depth = len(chosen)
        if depth == target:
            return leaf(chosen, cands)
        need = target - depth
        avail = cands & (full << (last + 1))
        while avail:
            if avail.bit_count() < need:
                return False
            nodes += 1
            if deadline is not None and nodes % 4096 == 0:
                if time.monotonic() > deadline:
                    timed_out = True
                    return True
            low = avail & -avail
            i = low.bit_length() - 1
            avail ^= low
            chosen.append(i)
            if walk(cands & ~adj[i], i):
                return True
            chosen.pop()
        return False

    walk(cands, chosen[-1] if chosen else -1)
    return nodes, timed_out


def _random_bit(rng: random.Random, mask: int) -> int:
    k = rng.randrange(mask.bit_count())
    for _ in range(k):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


def _restart(
    adj: Sequence[int],
    target: int,
    accept: Leaf,
    prefix: Sequence[int],
    deadline: Optional[float],
    rng: random.Random,
) -> tuple[Optional[list[int]], int, int]:
    """Seeded greedy completions of the prefix until one of ``target``
    elements is accepted or the deadline passes.

    Returns the accepted set (None on timeout), the node count and the
    number of restarts.
    """
    initial = _start(adj, prefix)
    restarts = 0
    nodes = 0
    while deadline is None or time.monotonic() <= deadline:
        restarts += 1
        chosen = list(prefix)
        cands = initial
        while cands and len(chosen) < target:
            nodes += 1
            i = _random_bit(rng, cands)
            chosen.append(i)
            cands &= ~adj[i]
        if len(chosen) == target and accept(chosen, cands):
            return chosen, nodes, restarts
    return None, nodes, restarts


# ----------------------------------------------------------------------
# antipode pairing
# ----------------------------------------------------------------------

def antipode_pairs(gq: GQ, grid_points: Iterable[int]) -> list[tuple[int, int]]:
    """Partition the points off a grid subquadrangle into antipode pairs.

    Pairs come as (a, b) with a < b, in ascending order of a.
    """
    grid_mask = 0
    for i in grid_points:
        grid_mask |= 1 << int(i)
    coll = gq.collinear_bits
    expected_conic = gq.s + 1
    pairs: list[tuple[int, int]] = []
    seen = 0
    for p in range(gq.num_points):
        bit = 1 << p
        if (grid_mask | seen) & bit:
            continue
        conic = coll[p] & grid_mask
        if conic.bit_count() != expected_conic:
            raise SearchError(
                f"point {p} sees {conic.bit_count()} grid points, expected {expected_conic}"
            )
        inter = gq.full_mask
        c = conic
        while c:
            lowc = c & -c
            inter &= coll[lowc.bit_length() - 1]
            c ^= lowc
        inter &= ~bit
        if inter.bit_count() != 1:
            raise SearchError(f"point {p} has {inter.bit_count()} antipode candidates")
        partner = inter.bit_length() - 1
        if grid_mask & inter:
            raise SearchError(f"antipode of {p} lies on the grid")
        if coll[p] & inter:
            raise SearchError(f"antipode pair ({p}, {partner}) is collinear")
        pairs.append((p, partner))
        seen |= bit | inter
    return pairs


@dataclass
class PairedUniverse:
    """Precomputed pair-level incidence for the paired searches."""

    pairs: tuple[tuple[int, int], ...]
    pair_adj: tuple[int, ...]  # pair-index bitsets, self-inclusive
    pair_cover: tuple[int, ...]  # point-index bitsets covered by the pair

    @classmethod
    def build(cls, gq: GQ, grid_points: Iterable[int]) -> "PairedUniverse":
        pairs = antipode_pairs(gq, grid_points)
        coll = gq.collinear_bits
        cover = [coll[a] | coll[b] for a, b in pairs]
        adj = []
        for i, (a, b) in enumerate(pairs):
            mask = 0
            ca = cover[i]
            for j, (c, d) in enumerate(pairs):
                if (ca >> c) & 1 or (ca >> d) & 1 or i == j:
                    mask |= 1 << j
            adj.append(mask)
        return cls(tuple(pairs), tuple(adj), tuple(cover))


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def search_maximal(
    gq: GQ, cfg: SearchConfig, grid_points: Optional[Iterable[int]] = None
) -> SearchOutcome:
    """Search for a maximal partial ovoid of exactly the target size.

    ``exact_dfs`` walks points, ``antipode_paired`` walks the pairs across
    ``grid_points``, and ``extend_random`` restarts over pairs when a grid
    is given and over points otherwise.
    """
    if cfg.target_size < 1 or cfg.target_size > gq.num_points:
        raise SearchError(f"target size {cfg.target_size} out of range")
    if cfg.mode not in ("exact_dfs", "antipode_paired", "extend_random"):
        raise SearchError(f"unknown search mode {cfg.mode!r}")
    if cfg.mode == "exact_dfs" or (cfg.mode == "extend_random" and grid_points is None):
        adj, target = gq.collinear_bits, cfg.target_size

        def accept(chosen: list[int], cands: int) -> bool:
            return cands == 0

        def members_of(chosen: list[int]) -> tuple[int, ...]:
            return tuple(sorted(chosen))

    else:
        if grid_points is None:
            raise SearchError("antipode_paired mode needs a grid subquadrangle")
        if cfg.target_size % 2:
            raise SearchError(f"{cfg.mode} over pairs needs an even target size")
        uni = PairedUniverse.build(gq, grid_points)
        adj, target = uni.pair_adj, cfg.target_size // 2

        def accept(chosen: list[int], cands: int) -> bool:
            cover = 0
            for i in chosen:
                cover |= uni.pair_cover[i]
            return cover == gq.full_mask

        def members_of(chosen: list[int]) -> tuple[int, ...]:
            return tuple(sorted(p for i in chosen for p in uni.pairs[i]))

    prefix = () if cfg.root_fix is None else (cfg.root_fix,)
    start = time.monotonic()
    deadline = None if cfg.time_budget is None else start + cfg.time_budget
    if cfg.mode == "extend_random":
        chosen, nodes, restarts = _restart(
            adj, target, accept, prefix, deadline, random.Random(cfg.seed)
        )
        elapsed = time.monotonic() - start
        if chosen is None:
            return SearchOutcome("timeout", None, nodes, elapsed, restarts)
        return SearchOutcome("found", members_of(chosen), nodes, elapsed, restarts)

    witness: list[tuple[int, ...]] = []

    def leaf(chosen: list[int], cands: int) -> bool:
        if accept(chosen, cands):
            witness.append(members_of(chosen))
            return True
        return False

    nodes, timed_out = _walk(adj, target, leaf, prefix, deadline=deadline)
    elapsed = time.monotonic() - start
    if timed_out:
        return SearchOutcome("timeout", None, nodes, elapsed)
    if witness:
        return SearchOutcome("found", witness[0], nodes, elapsed)
    return SearchOutcome("exhausted", None, nodes, elapsed)


def enumerate_maximal(
    gq: GQ, target: int, root_fix: Optional[int] = None
) -> list[tuple[int, ...]]:
    """All maximal partial ovoids of the target size through the pinned root."""
    found: list[tuple[int, ...]] = []

    def leaf(chosen: list[int], cands: int) -> bool:
        if cands == 0:
            found.append(tuple(chosen))
        return False

    _walk(gq.collinear_bits, target, leaf, () if root_fix is None else (root_fix,))
    return found


# ----------------------------------------------------------------------
# extendability audits
# ----------------------------------------------------------------------

@dataclass
class AuditReport:
    size: int
    rho: int  # deficiency: s*t - size
    in_unique_range: bool  # 0 <= rho < t/s
    extensions: tuple[int, ...]
    completions: tuple[tuple[int, ...], ...]
    unique_completion: Optional[bool]


def extendability_audit(gq: GQ, members: Iterable[int]) -> AuditReport:
    """Extension witnesses and full ovoid completions of a partial ovoid."""
    members = tuple(sorted(int(i) for i in members))
    if not check_partial_ovoid(gq, members):
        raise GQError("not a partial ovoid")
    s, t = gq.s, gq.t
    rho = s * t - len(members)
    in_range = 0 <= rho * s < t  # rho < t/s without integer division
    ext = extension_bits(gq, members)
    witnesses = []
    m = ext
    while m:
        low = m & -m
        witnesses.append(low.bit_length() - 1)
        m ^= low
    ovoid_size = s * t + 1
    completions: list[tuple[int, ...]] = []

    def leaf(chosen: list[int], cands: int) -> bool:
        completions.append(tuple(sorted(members + tuple(chosen))))
        return False

    if len(members) <= ovoid_size:
        _walk(gq.collinear_bits, ovoid_size - len(members), leaf, cands=ext)
    completions.sort()
    return AuditReport(
        size=len(members),
        rho=rho,
        in_unique_range=in_range,
        extensions=tuple(witnesses),
        completions=tuple(completions),
        unique_completion=(len(completions) == 1) if in_range else None,
    )


def check_unique_completion_exhaustive(
    gq: GQ, root_fix: int = 0
) -> tuple[int, list[tuple[int, ...]]]:
    """Walk every partial ovoid of size s*t through the pinned root and
    verify each has exactly one extension point.

    Returns the number of sets checked and any counterexamples.
    """
    checked = 0
    failures: list[tuple[int, ...]] = []

    def leaf(chosen: list[int], cands: int) -> bool:
        nonlocal checked
        checked += 1
        if cands.bit_count() != 1:
            failures.append(tuple(chosen))
        return False

    _walk(gq.collinear_bits, gq.s * gq.t, leaf, (root_fix,))
    return checked, failures
