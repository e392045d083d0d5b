"""Backtracking searches for maximal partial ovoids.

Every search runs over a universe of self-inclusive adjacency bitsets, so
choosing an element removes its own row from the candidates: the points
of a verified quadrangle (``gq.collinear_bits``), or the antipode pairs
across a grid subquadrangle (``PairedUniverse.conflicts``).  One
depth-first walker, ``_walk``, serves every search and audit, and it
branches in one of two ways, fixed by its input:

* given per-line option masks it solves an exact cover.  A partial ovoid
  of size q^2 - 1 misses exactly the 2(q+1) lines of its grid, so it puts
  one member on every other line.  The paired search therefore covers the
  off-grid lines exactly once with antipode pairs, branching on the open
  line with the fewest live options (Knuth's Algorithm X over bitsets).
  Every such cover is maximal, and the size is fixed by the grid.
* otherwise it extends a start prefix in ascending index order, as the
  point-level searches and audits do; their first witness is the
  lexicographically first.

Reruns are reproducible bit for bit either way.  The partner of an
off-grid point is the unique second point collinear with the whole conic
of grid points collinear with the first; selecting whole pairs keeps
every candidate set antipode closed by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ovoid.gq import GQ, GQError, check_partial_ovoid, extension_bits

# leaf(chosen, candidates) -> True to stop the walk
Leaf = Callable[[list[int], int], bool]


class SearchError(ValueError):
    """Raised for inconsistent search configurations."""


@dataclass
class SearchConfig:
    target_size: int
    mode: str = "exact_dfs"  # exact_dfs | antipode_paired
    time_budget: Optional[float] = None  # seconds, None is unlimited
    root_fix: Optional[int] = None  # point index (exact) or pair index (paired)


@dataclass
class SearchOutcome:
    status: str  # found | exhausted | timeout
    members: Optional[tuple[int, ...]]
    nodes: int
    elapsed: float

    @property
    def found(self) -> bool:
        return self.status == "found"


# ----------------------------------------------------------------------
# the walker
# ----------------------------------------------------------------------

def _least_covered(holders: Sequence[int], lines: int, cands: int) -> int:
    """Live options on the open line with the fewest of them, the lowest
    such line on ties; the scan stops at a line with at most one."""
    best, best_n = 0, None
    while lines:
        low = lines & -lines
        lines ^= low
        live = holders[low.bit_length() - 1] & cands
        n = live.bit_count()
        if best_n is None or n < best_n:
            best, best_n = live, n
            if n <= 1:
                break
    return best


def _walk(
    adj: Sequence[int],
    target: int,
    leaf: Leaf,
    prefix: Sequence[int] = (),
    cands: Optional[int] = None,
    deadline: Optional[float] = None,
    holders: Optional[Sequence[int]] = None,
    covers: Optional[Sequence[int]] = None,
) -> tuple[int, bool]:
    """Depth-first walk from ``prefix`` to every set of ``target`` elements.

    Each choice removes its adjacency row from ``cands`` (by default what
    the prefix leaves).  Given per-line option masks (``holders[j]``, the
    options on line j; ``covers[k]``, the lines option k covers), the walk
    is an exact cover of those lines: it branches on the open line with
    the fewest live options.  Without them, elements after the prefix
    come in ascending order, above the prefix's last element.  Each
    full-depth set goes to ``leaf(chosen, cands)``, which returns True to
    stop the walk.  Returns the number of nodes and whether the deadline
    cut the walk short.
    """
    if covers is None:
        covers = (0,) * len(adj)
    full = (1 << len(adj)) - 1
    initial, lines = full, 0
    for mask in covers:
        lines |= mask
    for i in prefix:
        if not 0 <= i < len(adj):
            raise SearchError(f"root {i} out of range 0..{len(adj) - 1}")
        initial &= ~adj[i]
        lines &= ~covers[i]
    if cands is None:
        cands = initial
    chosen = list(prefix)
    nodes = 0
    timed_out = False

    def walk(cands: int, lines: int, last: int) -> bool:
        nonlocal nodes, timed_out
        depth = len(chosen)
        if depth == target:
            return leaf(chosen, cands)
        if holders is None:
            avail, need = cands & (full << (last + 1)), target - depth
        else:
            avail, need = _least_covered(holders, lines, cands), 1
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
            if walk(cands & ~adj[i], lines & ~covers[i], i):
                return True
            chosen.pop()
        return False

    walk(cands, lines, chosen[-1] if chosen else -1)
    return nodes, timed_out


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
    """The antipode pairs across a grid as the options of an exact cover
    whose items are the lines off the grid (see the module docstring)."""

    pairs: tuple[tuple[int, int], ...]
    holders: tuple[int, ...]  # per off-grid line: bitset of the pairs on it
    covers: tuple[int, ...]  # per pair: bitset of the off-grid lines it meets

    @classmethod
    def build(cls, gq: GQ, grid_points: Iterable[int]) -> "PairedUniverse":
        pairs = antipode_pairs(gq, grid_points)
        owner = {p: k for k, ab in enumerate(pairs) for p in ab}
        holders: list[int] = []
        covers = [0] * len(pairs)
        for line in gq.lines:
            mask = 0
            for p in line:
                if p in owner:
                    mask |= 1 << owner[p]
                    covers[owner[p]] |= 1 << len(holders)
            if mask:
                holders.append(mask)
        return cls(tuple(pairs), tuple(holders), tuple(covers))

    def conflicts(self) -> list[int]:
        """Per pair, the pairs sharing a line with it, itself included."""
        rows = []
        for lines in self.covers:
            row = 0
            while lines:
                low = lines & -lines
                lines ^= low
                row |= self.holders[low.bit_length() - 1]
            rows.append(row)
        return rows


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------

def search_maximal(
    gq: GQ, cfg: SearchConfig, grid_points: Optional[Iterable[int]] = None
) -> SearchOutcome:
    """Search for a maximal partial ovoid of exactly the target size.

    ``exact_dfs`` walks points in ascending order; ``antipode_paired``
    covers the lines off ``grid_points`` exactly once with antipode pairs,
    which fixes the size at (off-grid lines) / (t + 1) = q^2 - 1.
    """
    if cfg.target_size < 1 or cfg.target_size > gq.num_points:
        raise SearchError(f"target size {cfg.target_size} out of range")
    holders = covers = None
    if cfg.mode == "exact_dfs":
        adj, target = gq.collinear_bits, cfg.target_size
        units: Sequence[tuple[int, ...]] = [(i,) for i in range(gq.num_points)]
    elif cfg.mode == "antipode_paired":
        if grid_points is None:
            raise SearchError("antipode_paired mode needs a grid subquadrangle")
        uni = PairedUniverse.build(gq, grid_points)
        size = len(uni.holders) // (gq.t + 1)
        if cfg.target_size != size:
            raise SearchError(
                f"a paired search over this grid finds sets of size {size}, "
                f"not {cfg.target_size}"
            )
        adj, target, units = uni.conflicts(), size // 2, uni.pairs
        holders, covers = uni.holders, uni.covers
    else:
        raise SearchError(f"unknown search mode {cfg.mode!r}")

    witness: list[tuple[int, ...]] = []

    def leaf(chosen: list[int], cands: int) -> bool:
        if cands == 0:  # maximal; an exact cover leaves no live option
            witness.append(tuple(sorted(p for i in chosen for p in units[i])))
            return True
        return False

    prefix = () if cfg.root_fix is None else (cfg.root_fix,)
    start = time.monotonic()
    deadline = None if cfg.time_budget is None else start + cfg.time_budget
    nodes, timed_out = _walk(
        adj, target, leaf, prefix, deadline=deadline, holders=holders, covers=covers
    )
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
