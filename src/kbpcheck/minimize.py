"""Exact two-level minimization: Quine-McCluskey primes + Petrick cover.

Inputs are ON-set and DC-set minterm indices over n bits (n <= 16).  Cubes are
tuples over {0, 1, 2} with 2 = don't care, position i for bit i.  Inside, a
cube is an int pair ``(value, mask)`` with the don't-care bits in ``mask``;
minterm ``m`` lies in it iff ``m & ~mask == value``.  Only cubes with the same
mask merge: ``v`` merges on free bit ``b`` if ``v & b == 0`` and ``v | b`` is
in that mask's value set.  Exactness is required (the result covers the
ON-set and stays inside ON+DC); minimality is best-effort — Petrick is exact
for the residual after essential primes, with a greedy fallback if it blows up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, List, Optional, Sequence, Set, Tuple

Cube = Tuple[int, ...]

MAX_BITS = 16


def int_to_bits(x: int, n: int) -> Cube:
    return tuple((x >> i) & 1 for i in range(n))


def cube_covers(cube: Cube, minterm: Cube) -> bool:
    return all(c == 2 or c == m for c, m in zip(cube, minterm))


def prime_implicants(n: int, on: Sequence[int], dc: Sequence[int] = ()) -> List[Cube]:
    """All prime implicants of ON+DC that cover at least one ON minterm."""
    if n > MAX_BITS:
        raise ValueError(f"too many inputs for exact minimization ({n} > {MAX_BITS})")
    level = {0: set(on) | set(dc)}  # mask -> values of the cubes at this level
    primes = []
    while level:
        nxt = defaultdict(set)
        for mask, values in level.items():
            merged = set()
            for b in (1 << i for i in range(n) if not (mask >> i) & 1):
                for v in values:
                    if not v & b and v | b in values:
                        nxt[mask | b].add(v)
                        merged.update((v, v | b))
            primes.extend((v, mask) for v in values - merged)
        level = nxt
    on = set(on)
    return sorted(tuple(2 if (mask >> i) & 1 else (v >> i) & 1 for i in range(n))
                  for v, mask in primes if any(m & ~mask == v for m in on))


def _petrick(rows: Sequence[Set[int]], candidates: Sequence[int]) -> Optional[Set[int]]:
    """The first set of ``combinations(candidates, r)``, smallest r first, that
    meets every row: a depth-first search in that order, cutting a branch once
    some uncovered row has no candidate left at or after the next pick."""
    rows = [{candidates.index(c) for c in row} for row in rows]
    last = [max(row) for row in rows]

    def search(start: int, k: int, uncovered: List[int]) -> Optional[List[int]]:
        if not uncovered or not k:
            return None if uncovered else []
        stop = min(min(last[r] for r in uncovered), len(candidates) - k)
        for i in range(start, stop + 1):
            found = search(i + 1, k - 1, [r for r in uncovered if i not in rows[r]])
            if found is not None:
                return [i] + found
        return None

    for k in range(1, len(candidates) + 1):
        found = search(0, k, list(range(len(rows))))
        if found is not None:
            return {candidates[i] for i in found}
    return None


def _greedy(rows: Sequence[Set[int]], candidates: Sequence[int]) -> List[int]:
    """Picks, in order, of the candidate meeting the most rows not yet met
    (the lowest one on a tie), until every row is met."""
    counts = dict.fromkeys(sorted(candidates), 0)
    for row in rows:
        for i in row:
            counts[i] += 1
    picks, left = [], list(rows)
    while left:
        pick = max(counts, key=counts.__getitem__)  # the first maximum is the lowest
        picks.append(pick)
        for row in left:
            if pick in row:
                for i in row:
                    counts[i] -= 1
        left = [row for row in left if pick not in row]
    return picks


def minimize(n: int, on: Sequence[int], dc: Sequence[int] = ()) -> List[Cube]:
    """A minimal (best-effort) prime cover of the ON-set."""
    on = sorted(set(on))
    if not on:
        return []
    if len(on) + len(dc) == 2 ** n:
        return [(2,) * n]
    primes = prime_implicants(n, on, dc)
    # (value, ~mask) per prime: minterm m lies in it iff m & ~mask == value
    pairs = [(sum(c << i for i, c in enumerate(p) if c < 2),
              ~sum(1 << i for i, c in enumerate(p) if c == 2)) for p in primes]
    remaining = [frozenset(i for i, (v, keep) in enumerate(pairs) if m & keep == v)
                 for m in on]

    chosen = set()
    while singles := [next(iter(s)) for s in remaining if len(s) == 1]:
        chosen.update(singles)
        remaining = [s for s in remaining if not (s & chosen)]
    if remaining:
        candidates = sorted(set().union(*remaining))
        best = _petrick(remaining, candidates) if len(candidates) <= 20 else None
        if best is None:
            best = _greedy(remaining, candidates)
        chosen.update(best)
    return [primes[i] for i in sorted(chosen)]


def cubes_semantics(cubes: Iterable[Cube], n: int):
    """Truth function of a cube list, for exactness checks."""
    cubes = list(cubes)

    def fn(minterm: int) -> bool:
        bits = int_to_bits(minterm, n)
        return any(cube_covers(c, bits) for c in cubes)

    return fn
