"""Independent oracles shared by ``primewitness verify`` and the test suite:
exhaustive and seeded random graph sampling, the homogeneous-set test and the
brute-force subset scan built on it, a plain induced-copy search with no
filters, and the sweeps that count disagreements with brute force."""

from __future__ import annotations

import random
from typing import Iterable

from . import chains, homogeneous
from .graphs import Graph, bits, mask_of

BRUTE_FORCE_LIMIT = 20


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if (code >> b) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(n, rows)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """G(n, p): one ``rng.random()`` draw per vertex pair, column by column."""
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def _homogeneous(g: Graph, mask: int) -> bool:
    """Whether the vertex set ``mask`` is a homogeneous set of ``g``."""
    if not 2 <= mask.bit_count() < g.n:
        return False
    rows = g.rows
    for w in bits(g.vertex_mask() & ~mask):
        x = rows[w] & mask
        if x and x != mask:
            return False
    return True


def is_homogeneous_set(g: Graph, members) -> bool:
    """Check the homogeneous-set invariant for an explicit vertex set."""
    return _homogeneous(g, mask_of(members))


def brute_force_homogeneous(g: Graph) -> list[frozenset[int]]:
    """All homogeneous sets by scanning every vertex subset.  n <= 20."""
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices, got {g.n}")
    return [frozenset(bits(m)) for m in range(3, g.vertex_mask()) if _homogeneous(g, m)]


def naive_induced_search(host: Graph, pat: Graph) -> bool:
    """Whether ``host`` has an induced copy of ``pat``: a second strategy
    with a static pattern order and no candidate filters."""
    if pat.n > host.n:
        return False

    assign = [-1] * pat.n

    def rec(k: int, used: int) -> bool:
        if k == pat.n:
            return True
        for v in range(host.n):
            if (used >> v) & 1:
                continue
            ok = True
            for q in range(k):
                if pat.adjacent(k, q) != host.adjacent(v, assign[q]):
                    ok = False
                    break
            if ok:
                assign[k] = v
                if rec(k + 1, used | (1 << v)):
                    return True
        return False

    return rec(0, 0)


def primality_sweep(graphs: Iterable[Graph]) -> tuple[int, int, int]:
    """``(checked, disagreements, prime)`` over ``graphs``: whether
    ``find_homogeneous_set`` finds no set, against brute-force enumeration of
    the homogeneous sets; ``prime`` counts the graphs both call prime."""
    checked = bad = prime = 0
    for g in graphs:
        checked += 1
        fast = homogeneous.find_homogeneous_set(g) is None
        brute = not brute_force_homogeneous(g)
        if fast != brute:
            bad += 1
        elif fast:
            prime += 1
    return checked, bad, prime


def chain_sweep(graphs: Iterable[Graph]) -> tuple[int, int]:
    """``(checked, disagreements)`` over every graph, pair u < v and target w
    outside it: ``find_chain`` from (u, v) must reach w exactly when no
    homogeneous set holds u and v but not w."""
    checked = bad = 0
    for g in graphs:
        homsets = brute_force_homogeneous(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                for w in range(g.n):
                    if w in (u, v):
                        continue
                    checked += 1
                    found = chains.find_chain(g, (u, v), w) is not None
                    separated = any(u in s and v in s and w not in s for s in homsets)
                    if found == separated:
                        bad += 1
    return checked, bad
