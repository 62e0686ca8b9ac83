"""Homogeneous-set detection and primality.

A set X with 2 <= |X| < n is homogeneous when every vertex outside X is
complete or anticomplete to X; a graph is prime when no such set exists.
The workhorse is the seeded closure: the smallest set containing a given
vertex pair that no outside vertex is mixed on.  The closure is the unique
minimal candidate containing that pair, so a graph is prime exactly when
every pair closes to the whole vertex set.  One bitset breadth-first search,
``_reach``, computes it level by level: what it adds to a seed I is what the
auxiliary digraph of the chain lemma reaches from I, and ``chains`` reads
its chains off the same search's levels.

One search answers both questions.  ``find_homogeneous_set`` returns the
closure of the lexicographically least pair that closes to a proper set, a
contract the golden witness corpus relies on, and ``is_prime`` is that search
coming back empty.
"""

from __future__ import annotations

import heapq

from .graphs import Graph, bits


def _reach(g: Graph, imask: int) -> tuple[int, list[int]]:
    """The outside vertices complete to ``imask``, and the breadth-first
    levels, as bitmasks, of the auxiliary digraph's search from I.

    Arcs run from I to every vertex mixed on I, and from x to y when y is
    unmixed on I but mixed on I+{x}.  Level 1 is the set mixed on I and each
    later level what the previous one reaches for the first time; together
    they are the vertices the seeded closure absorbs, and by the chain lemma
    the targets of chains from I, a vertex of level d at the end of a chain
    of length d + 1.  The search stops once no outside vertex is unseen.
    """
    rows = g.rows
    outside = g.vertex_mask() & ~imask
    union = 0
    complete = outside
    for v in bits(imask):
        union |= rows[v]
        complete &= rows[v]
    level = union & outside & ~complete
    # an unmixed y is reached from x when x~y differs from y's view of I,
    # which is complete's bit at y
    unseen = outside
    levels = []
    while level:
        levels.append(level)
        unseen ^= level
        if not unseen:
            break
        reached = 0
        for x in bits(level):
            reached |= rows[x] ^ complete
        level = unseen & reached
    return complete, levels


def closure(g: Graph, seed_mask: int) -> int:
    """The minimal homogeneous-candidate set containing ``seed_mask``: no
    outside vertex is mixed on it.  A proper result is a homogeneous set;
    the full vertex set means none contains the seed."""
    for level in _reach(g, seed_mask)[1]:
        seed_mask |= level
    return seed_mask


def find_homogeneous_set(g: Graph) -> frozenset[int] | None:
    """The closure of the lexicographically least seed pair (u, v), u < v,
    whose closure is not the whole vertex set; None when there is none.

    This is the set an all-pairs scan in lexicographic pair order returns,
    and callers may rely on it: outputs are pinned byte for byte.  The search
    is pivot refinement.  Each cell is split at its least vertex p after the
    pairs (p, w), w in the cell, are closed in increasing w.  When they all
    close to V, no homogeneous set contains p: one that also held a vertex
    outside the cell would hold the earlier pivot that split the two apart.
    A homogeneous set avoiding p is uniform to it, so it lies inside one side
    of p's neighborhood split.  Cells are taken in increasing order of their
    least vertex, so pivots come in increasing order and the first proper
    closure met is the lexicographically first one.  On a prime graph the
    cells, and so the closures, do not depend on the order.
    """
    full = g.vertex_mask()
    rows = g.rows
    heap = [(full & -full, full)] if full.bit_count() >= 2 else []
    while heap:
        low, cell = heapq.heappop(heap)
        p = low.bit_length() - 1
        rest = cell ^ low
        for w in bits(rest):
            s = closure(g, low | (1 << w))
            if s != full:
                return frozenset(bits(s))
        for sub in (rest & rows[p], rest & ~rows[p]):
            if sub.bit_count() >= 2:
                heapq.heappush(heap, (sub & -sub, sub))
    return None


def is_prime(g: Graph) -> bool:
    """True iff the graph has no homogeneous set.

    Graphs on <= 2 vertices satisfy the definition vacuously; this library
    reports them non-prime, since the structural results it implements all
    start at 3 vertices.
    """
    if g.n <= 2:
        return False
    return find_homogeneous_set(g) is None
