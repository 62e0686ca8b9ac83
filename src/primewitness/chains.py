"""Chains: validation, constructive search, the prime-chain criterion, and
trimming.

A chain is a sequence of distinct vertices in which every vertex's immediate
predecessor is its unique neighbor or its unique non-neighbor among all
predecessors; its length is its number of steps, one less than its vertices.
Chains certify primeness reachability: a chain from a two-vertex set I to v
exists exactly when no homogeneous set contains I while excluding v.  The
search takes the lexicographically least shortest path in the auxiliary
digraph of that equivalence's constructive proof, read off the levels of
``homogeneous._reach``, the same breadth-first search that computes seeded
closures: a backward pass keeps the vertices of each level with a path to
the target, and a forward pass takes the lowest of them at each level.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, bits, mask_of
from .homogeneous import _reach


def validate_chain(
    g: Graph, seq: Sequence[int], source_set: Iterable[int] | None = None
) -> tuple[bool, int | None]:
    """Check the chain invariants; on failure return (False, first bad index).

    With ``source_set`` I given, additionally require length >= 2, the first
    two vertices in I, and the rest outside I.
    """
    if len(set(seq)) != len(seq):
        raise ValueError("chain vertices must be distinct")
    for v in seq:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")

    if source_set is not None:
        imask = mask_of(source_set)
        if len(seq) < 3:
            return False, len(seq) - 1
        for idx in (0, 1):
            if not (imask >> seq[idx]) & 1:
                return False, idx
        for idx in range(2, len(seq)):
            if (imask >> seq[idx]) & 1:
                return False, idx

    rows = g.rows
    pred = 0
    for idx, v in enumerate(seq):
        if idx:
            prev_bit = 1 << seq[idx - 1]
            nb = rows[v] & pred
            if nb != prev_bit and (pred & ~rows[v]) != prev_bit:
                return False, idx
        pred |= 1 << v
    return True, None


def _chain_from_levels(
    g: Graph, imask: int, complete: int, levels: Sequence[int], target: int
) -> tuple[int, ...]:
    """The chain from I to ``target``, a vertex of the last of ``levels``,
    read off ``_reach``'s search: the lexicographically least shortest path
    to the target, after the lowest neighbor and the lowest non-neighbor in
    I of its first vertex."""
    rows = g.rows
    # backward: the vertices of each level with a path to the target; the
    # predecessors of y are its neighbors, or its non-neighbors when y is
    # complete to I
    ahead = [1 << target]
    for level in reversed(levels[:-1]):
        preds = 0
        for y in bits(ahead[-1]):
            preds |= ~rows[y] if (complete >> y) & 1 else rows[y]
        ahead.append(level & preds)
    # forward: at each level the lowest of them the path so far reaches
    path = []
    succ = -1
    for good in reversed(ahead):
        good &= succ
        x = (good & -good).bit_length() - 1
        path.append(x)
        succ = rows[x] ^ complete
    w1 = path[0]
    neighbors = rows[w1] & imask
    non_neighbors = imask & ~rows[w1]
    v0 = (neighbors & -neighbors).bit_length() - 1
    v1 = (non_neighbors & -non_neighbors).bit_length() - 1
    chain = (v0, v1, *path)
    ok, bad = validate_chain(g, chain, source_set=bits(imask))
    assert ok, f"constructed chain violates the chain rule at index {bad}"
    return chain


def find_chain(g: Graph, source_set: Iterable[int], target: int) -> tuple[int, ...] | None:
    """Shortest chain from ``source_set`` to ``target``, or None.

    None is returned exactly when some homogeneous set contains the source
    set but not the target.  Otherwise the chain is the lexicographically
    least shortest path to the target in the auxiliary digraph, after the
    lowest-index neighbor and the lowest-index non-neighbor in I of its
    first vertex.
    """
    imask = mask_of(source_set)
    if imask.bit_count() < 2:
        raise ValueError("source set needs at least two vertices")
    if imask >> g.n:
        raise ValueError("source vertex out of range")
    if not 0 <= target < g.n:
        raise ValueError(f"vertex {target} out of range")
    if (imask >> target) & 1:
        raise ValueError("target must lie outside the source set")

    complete, levels = _reach(g, imask)
    for k, level in enumerate(levels):
        if (level >> target) & 1:
            return _chain_from_levels(g, imask, complete, levels[:k + 1], target)
    return None


def chain_induces_prime(g: Graph, seq: Sequence[int]) -> bool:
    """Prime-chain criterion for a valid chain of length >= 3.

    True iff each of the first two vertices has, within the chain, a neighbor
    other than the second-to-last vertex and a non-neighbor other than the
    second-to-last vertex.  Equivalent to primality of the induced subgraph.
    """
    if len(seq) - 1 < 3:
        raise ValueError("criterion needs a chain of length at least 3")
    ok, bad = validate_chain(g, seq)
    if not ok:
        raise ValueError(f"not a chain (rule fails at index {bad})")
    return _induces_prime(g, seq)


def _induces_prime(g: Graph, seq: Sequence[int]) -> bool:
    """``chain_induces_prime`` for a sequence the caller knows is a chain of
    length >= 3, without validating it."""
    rows = g.rows
    chain = mask_of(seq) & ~(1 << seq[-2])
    for u in seq[:2]:
        others = chain & ~(1 << u)
        if not (rows[u] & others and others & ~rows[u]):
            return False
    return True


def trim_chain_to_prime(g: Graph, seq: Sequence[int]) -> tuple[int, ...]:
    """Sub-chain of length t-1 whose induced subgraph is prime (t > 3).

    Dropping either of the first two vertices always leaves a chain; the trim
    guarantee says one of the two induces a prime subgraph.  (The guarantee's
    proof also complements the graph, but the prime-chain criterion is
    complement-invariant, so the two drops cover all four normalizations.)
    """
    if len(seq) - 1 <= 3:
        raise ValueError("trimming needs a chain of length greater than 3")
    ok, bad = validate_chain(g, seq)
    if not ok:
        raise ValueError(f"not a chain (rule fails at index {bad})")
    for cand in (tuple(seq[1:]), (seq[0], *seq[2:])):
        if _induces_prime(g, cand):
            return cand
    raise AssertionError("no prime trim exists; this contradicts the trim guarantee")
