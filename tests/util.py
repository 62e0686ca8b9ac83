"""Shared helpers for the test suite: graph sampling, exhaustive enumeration,
random chain growth, the substitution construction, and the all-pairs
closure scan that ``find_homogeneous_set`` must agree with."""

from __future__ import annotations

import random

from primewitness.graphs import Graph, bits


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, rows)


def random_prime_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    from primewitness.homogeneous import is_prime

    while True:
        g = random_graph(rng, n, p)
        if is_prime(g):
            return g


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


def random_chain(rng: random.Random, g: Graph, length: int) -> tuple[int, ...] | None:
    """Grow one random valid chain of the requested length, or None."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    seq = verts[:2]
    used = (1 << seq[0]) | (1 << seq[1])
    while len(seq) <= length:
        last = seq[-1]
        cands = []
        for v in range(g.n):
            if (used >> v) & 1:
                continue
            nb = g.rows[v] & used
            if nb == 1 << last or (used & ~g.rows[v]) == 1 << last:
                cands.append(v)
        if not cands:
            return None
        v = rng.choice(cands)
        seq.append(v)
        used |= 1 << v
    return tuple(seq)


def sample_chain(rng: random.Random, length: int, tries: int = 200) -> tuple[Graph, tuple[int, ...]]:
    """A random (graph, chain) pair with the chain of exactly this length."""
    while True:
        n = rng.randrange(length + 1, length + 6)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        for _ in range(tries):
            seq = random_chain(rng, g, length)
            if seq is not None:
                return g, seq


def substitute(g: Graph, v: int, h: Graph) -> Graph:
    """Replace vertex v of g by a copy of h (every h-vertex inherits v's
    outside adjacencies)."""
    outer = [w for w in range(g.n) if w != v]
    n = len(outer) + h.n
    edges = []
    pos = {w: i for i, w in enumerate(outer)}
    for a, b in g.edges():
        if v not in (a, b):
            edges.append((pos[a], pos[b]))
    for i, w in enumerate(outer):
        if g.adjacent(v, w):
            for k in range(h.n):
                edges.append((pos[w], len(outer) + k))
    for a, b in h.edges():
        edges.append((len(outer) + a, len(outer) + b))
    return Graph.from_edges(n, edges)


def lex_first_closure(g: Graph) -> frozenset[int] | None:
    """Reference for ``find_homogeneous_set``: close every seed pair in
    lexicographic order and return the first closure that is not all of V."""
    from primewitness.homogeneous import closure

    full = g.vertex_mask()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            s = closure(g, (1 << u) | (1 << v))
            if s != full:
                return frozenset(bits(s))
    return None
