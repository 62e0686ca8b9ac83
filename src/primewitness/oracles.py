"""Independent oracles shared by ``primewitness verify`` and the test suite:
exhaustive and seeded random graph sampling, and a plain induced-copy search
that uses none of the fast search's filters."""

from __future__ import annotations

import random

from .graphs import Graph


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
