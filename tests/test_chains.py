import itertools
import random

import pytest

from primewitness.chains import (
    chain_induces_prime,
    find_chain,
    trim_chain_to_prime,
    validate_chain,
)
from primewitness.graphs import Graph, induced_subgraph
from primewitness.homogeneous import is_prime
from primewitness.oracles import brute_force_homogeneous

from util import all_graphs, random_graph, random_prime_graph, reference_chain, sample_chain


def fig3_hosts():
    """The two classic non-prime graphs induced by chains (10 vertices,
    natural order is the chain)."""
    g1 = Graph.from_edges(
        10,
        [(i, i + 1) for i in range(1, 7)] + [(8, y) for y in range(7)] + [(8, 9)],
    )
    g2 = Graph.from_edges(10, [(i, i + 1) for i in range(1, 9)])
    return g1, g2


def test_path_order_is_a_chain():
    p4 = Graph.path(4)
    assert validate_chain(p4, (0, 1, 2, 3)) == (True, None)
    assert validate_chain(p4, (0, 1, 2, 3), source_set={0, 1}) == (True, None)


def test_violating_index_reported():
    p4 = Graph.path(4)
    ok, idx = validate_chain(p4, (0, 2, 1, 3))
    assert not ok and idx == 2


def test_source_set_clauses():
    p4 = Graph.path(4)
    # chains from a set need length >= 2
    ok, _ = validate_chain(p4, (0, 1), source_set={0, 1})
    assert not ok
    ok, idx = validate_chain(p4, (0, 2, 1, 3), source_set={0, 1})
    assert not ok and idx == 1  # second vertex outside the set
    ok, idx = validate_chain(p4, (0, 1, 2, 3), source_set={0, 1, 2})
    assert not ok and idx == 2  # later vertex inside the set


def test_validate_rejects_bad_vertices():
    p4 = Graph.path(4)
    with pytest.raises(ValueError):
        validate_chain(p4, (0, 1, 1))
    with pytest.raises(ValueError):
        validate_chain(p4, (0, 9))


def test_find_chain_on_path():
    p4 = Graph.path(4)
    c = find_chain(p4, (0, 1), 3)
    # deterministic tie-break: lowest-index neighbor of the first mixed
    # vertex comes first, so (1, 0, 2, 3) rather than the path order
    assert c == (1, 0, 2, 3)
    assert validate_chain(p4, c, source_set={0, 1}) == (True, None)
    assert validate_chain(p4, (0, 1, 2, 3), source_set={0, 1}) == (True, None)


def test_find_chain_blocked_by_homogeneous_set():
    c4 = Graph.cycle(4)
    assert find_chain(c4, (0, 2), 1) is None


def test_find_chain_preconditions():
    p4 = Graph.path(4)
    with pytest.raises(ValueError):
        find_chain(p4, (0,), 3)
    with pytest.raises(ValueError):
        find_chain(p4, (0, 1), 1)
    with pytest.raises(ValueError):
        find_chain(p4, (0, 4), 2)


def test_prime_graphs_reach_everything():
    rng = random.Random(20)
    for _ in range(20):
        g = random_prime_graph(rng, rng.randrange(5, 9))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                for w in range(g.n):
                    if w in (u, v):
                        continue
                    c = find_chain(g, (u, v), w)
                    assert c is not None and c[-1] == w


def test_equivalence_with_brute_force_small():
    for n in range(3, 6):
        for g in all_graphs(n):
            homsets = brute_force_homogeneous(g)
            for u in range(n):
                for v in range(u + 1, n):
                    for w in range(n):
                        if w in (u, v):
                            continue
                        separated = any(u in s and v in s and w not in s for s in homsets)
                        assert (find_chain(g, (u, v), w) is None) == separated


def test_larger_source_sets():
    rng = random.Random(21)
    for _ in range(100):
        g = random_graph(rng, 8)
        homsets = brute_force_homogeneous(g)
        members = tuple(rng.sample(range(8), 3))
        target = rng.choice([v for v in range(8) if v not in members])
        separated = any(
            set(members) <= s and target not in s for s in homsets
        )
        c = find_chain(g, members, target)
        assert (c is None) == separated
        if c is not None:
            assert validate_chain(g, c, source_set=members) == (True, None)


def test_find_chain_matches_reference_parents():
    rng = random.Random(24)
    found = missing = 0
    for _ in range(120):
        g = random_graph(rng, rng.randrange(2, 13), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        sources = itertools.chain.from_iterable(
            itertools.combinations(range(g.n), k) for k in (2, 3, 4)
        )
        for source in sources:
            for target in range(g.n):
                if target in source:
                    continue
                chain = find_chain(g, source, target)
                assert chain == reference_chain(g, source, target), (g.rows, source, target)
                if chain is None:
                    missing += 1
                else:
                    found += 1
    assert found and missing


def test_chain_induces_prime_on_path():
    p4 = Graph.path(4)
    assert chain_induces_prime(p4, (0, 1, 2, 3))


def test_fig3_chains_are_not_prime():
    for g in fig3_hosts():
        seq = tuple(range(10))
        assert validate_chain(g, seq) == (True, None)
        assert not chain_induces_prime(g, seq)
        assert not is_prime(g)


def assert_criterion_matches_primality(g, seq) -> bool:
    """Cross-check: criterion verdict equals primality of the induced subgraph."""
    sub, _ = induced_subgraph(g, seq)
    return chain_induces_prime(g, seq) == is_prime(sub)


def test_criterion_equals_primality():
    rng = random.Random(22)
    for _ in range(500):
        g, seq = sample_chain(rng, rng.randrange(3, 9))
        assert assert_criterion_matches_primality(g, seq)


def test_criterion_preconditions():
    p4 = Graph.path(4)
    with pytest.raises(ValueError):
        chain_induces_prime(p4, (0, 1, 2))
    with pytest.raises(ValueError):
        chain_induces_prime(p4, (0, 2, 1, 3))


def test_trim_path5():
    p5 = Graph.path(5)
    out = trim_chain_to_prime(p5, (0, 1, 2, 3, 4))
    assert len(out) == 4
    sub, _ = induced_subgraph(p5, out)
    assert is_prime(sub)


def test_trim_fig3_chains():
    for g in fig3_hosts():
        out = trim_chain_to_prime(g, tuple(range(10)))
        assert len(out) == 9
        assert chain_induces_prime(g, out)


def test_trim_repeatedly():
    rng = random.Random(23)
    for _ in range(50):
        g, seq = sample_chain(rng, 8)
        while len(seq) - 1 > 3:
            seq = trim_chain_to_prime(g, seq)
            assert chain_induces_prime(g, seq)


def test_trim_preconditions():
    p4 = Graph.path(4)
    with pytest.raises(ValueError):
        trim_chain_to_prime(p4, (0, 1, 2, 3))


def _all_chains(g: Graph, length: int):
    """Every valid chain of exactly this length in g, by rule-driven DFS."""
    out = []

    def extend(seq: tuple[int, ...], used: int):
        if len(seq) == length + 1:
            out.append(seq)
            return
        last = seq[-1]
        for v in range(g.n):
            if (used >> v) & 1:
                continue
            nb = g.rows[v] & used
            if nb == 1 << last or (used & ~g.rows[v]) == 1 << last:
                extend(seq + (v,), used | (1 << v))

    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                extend((u, v), (1 << u) | (1 << v))
    return out


def test_exhaustive_criterion_and_trim_on_small_graphs():
    # every chain in every graph on <= 5 vertices: the criterion matches
    # primality of the induced subgraph, and every length-4 chain trims
    for n in range(4, 6):
        for g in all_graphs(n):
            for seq in _all_chains(g, 3):
                sub, _ = induced_subgraph(g, seq)
                assert chain_induces_prime(g, seq) == is_prime(sub)
            if n == 5:
                for seq in _all_chains(g, 4):
                    out = trim_chain_to_prime(g, seq)
                    assert len(out) == 4 and chain_induces_prime(g, out)
