import itertools
import random

import pytest

from primewitness.families import Family, FamilyId, generate
from primewitness.graphs import Graph, complement, mask_of
from primewitness.homogeneous import _reach, closure, find_homogeneous_set, is_prime
from primewitness.oracles import brute_force_homogeneous, is_homogeneous_set

from util import (
    all_graphs, lex_first_closure, random_graph, reference_closure, reference_depths, substitute,
)


def test_cycle4_homogeneous_sets():
    sets = brute_force_homogeneous(Graph.cycle(4))
    assert sorted(map(sorted, sets)) == [[0, 2], [1, 3]]


def test_path4_has_none():
    assert brute_force_homogeneous(Graph.path(4)) == []
    assert find_homogeneous_set(Graph.path(4)) is None
    assert is_prime(Graph.path(4))


def test_edgeless_four_all_small_subsets():
    sets = brute_force_homogeneous(Graph.empty(4))
    assert len(sets) == 6 + 4  # every 2-subset and 3-subset
    assert all(2 <= len(s) <= 3 for s in sets)


def test_find_returns_a_valid_set():
    g = Graph.cycle(4)
    s = find_homogeneous_set(g)
    assert s is not None and is_homogeneous_set(g, s)
    h5s = generate(FamilyId(Family.HALF_SPLIT, 5)).graph
    s = find_homogeneous_set(h5s)
    assert s is not None and is_homogeneous_set(h5s, s)
    # {a5, b5} is one valid answer for the half split
    assert is_homogeneous_set(h5s, {4, 9})


def test_complete_graph_not_prime():
    assert not is_prime(Graph.complete(3))
    assert frozenset({0, 1}) in set(map(frozenset, brute_force_homogeneous(Graph.complete(3))))


def test_thin_spider_prime():
    g = generate(FamilyId(Family.THIN_SPIDER, 4)).graph
    assert is_prime(g)


def test_small_graph_convention():
    for n in range(3):
        g = Graph.empty(n)
        assert not is_prime(g)
    # three-vertex graphs are never prime
    for g in all_graphs(3):
        assert not is_prime(g)


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_homogeneous(Graph.empty(21))


def test_agreement_exhaustive_up_to_five():
    for n in range(6):
        for g in all_graphs(n):
            assert (find_homogeneous_set(g) is None) == (not brute_force_homogeneous(g))


def test_pivot_primality_matches_lexicographic_search():
    rng = random.Random(10)
    graphs = [
        random_graph(rng, rng.randrange(4, 12), rng.choice([0.2, 0.5, 0.8]))
        for _ in range(300)
    ]
    # a module at the top indices, as the prime-gnp benchmark plants it, puts
    # the first proper closure behind pivots whose pairs all close to V
    for _ in range(200):
        host = random_graph(rng, rng.randrange(3, 10))
        module = random_graph(rng, rng.randrange(2, 6))
        graphs.append(substitute(host, rng.randrange(host.n), module))
    for g in graphs:
        assert is_prime(g) == (find_homogeneous_set(g) is None)
        assert find_homogeneous_set(g) == lex_first_closure(g)


def test_closure_matches_round_based_reference():
    rng = random.Random(14)
    for _ in range(400):
        n = rng.randrange(0, 31)
        g = random_graph(rng, n, rng.uniform(0.05, 0.95))
        # every seed size, the empty and single-vertex seeds included
        for size in range(n + 1):
            seed = mask_of(rng.sample(range(n), size))
            assert closure(g, seed) == reference_closure(g, seed), (g.rows, seed)


def test_reach_levels_are_the_reference_depth_classes():
    # the closure and both chain readers rely on exact levels: level d holds
    # the vertices at depth d of the per-vertex auxiliary-digraph search
    rng = random.Random(22)
    cases = 0
    for _ in range(300):
        n = rng.randrange(3, 16)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        for size in (2, 3):
            for seed in itertools.combinations(range(n), size):
                imask = mask_of(seed)
                depth = reference_depths(g, imask)
                expected = [0] * max(depth.values(), default=0)
                for t, d in depth.items():
                    expected[d - 1] |= 1 << t
                outside = [w for w in range(n) if w not in seed]
                complete = mask_of(w for w in outside if all(g.adjacent(w, v) for v in seed))
                assert _reach(g, imask) == (complete, expected), (g.rows, seed)
                cases += 1
    assert cases > 50_000


def test_complement_invariance():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 10))
        assert is_prime(g) == is_prime(complement(g))


def test_found_sets_always_valid():
    rng = random.Random(12)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(2, 12), rng.choice([0.15, 0.5, 0.85]))
        s = find_homogeneous_set(g)
        if s is not None:
            assert is_homogeneous_set(g, s)


def test_substitution_always_non_prime():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 7))
        h = random_graph(rng, rng.randrange(2, 6))
        v = rng.randrange(g.n)
        blown = substitute(g, v, h)
        assert not is_prime(blown)
        # the copy of h is itself a homogeneous candidate
        assert is_homogeneous_set(blown, range(g.n - 1, g.n - 1 + h.n)) or blown.n == h.n
