import itertools
import random

import pytest

from primewitness import extraction as ex
from primewitness.chains import find_chain
from primewitness.families import Family, FamilyId, check_witness, generate
from primewitness.graphs import Graph, complement
from primewitness.homogeneous import is_prime
from primewitness.oracles import is_homogeneous_set
from primewitness.witnesses import ChainWitness, InsufficientSize, NotPrimeError, Witness

from util import check_regular_triple, color_id, random_prime_graph


# ramsey_monochromatic -------------------------------------------------------

def test_constant_coloring():
    col = ex.EdgeColoring.from_function(5, (0, 1), lambda i, j: 0)
    found = ex.ramsey_monochromatic(col, (3, 3))
    assert found is not None
    c, s = found
    assert c == 0 and len(s) == 3


def test_pentagon_has_no_mono_triangle():
    pent = {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]}
    col = ex.EdgeColoring.from_function(
        5, (0, 1), lambda i, j: 0 if frozenset((i, j)) in pent else 1
    )
    assert ex.ramsey_monochromatic(col, (3, 3)) is None


def _first_mono(col: ex.EdgeColoring, targets):
    for c, t in enumerate(targets):
        for sub in itertools.combinations(range(col.m), t):
            if all(color_id(col, i, j) == c for i, j in itertools.combinations(sub, 2)):
                return c, frozenset(sub)
    return None


def test_ramsey_matches_exhaustive_enumeration():
    rng = random.Random(40)
    for _ in range(300):
        m = rng.randrange(3, 8)
        k = rng.choice([2, 3])
        colors = {
            (i, j): rng.randrange(k)
            for i, j in itertools.combinations(range(m), 2)
        }
        col = ex.EdgeColoring.from_function(m, tuple(range(k)), lambda i, j: colors[(i, j)])
        targets = tuple(rng.randrange(2, 5) for _ in range(k))
        found = ex.ramsey_monochromatic(col, targets)
        assert (found is not None) == (_first_mono(col, targets) is not None)
        if found is not None:
            c, s = found
            assert len(s) == targets[c]
            assert all(color_id(col, i, j) == c for i, j in itertools.combinations(sorted(s), 2))


def test_ramsey_returns_lexicographically_first_clique():
    # palette order first, then the first clique in itertools.combinations
    # order; targets of 0, 1 and more than m included
    rng = random.Random(41)
    for _ in range(300):
        m = rng.randrange(0, 10)
        k = rng.choice([1, 2, 3])
        colors = {
            (i, j): rng.randrange(k)
            for i, j in itertools.combinations(range(m), 2)
        }
        col = ex.EdgeColoring.from_function(m, tuple(range(k)), lambda i, j: colors[(i, j)])
        targets = tuple(rng.randrange(0, 7) for _ in range(k))
        assert ex.ramsey_monochromatic(col, targets) == _first_mono(col, targets), (m, colors, targets)


def test_coloring_validates_palette():
    with pytest.raises(ValueError):
        ex.EdgeColoring.from_function(3, (0, 1), lambda i, j: 7)
    col = ex.EdgeColoring.from_function(3, (0, 1), lambda i, j: (i + j) % 2)
    assert [color_id(col, i, j) for i, j in ((0, 1), (2, 0), (1, 2))] == [1, 0, 1]
    for i, j in ((1, 1), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            color_id(col, i, j)


def test_ramsey_three_three_is_six():
    # every 2-coloring of K6 has a monochromatic triangle, and the pentagon
    # coloring of K5 (tested above) shows 6 is tight
    pairs = list(itertools.combinations(range(6), 2))
    for code in range(1 << 15):
        colors = {p: (code >> b) & 1 for b, p in enumerate(pairs)}
        col = ex.EdgeColoring.from_function(6, (0, 1), lambda i, j: colors[(i, j)])
        assert ex.ramsey_monochromatic(col, (3, 3)) is not None


# regular triples ------------------------------------------------------------

def test_grow_on_path_example():
    g = Graph.path(4)
    t = ex.grow_regular_triple(g, ex.RegularTriple.initial([0, 3]))
    assert t.a_set == frozenset({0}) and t.xs == (3,) and t.ys == (1,)
    assert check_regular_triple(g, t)


def test_check_regular_triple_rejects_a_broken_triple():
    # y = 1 is adjacent to x = 2, so it must be anticomplete to A = {0}
    g = Graph.path(4)
    assert not check_regular_triple(g, ex.RegularTriple(frozenset({0}), (2,), (1,)))


def test_growth_preserves_invariants_on_random_primes():
    rng = random.Random(41)
    for _ in range(100):
        g = random_prime_graph(rng, rng.randrange(8, 14))
        s = ex.best_independent_set(g)
        if len(s) < 4:
            continue
        t = ex.RegularTriple.initial(s)
        while len(t.a_set) > 1:
            before = len(t.a_set)
            t = ex.grow_regular_triple(g, t)
            assert len(t.a_set) >= (before + 1) // 2
            assert check_regular_triple(g, t)


def test_growth_count_from_power_of_two():
    # |S| = 2^(k+1) admits k successive growths
    rng = random.Random(42)
    for _ in range(10):
        g = random_prime_graph(rng, 24, 0.25)
        s = sorted(ex.best_independent_set(g))
        k = 3
        if len(s) < (1 << (k + 1)):
            continue
        t = ex.RegularTriple.initial(s[: 1 << (k + 1)])
        for _ in range(k):
            t = ex.grow_regular_triple(g, t)
        assert len(t.xs) == k


def test_grow_preconditions():
    g = Graph.path(4)
    with pytest.raises(ValueError):
        ex.grow_regular_triple(g, ex.RegularTriple.initial([0]))


# the color case split of the independent-set extraction ----------------------

def _triple_graph(k: int, color: tuple[int, int], matched: bool) -> Graph:
    """x_i = i, y_i = k + i, wired so every index pair carries ``color`` and
    every index is matched (case 1) or unmatched (case 2)."""
    a, b = color
    edges = []
    for i in range(k):
        if matched:
            edges.append((i, k + i))
        for j in range(i + 1, k):
            if a:
                edges.append((i, k + j))
            if b:
                edges.append((k + i, k + j))
            if not matched:
                edges.append((k + i, j))
    return Graph.from_edges(2 * k, edges)


@pytest.mark.parametrize(
    "color,matched,sizes,family,size",
    [
        ((0, 0), True, (4, 4, 2), Family.MATCHING, 4),
        ((0, 0), False, (3, 4, 2), Family.HALF_GRAPH, 3),
        ((1, 0), True, (4, 1, 2), Family.HALF_GRAPH, 4),
        ((1, 0), False, (4, 1, 2), Family.COMPL_LINE_K2N, 4),
        ((0, 1), True, (4, 1, 2), Family.THIN_SPIDER, 4),
        ((0, 1), False, (1, 1, 3), Family.HALF_SPLIT, 3),
        ((1, 1), True, (1, 1, 4), Family.HALF_SPLIT, 4),
        ((1, 1), False, (4, 1, 1), Family.THICK_SPIDER, 4),
    ],
)
def test_pair_color_cases(color, matched, sizes, family, size):
    k = 4
    g = _triple_graph(k, color, matched)
    n, n1, n2 = sizes
    w = ex._witness_from_pair_color(
        g, list(range(k)), list(range(k, 2 * k)), list(range(k)), color, n, n1, n2
    )
    assert w.family == FamilyId(family, size)
    assert check_witness(g, w)


def test_extract_from_independent_set_deterministic():
    host = generate(FamilyId(Family.HALF_SPLIT_APEX, 12)).graph
    w = ex.extract_from_independent_set(host, range(12), 2, 2, 2)
    assert w.family == FamilyId(Family.HALF_SPLIT, 2)
    assert check_witness(host, w)


def test_extract_from_independent_set_random_outcomes():
    rng = random.Random(43)
    outcomes = 0
    for _ in range(25):
        g = random_prime_graph(rng, rng.randrange(24, 40), 0.3)
        s = ex.best_independent_set(g)
        try:
            w = ex.extract_from_independent_set(g, s, 2, 2, 2)
        except InsufficientSize as e:
            assert e.stage.startswith("independent-set")
            continue
        assert check_witness(g, w)
        outcomes += 1
    assert outcomes >= 5  # the stage must actually fire at these sizes


def test_extract_from_independent_set_validates_input():
    g = Graph.path(4)
    with pytest.raises(ValueError):
        ex.extract_from_independent_set(g, [0, 1], 1, 1, 1)  # not independent


def test_insufficient_reports_the_four_color_bound():
    # with n = n1 = n2 = 2 the stage needs a triple of length R(4,3,4,3);
    # the reported deficit is the exact multinomial bound for those targets
    c7 = Graph.cycle(7)
    with pytest.raises(InsufficientSize) as e:
        ex.extract_from_independent_set(c7, ex.best_independent_set(c7), 2, 2, 2)
    assert e.value.stage == "independent-set:ramsey"
    assert e.value.needed == ex.ramsey_upper_bound((4, 3, 4, 3)) == 25201


# the matching extraction -----------------------------------------------------

def matching_config(m: int, color: tuple[int, int, int]):
    """m matching edges x-y with third vertices z (adjacent to y) and a hub v
    adjacent to every z; index pairs wired to carry exactly ``color``."""
    edges = []
    for i in range(m):
        edges += [(3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2), (3 * i + 2, 3 * m)]
    for i in range(m):
        for j in range(i + 1, m):
            xi, yi, zi = 3 * i, 3 * i + 1, 3 * i + 2
            xj, yj, zj = 3 * j, 3 * j + 1, 3 * j + 2
            if color == (2, 2, 2):
                edges.append((zi, yj))
            elif color == (3, 3, 3):
                edges.append((zj, yi))
            else:
                a, b, c = color
                if a:
                    edges.append((zi, zj))
                if b:
                    edges += [(zi, yj), (zi, xj)]
                if c:
                    edges += [(yi, zj), (xi, zj)]
    g = Graph.from_edges(3 * m + 1, edges)
    matching = [(3 * i, 3 * i + 1) for i in range(m)]
    chains = [(3 * i, 3 * i + 1, 3 * i + 2, 3 * m) for i in range(m)]
    return g, matching, 3 * m, chains


MATCHING_CASE_FAMILIES = {
    (0, 0, 0): Family.SUBDIVIDED_STAR,
    (0, 0, 1): Family.HALF_GRAPH,
    (0, 1, 0): Family.HALF_GRAPH,
    (0, 1, 1): Family.COMPL_LINE_K2N,
    (1, 0, 0): Family.THIN_SPIDER,
    (1, 0, 1): Family.HALF_SPLIT,
    (1, 1, 0): Family.HALF_SPLIT,
    (1, 1, 1): Family.THICK_SPIDER,
    (2, 2, 2): Family.SUBDIVIDED_STAR,
    (3, 3, 3): Family.SUBDIVIDED_STAR,
}


def test_matching_base_case_on_subdivided_star():
    labeled = generate(FamilyId(Family.SUBDIVIDED_STAR, 4))
    g = labeled.graph
    matching = [(i, 4 + i) for i in range(4)]  # leaf-mid edges
    w = ex.extract_from_matching(g, matching, 8, 4, 4, 2)
    assert w.family == FamilyId(Family.SUBDIVIDED_STAR, 4)
    assert check_witness(g, w)


def test_matching_one_color_case():
    g, matching, v, chains = matching_config(4, (1, 0, 0))
    w = ex.extract_from_matching(g, matching, v, 4, 4, 3, chains)
    assert w.family == FamilyId(Family.THIN_SPIDER, 4)
    assert check_witness(g, w)


def test_matching_recursion_color():
    g, matching, v, chains = matching_config(4, (0, 0, 0))
    w = ex.extract_from_matching(g, matching, v, 4, 4, 3, chains)
    assert w.family == FamilyId(Family.SUBDIVIDED_STAR, 4)
    assert check_witness(g, w)


def test_matching_validates_inputs():
    g = Graph.from_edges(5, [(0, 1), (2, 3), (1, 2)])
    with pytest.raises(ValueError):
        ex.extract_from_matching(g, [(0, 1), (2, 3)], 4, 2, 2, 2)  # not induced
    g2 = Graph.from_edges(5, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        ex.extract_from_matching(g2, [(0, 1)], 1, 2, 2, 2)  # v covered
    for bad in ([(0, 1), (1, 2)], [(0, 2)], [(0, 9)], [(0, 0)]):
        # overlapping edges, a non-edge, an out-of-range vertex, a loop
        with pytest.raises(ValueError):
            ex.extract_from_matching(g, bad, 4, 2, 2, 2)
    with pytest.raises(InsufficientSize) as e:
        ex.extract_from_matching(g2, [], 4, 2, 2, 2)
    assert e.value.stage == "matching:base"


def test_matching_insufficient():
    g, matching, v, chains = matching_config(2, (0, 1, 0))
    with pytest.raises(InsufficientSize) as e:
        ex.extract_from_matching(g, matching, v, 4, 4, 3, chains)
    assert e.value.stage.startswith("matching")


# the half-split extraction ---------------------------------------------------

def _half_split_base_edges(n: int):
    return list(generate(FamilyId(Family.HALF_SPLIT, n)).graph.edges())


def test_half_split_apex_case():
    n_host = 19
    host = generate(FamilyId(Family.HALF_SPLIT_APEX, n_host)).graph
    w = ex.extract_from_half_split(host, tuple(range(2 * n_host)), 3)
    assert isinstance(w, Witness)
    assert w.family == FamilyId(Family.HALF_SPLIT_APEX, 3)
    assert check_witness(host, w)


def test_half_split_pendant_case():
    n_host = 19
    host = generate(FamilyId(Family.HALF_SPLIT_PENDANT, n_host)).graph
    w = ex.extract_from_half_split(host, tuple(range(2 * n_host)), 3)
    assert isinstance(w, Witness)
    assert w.family == FamilyId(Family.HALF_SPLIT_PENDANT, 3)
    assert check_witness(host, w)


def test_half_split_complement_pendant_case():
    n_host = 19
    w_vtx = 2 * n_host
    edges = _half_split_base_edges(n_host)
    edges += [(w_vtx, i) for i in range(n_host)]
    edges += [(w_vtx, n_host + j) for j in range(1, n_host - 1)]
    host = Graph.from_edges(2 * n_host + 1, edges)
    assert is_prime(host)
    w = ex.extract_from_half_split(host, tuple(range(2 * n_host)), 3)
    assert isinstance(w, Witness)
    assert w.family == FamilyId(Family.COMPL_HALF_SPLIT_PENDANT, 3)
    assert check_witness(host, w)


def test_half_split_chain_case():
    n_host = 19
    w1, w2 = 2 * n_host, 2 * n_host + 1
    edges = _half_split_base_edges(n_host)
    edges += [(w1, n_host - 1)] + [(w1, n_host + j) for j in range(n_host - 1)]
    edges += [(w2, w1), (w2, 0)]
    host = Graph.from_edges(2 * n_host + 2, edges)
    assert is_prime(host)
    w = ex.extract_from_half_split(host, tuple(range(2 * n_host)), 3)
    assert isinstance(w, ChainWitness)
    assert w.length == 3
    assert check_witness(host, w)
    # the same host at n = 4 falls below the chain threshold and lands in the
    # pendant case instead
    w4 = ex.extract_from_half_split(host, tuple(range(2 * n_host)), 4)
    assert isinstance(w4, Witness)
    assert w4.family == FamilyId(Family.HALF_SPLIT_PENDANT, 4)
    assert check_witness(host, w4)


def test_half_split_interior_collision():
    # the escape chain routes through a half-split vertex (a_7), exercising
    # the index filtering that drops collided columns before the pigeonhole
    n_host = 40
    ustar, w2 = 2 * n_host, 2 * n_host + 1
    edges = _half_split_base_edges(n_host)
    edges += [(ustar, n_host - 1), (ustar, 6)]
    edges += [(ustar, n_host + j) for j in range(n_host - 1)]
    edges += [(w2, 6)]
    host = Graph.from_edges(2 * n_host + 2, edges)
    assert is_prime(host)
    chain = find_chain(host, (n_host - 1, 2 * n_host - 1), n_host)
    assert 6 in chain[2:-1]  # a_7 really is interior to the escape chain
    w = ex.extract_from_half_split(host, tuple(range(2 * n_host)), 5)
    assert isinstance(w, Witness)
    assert w.family == FamilyId(Family.HALF_SPLIT_PENDANT, 5)
    assert check_witness(host, w)


def test_half_split_insufficient_height():
    host = generate(FamilyId(Family.HALF_SPLIT_APEX, 4)).graph
    with pytest.raises(InsufficientSize) as e:
        ex.extract_from_half_split(host, tuple(range(8)), 4)
    assert e.value.stage == "half-split:pigeonhole"
    assert e.value.needed == ex.g_bound(4)


def test_half_split_rejects_bad_embedding():
    host = generate(FamilyId(Family.HALF_GRAPH, 6)).graph  # b side not a clique
    with pytest.raises(ValueError):
        ex.extract_from_half_split(host, tuple(range(12)), 3)


# the driver ------------------------------------------------------------------

def test_driver_self_containment():
    host = generate(FamilyId(Family.HALF_GRAPH, 12)).graph
    w = ex.unavoidable_witness(host, 4)
    assert isinstance(w, Witness) and w.family == FamilyId(Family.HALF_GRAPH, 4)


def test_driver_complement_bookkeeping():
    host = complement(generate(FamilyId(Family.SUBDIVIDED_STAR, 10)).graph)
    w = ex.unavoidable_witness(host, 4)
    assert isinstance(w, Witness)
    assert w.family == FamilyId(Family.SUBDIVIDED_STAR, 4, complemented=True)
    assert check_witness(host, w)


def test_driver_rejects_non_prime():
    with pytest.raises(NotPrimeError) as e:
        ex.unavoidable_witness(Graph.complete(5), 3)
    assert is_homogeneous_set(Graph.complete(5), e.value.homogeneous_set)


def test_driver_insufficient_is_structured():
    w = ex.unavoidable_witness(Graph.cycle(7), 6)
    assert isinstance(w, InsufficientSize)
    out = w.to_json()
    assert set(out) >= {"stage", "needed", "had"}
    assert isinstance(out["needed"], str) and out["needed"].isdigit()


def test_driver_complement_duality():
    rng = random.Random(44)
    for _ in range(10):
        g = random_prime_graph(rng, rng.randrange(14, 22))
        w1 = ex.unavoidable_witness(g, 3)
        w2 = ex.unavoidable_witness(complement(g), 3)
        assert isinstance(w1, InsufficientSize) == isinstance(w2, InsufficientSize)


def test_driver_small_soak():
    rng = random.Random(45)
    for _ in range(10):
        g = random_prime_graph(rng, rng.randrange(30, 60))
        w = ex.unavoidable_witness(g, 3)
        assert isinstance(w, (Witness, ChainWitness, InsufficientSize))
        if not isinstance(w, InsufficientSize):
            assert check_witness(g, w)
