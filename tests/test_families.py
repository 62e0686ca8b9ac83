import itertools
import random
import sys

import pytest

from primewitness import families
from primewitness.chains import chain_induces_prime, validate_chain
from primewitness.families import (
    THEOREM_FAMILY_ORDER,
    Family,
    FamilyId,
    are_isomorphic,
    check_witness,
    find_induced_copy,
    find_induced_embedding,
    find_prime_chain,
    find_witness_any,
    generate,
)
from primewitness.graphs import Graph, complement
from primewitness.homogeneous import is_prime
from primewitness.oracles import naive_induced_search
from primewitness.witnesses import ChainWitness, Witness

from util import (
    all_different_cuts,
    automorphisms,
    neighbour_degree_cuts,
    random_graph,
    reference_induced_embedding,
    reference_induced_path,
    reference_prime_chain_from_pair,
    reference_witness_any,
    shallow_window_cuts,
)


def test_family_id_parsing():
    fid = FamilyId.parse("half-graph:5")
    assert fid == FamilyId(Family.HALF_GRAPH, 5)
    fid = FamilyId.parse("thin-spider:4!")
    assert fid == FamilyId(Family.THIN_SPIDER, 4, complemented=True)
    assert str(fid) == "thin-spider:4!"
    for bad in ("k2:1", "half-graph", "half-graph:x", "half-graph:"):
        with pytest.raises(ValueError):
            FamilyId.parse(bad)


def test_generate_size_guard():
    with pytest.raises(ValueError):
        generate(FamilyId(Family.HALF_GRAPH, 0))
    with pytest.raises(ValueError):
        generate(FamilyId(Family.HALF_GRAPH, (1 << 16) + 1))


def _expected_counts(fam: Family, n: int) -> tuple[int, int]:
    pairs = n * (n - 1) // 2
    return {
        Family.HALF_GRAPH: (2 * n, n * (n + 1) // 2),
        Family.HALF_SPLIT: (2 * n, n * (n + 1) // 2 + pairs),
        Family.HALF_SPLIT_APEX: (2 * n + 1, n * (n + 1) // 2 + pairs + n),
        Family.HALF_SPLIT_PENDANT: (2 * n + 1, n * (n + 1) // 2 + pairs + 1),
        Family.THIN_SPIDER: (2 * n, n + pairs),
        Family.THICK_SPIDER: (2 * n, n * (n - 1) + pairs),
        Family.MATCHING: (2 * n, n),
        Family.LINE_K2N: (2 * n, 2 * pairs + n),
        Family.SUBDIVIDED_STAR: (2 * n + 1, 2 * n),
        Family.PRIME_CHAIN: (n + 1, n),
    }[fam]


@pytest.mark.parametrize("fam", [f for f in Family if not f.value.startswith("compl-")])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_generator_closed_forms(fam, n):
    g = generate(FamilyId(fam, n)).graph
    nv, ne = _expected_counts(fam, n)
    assert g.n == nv and g.edge_count() == ne


def test_complemented_tags_and_flag():
    for fam, base in (
        (Family.COMPL_LINE_K2N, Family.LINE_K2N),
        (Family.COMPL_HALF_SPLIT_PENDANT, Family.HALF_SPLIT_PENDANT),
    ):
        for n in (2, 4):
            assert generate(FamilyId(fam, n)).graph == complement(
                generate(FamilyId(base, n)).graph
            )
            # the complemented flag undoes the tag
            assert generate(FamilyId(fam, n, complemented=True)).graph == generate(
                FamilyId(base, n)
            ).graph


def test_half_graph_small_edges():
    h2 = generate(FamilyId(Family.HALF_GRAPH, 2)).graph
    assert sorted(h2.edges()) == [(0, 2), (1, 2), (1, 3)]  # a1b1, a2b1, a2b2


def test_thin_spider_one_leg_is_an_edge():
    g = generate(FamilyId(Family.THIN_SPIDER, 1)).graph
    assert g.n == 2 and g.edge_count() == 1


def test_line_k2n_is_two_cliques_plus_matching():
    g = generate(FamilyId(Family.LINE_K2N, 5)).graph
    for s, t in itertools.combinations(range(5), 2):
        assert g.adjacent(s, t) and g.adjacent(5 + s, 5 + t)
    for s in range(5):
        for t in range(5):
            assert g.adjacent(s, 5 + t) == (s == t)


def _line_graph(g: Graph) -> Graph:
    es = list(g.edges())
    out = []
    for i, j in itertools.combinations(range(len(es)), 2):
        if set(es[i]) & set(es[j]):
            out.append((i, j))
    return Graph.from_edges(len(es), out)


def test_thin_spider_is_line_graph_of_subdivided_star():
    star = generate(FamilyId(Family.SUBDIVIDED_STAR, 5)).graph
    thin = generate(FamilyId(Family.THIN_SPIDER, 5)).graph
    assert are_isomorphic(_line_graph(star), thin)


def test_roles_match_adjacency_rules():
    for n in (1, 3, 6):
        labeled = generate(FamilyId(Family.HALF_GRAPH, n))
        idx = {r: v for v, r in enumerate(labeled.roles)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert labeled.graph.adjacent(idx[f"a{i}"], idx[f"b{j}"]) == (i >= j)
    pend = generate(FamilyId(Family.HALF_SPLIT_PENDANT, 4))
    idx = {r: v for v, r in enumerate(pend.roles)}
    assert pend.graph.degree(idx["pendant"]) == 1
    assert pend.graph.adjacent(idx["pendant"], idx["a4"])


def test_nonprime_fixtures():
    for n in range(2, 6):
        assert not is_prime(generate(FamilyId(Family.HALF_SPLIT, n)).graph)
        assert not is_prime(generate(FamilyId(Family.MATCHING, n)).graph)


# find_induced_copy ---------------------------------------------------------

def test_half_graph_contains_smaller():
    h3 = generate(FamilyId(Family.HALF_GRAPH, 3)).graph
    emb = find_induced_copy(h3, FamilyId(Family.HALF_GRAPH, 2))
    assert emb is not None
    assert check_witness(h3, Witness(FamilyId(Family.HALF_GRAPH, 2), emb))


def test_clique_contains_no_matching():
    assert find_induced_copy(Graph.complete(4), FamilyId(Family.MATCHING, 2)) is None


def test_apex_contains_half_split():
    host = generate(FamilyId(Family.HALF_SPLIT_APEX, 5)).graph
    emb = find_induced_copy(host, FamilyId(Family.HALF_SPLIT, 5))
    assert emb is not None
    assert check_witness(host, Witness(FamilyId(Family.HALF_SPLIT, 5), emb))


def _naive_contains(host: Graph, pat: Graph) -> bool:
    if pat.n > host.n:
        return False
    for sub in itertools.permutations(range(host.n), pat.n):
        if all(
            pat.adjacent(i, j) == host.adjacent(sub[i], sub[j])
            for i, j in itertools.combinations(range(pat.n), 2)
        ):
            return True
    return False


def test_induced_copy_matches_naive_oracle():
    rng = random.Random(30)
    for _ in range(40):
        host = random_graph(rng, rng.randrange(5, 10))
        pat = random_graph(rng, rng.randrange(2, 7))
        assert (find_induced_embedding(host, pat) is not None) == _naive_contains(host, pat)


def test_induced_embedding_matches_reference():
    # the first match is pinned, not only existence: witness output and the
    # golden corpus depend on which embedding the search returns first
    rng = random.Random(33)
    cases = []
    for _ in range(300):
        host = random_graph(rng, rng.randrange(5, 31), rng.choice([0.3, 0.5, 0.7]))
        cases.append((host, random_graph(rng, rng.randrange(1, 9), rng.choice([0.3, 0.5, 0.7]))))
    for fam in THEOREM_FAMILY_ORDER:
        for n in (3, 4):
            for comp in (False, True):
                pat = generate(FamilyId(fam, n, comp)).graph
                for p in (0.3, 0.5, 0.7):
                    cases.append((random_graph(rng, rng.randrange(20, 41), p), pat))
    host = random_graph(rng, 6)
    cases += [(host, Graph.empty(0)), (host, Graph.empty(1)), (host, random_graph(rng, 7))]
    cases += [(Graph.empty(0), Graph.empty(0)), (Graph.empty(0), Graph.empty(1))]
    found = cut = fired = shallow = 0
    for host, pat in cases:
        emb = find_induced_embedding(host, pat)
        assert emb == reference_induced_embedding(host, pat), (host.rows, pat.rows)
        found += emb is not None
        cut += neighbour_degree_cuts(host, pat) > 0
        fired += all_different_cuts(host, pat) > 0
        shallow += shallow_window_cuts(host, pat) > 0
    assert 0 < found < len(cases)
    # the reference's neighbour-degree filter drops candidates that the
    # engine keeps on some hosts, and the first matches still agree there
    assert cut > 0
    # the engine's all-different cut drops placements that the reference
    # expands on some hosts, from the deepest end and from the shallowest
    # end, and the first matches still agree there
    assert fired > 0
    assert shallow > 0


@pytest.mark.parametrize("host, pat, nodes, cuts, shallow", [
    # the paw: placing the middle of P3 on a2 leaves both ends the one
    # vertex b2, a suffix union too short for two
    (generate(FamilyId(Family.HALF_SPLIT, 2)).graph, Graph.path(3), 2, 1, 0),
    # placing P4's first inner vertex on a1 empties the domain of its end
    # neighbour, while the deeper domain of the far end keeps a2 and a3
    (generate(FamilyId(Family.THICK_SPIDER, 3)).graph, Graph.path(4), 3, 0, 0),
    # P3 plus an isolated vertex: placing the middle of P3 on a3 leaves both
    # ends the one vertex b3, while the deepest domain, the isolated
    # vertex's, keeps a1 and a2, so every deepest window passes and only
    # the shallowest window of two is short
    (generate(FamilyId(Family.HALF_SPLIT, 3)).graph,
     generate(FamilyId(Family.HALF_SPLIT, 2, True)).graph, 3, 0, 1),
])
def test_embed_node_counts_are_pinned(host, pat, nodes, cuts, shallow):
    # the search reaches its first match after exactly ``nodes`` expansions:
    # it returns it at that cap and gives up one below
    order, flags, degs = families._compile(pat)
    doms = families._degree_masks(host, degs)
    chosen = families._embed(host.rows, flags, doms, nodes)
    emb = find_induced_embedding(host, pat)
    assert chosen is not None and tuple(chosen[order.index(u)] for u in range(pat.n)) == emb
    assert families._embed(host.rows, flags, doms, nodes - 1) is None
    assert all_different_cuts(host, pat) == cuts
    assert shallow_window_cuts(host, pat) == shallow


_SYMMETRY_FAMILIES = [f for f in Family if f is not Family.PRIME_CHAIN]


@pytest.mark.parametrize("comp", [False, True])
@pytest.mark.parametrize("fam", _SYMMETRY_FAMILIES)
def test_orbit_mates_are_stabilizer_orbits(fam, comp):
    # at each depth k, the orbit of order[k] under the automorphisms that fix
    # every shallower vertex, less order[k] itself: no more (that would cut
    # the first match) and no less (that would lose pruning)
    pat = generate(FamilyId(fam, 3, comp)).graph
    order, flags, _ = families._compile(pat)
    auts = automorphisms(pat)
    for k, u in enumerate(order):
        orbit = {s[u] for s in auts if all(s[x] == x for x in order[:k])}
        mates = {w for w, f in zip(order[k + 1:], flags[k]) if f >> 1}
        assert mates == orbit - {u}, (k, u)


def test_asymmetric_pattern_has_no_orbit_constraints():
    pat = generate(FamilyId(Family.HALF_SPLIT_APEX, 3)).graph
    _, flags, _ = families._compile(pat)
    assert automorphisms(pat) == [tuple(range(pat.n))]
    assert all(f < 2 for flag in flags for f in flag)


def _plant(rng: random.Random, host: Graph, pat: Graph) -> Graph:
    """``host`` with ``pat`` induced on pat.n random vertices."""
    spots = rng.sample(range(host.n), pat.n)
    rows = list(host.rows)
    for i, a in enumerate(spots):
        for j, b in enumerate(spots):
            if i != j:
                if pat.adjacent(i, j):
                    rows[a] |= 1 << b
                else:
                    rows[a] &= ~(1 << b)
    return Graph(host.n, rows)


def test_first_match_unchanged_on_symmetric_patterns():
    # the orbit constraints must keep the first match of the unconstrained
    # search, on hits (a planted copy) and on misses (the host before it)
    rng = random.Random(36)
    misses = 0
    for fam in _SYMMETRY_FAMILIES:
        for comp in (False, True):
            for n in (3, 4, 5):
                pat = generate(FamilyId(fam, n, comp)).graph
                for p in (0.3, 0.5, 0.7):
                    host = random_graph(rng, pat.n + rng.randrange(3, 16), p)
                    planted = _plant(rng, host, pat)
                    for g in (planted, host):
                        emb = find_induced_embedding(g, pat)
                        assert emb == reference_induced_embedding(g, pat), (fam, comp, n, p, g.rows)
                        assert emb is not None or g is host
                        misses += emb is None
    assert misses > 0


# find_witness_any ----------------------------------------------------------

def test_self_containment():
    host = generate(FamilyId(Family.HALF_GRAPH, 10)).graph
    w = find_witness_any(host, 4)
    assert isinstance(w, Witness)
    assert w.family == FamilyId(Family.HALF_GRAPH, 4)


def test_complement_closure():
    host = complement(generate(FamilyId(Family.THIN_SPIDER, 8)).graph)
    w = find_witness_any(host, 5)
    assert isinstance(w, Witness)
    assert w.family.family in (Family.THIN_SPIDER, Family.THICK_SPIDER)
    assert check_witness(host, w)


def test_clique_has_no_outcome_of_size_four():
    assert find_witness_any(Graph.complete(5), 4) is None


def test_prime_chain_search_on_cycle():
    c7 = Graph.cycle(7)
    seq = find_prime_chain(c7, 5)
    assert seq is not None and len(seq) == 6
    assert validate_chain(c7, seq) == (True, None)
    assert chain_induces_prime(c7, seq)


def test_prime_chain_search_from_seed_pairs():
    # the complement of P9 has no induced P6: its vertices would induce the
    # complement of P6 in P9, a connected graph that is not a path, while
    # every connected induced subgraph of a path is a path.  So the chain
    # comes from the seed-pair phase.
    host = complement(Graph.path(9))
    assert families._find_induced_path(host, 5) is None
    seq = find_prime_chain(host, 5)
    assert seq is not None and len(seq) == 6
    assert validate_chain(host, seq) == (True, None)
    assert chain_induces_prime(host, seq)


def test_pair_chain_search_matches_reference():
    # every pair and n = 3..9, on hosts where chains from seed pairs occur
    rng = random.Random(18)
    hosts = []
    for k in range(4, 13):
        hosts += [Graph.path(k), complement(Graph.path(k)), Graph.cycle(k)]
    for _ in range(200):
        p = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9])
        hosts.append(random_graph(rng, rng.randrange(5, 16), p))
    found = 0
    for g in hosts:
        for u, v in itertools.combinations(range(g.n), 2):
            for n in range(3, 10):
                seq = families._prime_chain_from_pair(g, u, v, n)
                assert seq == reference_prime_chain_from_pair(g, u, v, n), (g.rows, u, v, n)
                found += seq is not None
    assert found > 10_000


def test_pair_chain_search_at_the_level_boundary():
    # from the pair (0, 1) of a path on n + 1 vertices the search has
    # exactly n - 1 levels, {2}, ..., {n}; one vertex fewer leaves n - 2
    for n in range(3, 9):
        assert families._prime_chain_from_pair(Graph.path(n + 1), 0, 1, n) == (1, 0, *range(2, n + 1))
        assert families._prime_chain_from_pair(Graph.path(n), 0, 1, n) is None


def test_shallow_pairs_read_no_chains(monkeypatch):
    # a witness-exhaust-sized host with no induced P8 and no pair whose
    # search reaches 6 levels: the pair phase runs but reads no chain
    calls = {"read": 0, "pair": 0}
    read, pair = families.chains._chain_from_levels, families._prime_chain_from_pair

    def counting_read(*args):
        calls["read"] += 1
        return read(*args)

    def counting_pair(*args):
        calls["pair"] += 1
        return pair(*args)

    monkeypatch.setattr(families.chains, "_chain_from_levels", counting_read)
    monkeypatch.setattr(families, "_prime_chain_from_pair", counting_pair)
    host = random_graph(random.Random(14), 22, 0.5)
    assert families._find_induced_path(host, 7) is None
    assert find_prime_chain(host, 7) is None
    assert calls == {"read": 0, "pair": 231}
    # a deep pair does read them: the seed-pair chain of the complement of P9
    assert find_prime_chain(complement(Graph.path(9)), 5) is not None
    assert calls["read"] > 0


def test_prime_chain_search_rejects_outcome_size_below_three():
    # up front, as find_witness_any does, for sizes the chain check and the
    # induced-path search cannot take
    for n in (2, 1, 0, -1):
        with pytest.raises(ValueError, match="outcome size must be at least 3"):
            find_prime_chain(Graph.path(6), n)


def test_induced_path_matches_reference_search():
    # the engine walks a subset of the reference's nodes in the same order,
    # so wherever the reference stays within the budget the results agree
    rng = random.Random(73)
    outcomes = {"found": 0, "absent": 0, "over budget": 0}
    for _ in range(200):
        host = random_graph(rng, rng.randrange(4, 71), rng.uniform(0.05, 0.95))
        n = rng.randrange(3, 12)
        ref, in_budget = reference_induced_path(host, n, families.PATH_NODE_BUDGET)
        if not in_budget:
            outcomes["over budget"] += 1
            continue
        assert families._find_induced_path(host, n) == ref, (host.rows, n)
        outcomes["found" if ref is not None else "absent"] += 1
    assert all(outcomes.values()), outcomes


def test_induced_path_budget(monkeypatch):
    # P_12 holds one induced path with 11 edges; the search expands depths
    # 0..10, one node each, and places the last vertex without expanding
    host = Graph.path(12)
    monkeypatch.setattr(families, "PATH_NODE_BUDGET", 11)
    assert families._find_induced_path(host, 11) == tuple(range(12))
    assert reference_induced_path(host, 11, 11) == (tuple(range(12)), True)
    monkeypatch.setattr(families, "PATH_NODE_BUDGET", 10)
    assert families._find_induced_path(host, 11) is None
    assert reference_induced_path(host, 11, 10) == (None, False)


def test_induced_path_deeper_than_the_recursion_limit():
    # the search keeps its own stack, so a path longer than Python's
    # recursion limit is placed like a short one
    n = sys.getrecursionlimit() + 100
    assert families._find_induced_path(Graph.path(n), n - 1) == tuple(range(n))


def test_induced_path_reversal_cut_node_count(monkeypatch):
    # the path's last vertex is the first one's orbit-mate, so a search
    # that starts on v keeps only ends above v; the first path is the same,
    # reached after 26 expansions instead of the 37 of the uncut search
    host = random_graph(random.Random(53), 10, 0.3)
    path = (6, 7, 5, 9, 8)
    assert reference_induced_path(host, 4, families.PATH_NODE_BUDGET) == (path, True)
    monkeypatch.setattr(families, "PATH_NODE_BUDGET", 26)
    assert families._find_induced_path(host, 4) == path
    monkeypatch.setattr(families, "PATH_NODE_BUDGET", 25)
    assert families._find_induced_path(host, 4) is None


def test_isomorphism_inputs_do_not_evict_compiled_patterns():
    # isomorphism inputs rarely recur, so they are compiled outside the
    # cache that keeps family patterns
    rng = random.Random(61)
    host = random_graph(rng, 12)
    fid = FamilyId(Family.HALF_GRAPH, 4)
    find_induced_copy(host, fid)
    for _ in range(600):
        g = random_graph(rng, 10)
        assert are_isomorphic(g, g)
    misses = families._compile.cache_info().misses
    find_induced_copy(host, fid)
    assert families._compile.cache_info().misses == misses


def test_witness_chain_on_long_path():
    host = Graph.path(9)
    w = find_witness_any(host, 4)
    assert isinstance(w, ChainWitness) and w.length == 4
    assert check_witness(host, w)


def test_chain_witness_is_validated_once(monkeypatch):
    calls = []
    validate = families.chains.validate_chain

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(families.chains, "validate_chain", counting)
    assert check_witness(Graph.path(6), ChainWitness(tuple(range(6))))
    assert len(calls) == 1


def test_every_embedding_revalidates():
    rng = random.Random(31)
    for _ in range(20):
        host = random_graph(rng, rng.randrange(12, 20))
        w = find_witness_any(host, 3)
        if w is not None:
            assert check_witness(host, w)


def test_witness_search_is_deterministic():
    rng = random.Random(32)
    for _ in range(10):
        host = random_graph(rng, rng.randrange(10, 18))
        assert find_witness_any(host, 3) == find_witness_any(host, 3)


def test_absence_proofs_on_structured_hosts():
    # bipartite hosts contain no triangle-bearing patterns
    host = generate(FamilyId(Family.HALF_GRAPH, 10)).graph
    assert find_induced_copy(host, FamilyId(Family.THICK_SPIDER, 3)) is None
    assert find_induced_copy(host, FamilyId(Family.LINE_K2N, 3)) is None
    # and a clique-heavy host contains no induced pair of disjoint edges
    host = generate(FamilyId(Family.LINE_K2N, 6)).graph
    assert find_induced_copy(host, FamilyId(Family.SUBDIVIDED_STAR, 3)) is None


def test_witness_revalidation_is_not_an_assert(monkeypatch):
    # the re-check must raise even under python -O, which strips asserts
    host = generate(FamilyId(Family.HALF_GRAPH, 10)).graph
    monkeypatch.setattr(families, "check_witness", lambda g, w: False)
    with pytest.raises(RuntimeError, match="re-validation"):
        find_witness_any(host, 4)
    with pytest.raises(RuntimeError, match="re-validation"):
        find_witness_any(Graph.path(9), 4)


def test_witness_search_skips_families_larger_than_host(monkeypatch):
    # every theorem family has 2n or 2n + 1 vertices, so no pattern is
    # generated for a host with fewer than 2n
    def refuse(fid):
        raise AssertionError(f"generated {fid} for a smaller host")

    monkeypatch.setattr(families, "generate", refuse)
    assert find_witness_any(Graph.path(5), 500) is None


def _fids(families_: tuple[Family, ...], n: int) -> list[FamilyId]:
    return [FamilyId(fam, n, comp) for fam in families_ for comp in (False, True)]


def _core_candidates(n: int) -> list[Graph]:
    """K_n, E_n and the family cores at size n, in search order."""
    return [Graph.complete(n), Graph.empty(n)] + [
        families._pattern(fid) for fid in _fids(families.CORE_FAMILIES, n)
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_core_lattice_matches_brute_force(n):
    pat = families._pattern
    theorem = _fids(THEOREM_FAMILY_ORDER, n)
    cores = _core_candidates(n)
    for fid in theorem:
        expected = tuple(c for c in cores if naive_induced_search(pat(fid), c))
        assert families._cores_inside(fid) == expected, fid
    # so no theorem pattern is skipped for the miss of another
    for p, q in itertools.permutations(theorem, 2):
        assert not naive_induced_search(pat(q), pat(p)), (p, q)


@pytest.mark.parametrize("n", range(3, 9))
def test_every_theorem_pattern_holds_a_clique_or_stable_set(n):
    # the Ramsey step of the proof: one clique search and one stable-set
    # search in a host can rule out every theorem pattern at once
    for fid in _fids(THEOREM_FAMILY_ORDER, n):
        cores = families._cores_inside(fid)
        assert Graph.complete(n) in cores or Graph.empty(n) in cores, fid


def _record_searches(monkeypatch, host: Graph, n: int) -> list[tuple[Graph, bool]]:
    """Route ``families.find_induced_embedding`` through a recorder of
    (pattern, hit) for each search in ``host`` of a theorem pattern at size
    n or of a core pattern (K_n, E_n and the family cores), with no core
    outcomes of earlier hosts kept."""
    watched = {families._pattern(f) for f in _fids(THEOREM_FAMILY_ORDER, n)}
    watched.update(_core_candidates(n))
    calls: list[tuple[Graph, bool]] = []
    search = families.find_induced_embedding

    def recording(h, pat):
        emb = search(h, pat)
        if h.rows == host.rows and pat in watched:
            calls.append((pat, emb is not None))
        return emb

    families._core_outcomes.cache_clear()
    monkeypatch.setattr(families, "find_induced_embedding", recording)
    return calls


def test_witness_any_matches_reference_scan(monkeypatch):
    rng = random.Random(83)
    core_missed = core_hit_pattern_missed = 0
    for i in range(150):
        n = 3 + i % 4
        host = random_graph(rng, rng.randrange(8, 41 if n < 6 else 29), rng.choice(
            [0.2, 0.35, 0.5, 0.65, 0.8]
        ))
        ref = reference_witness_any(host, n)
        with monkeypatch.context() as m:
            calls = _record_searches(m, host, n)
            assert find_witness_any(host, n) == ref, (host.rows, n)
        outcome = dict(calls)
        for fid in _fids(THEOREM_FAMILY_ORDER, n):
            cores = families._cores_inside(fid)
            core_missed += any(outcome.get(c) is False for c in cores)
            core_hit_pattern_missed += bool(cores) and outcome.get(families._pattern(fid)) is False
    # both sides of the certificate were exercised: patterns skipped for a
    # core's miss, and patterns searched (and missed) after their cores hit
    assert core_missed and core_hit_pattern_missed


def test_core_miss_skips_its_patterns(monkeypatch):
    # a threshold graph has no induced 2K2, so no matching:4 and no
    # subdivided-star:4, and no C4, so no matching:4! either
    host = generate(FamilyId(Family.HALF_SPLIT_APEX, 6)).graph
    ref = reference_witness_any(host, 4)
    calls = _record_searches(monkeypatch, host, 4)
    w = find_witness_any(host, 4)
    assert w == ref and check_witness(host, w)
    searched = [pat for pat, _ in calls]
    assert (families._pattern(FamilyId(Family.MATCHING, 4)), False) in calls
    assert families._pattern(FamilyId(Family.SUBDIVIDED_STAR, 4)) not in searched
    assert families._pattern(FamilyId(Family.SUBDIVIDED_STAR, 4, True)) not in searched
    assert len(searched) == len(set(searched))
    # a core's outcome is kept for the next search in the same host
    calls.clear()
    assert find_induced_copy(host, FamilyId(Family.SUBDIVIDED_STAR, 4)) is None
    assert calls == []


def test_paley_17_is_cleared_by_two_clique_searches(monkeypatch):
    # the Paley graph of order 17 is prime with no clique or stable set of
    # four vertices, so K_4 and E_4 miss and every theorem pattern is skipped
    residues = {x * x % 17 for x in range(1, 17)}
    host = Graph.from_edges(
        17, [(u, v) for u, v in itertools.combinations(range(17), 2) if (v - u) % 17 in residues]
    )
    assert is_prime(host)
    assert naive_induced_search(host, Graph.complete(3))
    assert naive_induced_search(host, Graph.empty(3))
    ref = reference_witness_any(host, 4)
    calls = _record_searches(monkeypatch, host, 4)
    w = find_witness_any(host, 4)
    assert w == ref and isinstance(w, ChainWitness)
    assert sorted(calls, key=lambda c: c[0].edge_count()) == [
        (Graph.empty(4), False),
        (Graph.complete(4), False),
    ]


def test_greedy_colouring_certifies_only_clique_misses():
    # a proper colouring with fewer than t colours leaves no K_t, and on the
    # complement no E_t: the certificate never fires on a host that has
    # one, and it settles some host at every t
    rng = random.Random(89)
    settled = dict.fromkeys(range(3, 9), 0)
    for i in range(120):
        t = 3 + i % 6
        host = random_graph(rng, rng.randrange(5, 31), rng.uniform(0.1, 0.9))
        for g, core in ((host, Graph.complete(t)), (complement(host), Graph.empty(t))):
            if families._colours_fewer_than(g.rows, t):
                assert not naive_induced_search(host, core), (host.rows, core)
                settled[t] += 1
    assert all(settled.values()), settled


def test_colourings_clear_every_pattern_without_a_clique_search(monkeypatch):
    # both greedy colourings of this G(22, 1/2) use at most six colours, so
    # K_7 and E_7 miss with no search and every theorem pattern is skipped
    host = random_graph(random.Random(30), 22, 0.5)
    assert families._colours_fewer_than(host.rows, 7)
    assert families._colours_fewer_than(complement(host).rows, 7)
    ref = reference_witness_any(host, 7)
    calls = _record_searches(monkeypatch, host, 7)
    assert find_witness_any(host, 7) == ref
    # no theorem pattern, K_7, E_7 or family core was searched
    assert calls == []
