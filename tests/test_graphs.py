import itertools
import random

import pytest

from primewitness.families import Family, FamilyId, are_isomorphic, find_isomorphism, generate
from primewitness.graphs import (
    Graph,
    Graph6Error,
    complement,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
)

from util import all_graphs, random_graph, reference_parse_graph6


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(2, [0b10])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self loop
    with pytest.raises(ValueError):
        Graph(1, [0b10, 0])  # wrong row count


def test_complement_of_complete_is_empty():
    assert complement(Graph.complete(3)) == Graph.empty(3)
    assert complement(Graph.empty(4)) == Graph.complete(4)


def test_complement_is_involution():
    rng = random.Random(1)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 11))
        assert complement(complement(g)) == g


def test_complement_of_thin_spider_is_thick_spider():
    thin = generate(FamilyId(Family.THIN_SPIDER, 5)).graph
    thick = generate(FamilyId(Family.THICK_SPIDER, 5)).graph
    assert are_isomorphic(complement(thin), thick)


def test_induced_subgraph_identity_and_prefix():
    p4 = Graph.path(4)
    whole, back = induced_subgraph(p4, range(4))
    assert whole == p4 and back == (0, 1, 2, 3)
    sub, back = induced_subgraph(p4, [0, 1, 2])
    assert sub == Graph.path(3) and back == (0, 1, 2)


def test_induced_subgraph_of_half_graph():
    h3 = generate(FamilyId(Family.HALF_GRAPH, 3)).graph
    h2 = generate(FamilyId(Family.HALF_GRAPH, 2)).graph
    # a1, a2, b1, b2 of H3 sit at indices 0, 1, 3, 4
    sub, _ = induced_subgraph(h3, [0, 1, 3, 4])
    assert sub == h2


def test_induced_subgraph_edge_restriction():
    rng = random.Random(2)
    for _ in range(100):
        g = random_graph(rng, 9)
        picked = sorted(rng.sample(range(9), rng.randrange(0, 10)))
        sub, back = induced_subgraph(g, picked)
        expected = {
            (i, j)
            for i, j in itertools.combinations(range(len(picked)), 2)
            if g.adjacent(back[i], back[j])
        }
        assert set(sub.edges()) == expected


def test_derived_graphs_equal_checked_construction():
    # complement and induced_subgraph skip the constructor's checks; their
    # rows must still be what Graph(n, rows) accepts and stores
    rng = random.Random(34)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 30), rng.choice([0.2, 0.5, 0.8]))
        c = complement(g)
        assert c == Graph(c.n, c.rows)
        sub, _ = induced_subgraph(g, rng.sample(range(g.n), rng.randrange(0, g.n + 1)))
        assert sub == Graph(sub.n, sub.rows)


def test_p4_isomorphic_to_its_complement():
    p4 = Graph.path(4)
    m = find_isomorphism(p4, complement(p4))
    assert m is not None
    for i, j in itertools.combinations(range(4), 2):
        assert p4.adjacent(i, j) == complement(p4).adjacent(m[i], m[j])


def test_triangle_not_isomorphic_to_path():
    assert not are_isomorphic(Graph.complete(3), Graph.path(3))


def _brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            g.adjacent(i, j) == h.adjacent(perm[i], perm[j])
            for i, j in itertools.combinations(range(g.n), 2)
        ):
            return True
    return False


def _relabel(g: Graph, perm: list[int]) -> Graph:
    rows = [0] * g.n
    for i, j in g.edges():
        rows[perm[i]] |= 1 << perm[j]
        rows[perm[j]] |= 1 << perm[i]
    return Graph(g.n, rows)


def _assert_isomorphism(g: Graph, h: Graph, m) -> None:
    # a bijection that preserves adjacency and non-adjacency
    assert sorted(m) == list(range(h.n))
    for i, j in itertools.combinations(range(g.n), 2):
        assert g.adjacent(i, j) == h.adjacent(m[i], m[j])


def test_isomorphism_matches_permutation_oracle():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n)
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            h = _relabel(g, perm)
        else:
            h = random_graph(rng, n)
        assert are_isomorphic(g, h) == _brute_isomorphic(g, h)
        m = find_isomorphism(g, h)
        if m is not None:
            _assert_isomorphism(g, h, m)

    assert find_isomorphism(Graph.empty(0), Graph.empty(0)) == ()
    # equal order, one vertex pair toggled: unequal size
    for n in range(2, 8):
        g = random_graph(rng, n)
        i, j = rng.sample(range(n), 2)
        rows = list(g.rows)
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
        h = Graph(n, rows)
        assert not _brute_isomorphic(g, h)
        assert find_isomorphism(g, h) is None and find_isomorphism(h, g) is None

    # random relabellings up to 16 vertices, symmetric graphs among them
    graphs = [Graph.empty(16), Graph.complete(16), Graph.cycle(16), Graph.path(16)]
    graphs += [random_graph(rng, n, p) for n in range(8, 17) for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = _relabel(g, perm)
        m = find_isomorphism(g, h)
        assert m is not None
        _assert_isomorphism(g, h, m)


# graph6 -------------------------------------------------------------------

def test_parse_known_encodings():
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.adjacent(0, 1)
    assert emit_graph6(Graph.empty(1)) == "@"
    assert emit_graph6(Graph.empty(0)) == "?"
    # header tolerated on input, never emitted
    assert parse_graph6(">>graph6<<A_") == k2
    assert not emit_graph6(k2).startswith(">>")


def test_graph6_round_trip_random():
    rng = random.Random(4)
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(0, 21))
        text = emit_graph6(g)
        assert parse_graph6(text) == g
        assert emit_graph6(parse_graph6(text)) == text


def test_graph6_round_trip_large_n():
    rng = random.Random(5)
    g = random_graph(rng, 100, 0.1)
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_parsed_graphs_equal_checked_construction():
    # parse_graph6 skips the constructor's checks; its rows must still be
    # what Graph(n, rows) accepts, whatever the padding bits of the last
    # data character hold (every n up to 70 covers both header forms and
    # every padding width)
    rng = random.Random(35)
    for n in range(71):
        for p in (0.2, 0.5, 0.8):
            text = emit_graph6(random_graph(rng, n, p))
            # emitted padding bits are zero, so adding fill sets them
            pad = -(n * (n - 1) // 2) % 6
            for fill in range(1 << pad):
                h = parse_graph6(text[:-1] + chr(ord(text[-1]) + fill))
                assert h == Graph(h.n, h.rows), (n, text, fill)


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("")
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C")  # 4 vertices need one data char
    with pytest.raises(Graph6Error) as e:
        parse_graph6("A_X")  # trailing garbage
    assert e.value.offset == 2
    with pytest.raises(Graph6Error) as e:
        parse_graph6("A\x1f")  # out-of-range character
    assert e.value.offset == 1


def test_parse_graph6_matches_reference_decoder():
    # the column decode returns the graph the bit-by-bit decoder returns,
    # with and without the '>>graph6<<' header, under both vertex-count
    # forms (n <= 62 and '~' with three chars), with random padding bits
    rng = random.Random(41)
    sizes = list(range(64)) + sorted(rng.randrange(64, 300) for _ in range(30)) + [300]
    for n in sizes:
        text = emit_graph6(random_graph(rng, n, rng.choice([0.1, 0.5, 0.9])))
        pad = -(n * (n - 1) // 2) % 6
        text = text[:-1] + chr(ord(text[-1]) + rng.randrange(1 << pad))
        for t in (text, ">>graph6<<" + text):
            assert parse_graph6(t) == reference_parse_graph6(t), (n, t)


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except Graph6Error as e:
        return str(e), e.offset


def test_parse_graph6_errors_match_reference_decoder():
    # one char of a valid token replaced, dropped or added: both decoders
    # return the same graph or raise the same message at the same offset
    rng = random.Random(42)
    alphabet = [chr(c) for c in range(32, 128)]
    for _ in range(1000):
        n = rng.choice([rng.randrange(8), rng.randrange(60, 70)])
        text = emit_graph6(random_graph(rng, n))
        k = rng.randrange(len(text))
        text = rng.choice([
            text[:k] + rng.choice(alphabet) + text[k + 1:],
            text[:k] + text[k + 1:],
            text[:k] + rng.choice(alphabet) + text[k:],
        ])
        expected = _parse_outcome(reference_parse_graph6, text)
        assert _parse_outcome(parse_graph6, text) == expected, text


def test_graph6_exhaustive_small():
    for n in range(5):
        for g in all_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_fuzz_never_crashes():
    # arbitrary short strings either parse or raise Graph6Error, nothing else;
    # whatever parses survives a canonical round trip
    rng = random.Random(6)
    alphabet = [chr(c) for c in range(32, 128)]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        try:
            g = parse_graph6(text)
        except Graph6Error:
            continue
        assert parse_graph6(emit_graph6(g)) == g
