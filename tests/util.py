"""Shared helpers for the test suite: random chain growth, the substitution
construction, automorphisms by brute force, the checks on extraction's
intermediate results (``check_regular_triple``, ``color_id`` for an
``EdgeColoring`` and ``bound_le`` over int | ``Huge`` bounds), and the
references that
``closure`` (round-based absorption), ``find_homogeneous_set`` (all-pairs
closure scan), ``find_chain`` (per-vertex auxiliary-digraph search),
``find_induced_embedding`` (plain backtracking, with no all-different
cut), the induced-path search (the hand-written path search with its node
budget), ``find_witness_any`` (every theorem pattern searched in turn) and
the prime-chain search from one seed pair (the per-vertex search's
depths and chains) and ``parse_graph6`` (one step per data bit) must agree
with.  Graph sampling and exhaustive enumeration are the library's oracles,
re-exported here."""

from __future__ import annotations

import itertools
import random
from collections import deque

from primewitness.graphs import (
    _G6_MAX_N, _HEADER, Graph, Graph6Error, _g6_char, bits, mask_of,
)
from primewitness.oracles import all_graphs, random_graph  # noqa: F401 (re-exported)


def random_prime_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    from primewitness.homogeneous import is_prime

    while True:
        g = random_graph(rng, n, p)
        if is_prime(g):
            return g


def random_chain(rng: random.Random, g: Graph, length: int) -> tuple[int, ...] | None:
    """Grow one random valid chain of the requested length, or None."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    seq = verts[:2]
    rows = g.rows
    free = g.vertex_mask() & ~(1 << seq[0]) & ~(1 << seq[1])
    # union and intersection of the rows of the used vertices but the last
    union = inter = rows[seq[0]]
    while len(seq) <= length:
        # v may follow when the last vertex alone tells it apart from the
        # rest: its used neighbours are just the last, or all but the last
        last = rows[seq[-1]]
        cands = list(bits(free & ((last & ~union) | (inter & ~last))))
        if not cands:
            return None
        v = rng.choice(cands)
        seq.append(v)
        free &= ~(1 << v)
        union |= last
        inter &= last
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


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g as a tuple s (vertex v maps to s[v]), found by
    trying all n! permutations; for graphs of up to about 8 vertices."""
    edges = list(g.edges())
    return [
        s
        for s in itertools.permutations(range(g.n))
        if all(g.adjacent(s[a], s[b]) for a, b in edges)
    ]


def reference_closure(g: Graph, seed_mask: int) -> int:
    """Reference for ``homogeneous.closure``: absorb every vertex mixed on
    the current set, round after round, until none is left."""
    rows = g.rows
    full = g.vertex_mask()
    s = seed_mask
    while s != full:
        add = 0
        for w in bits(full & ~s):
            x = rows[w] & s
            if x and x != s:
                add |= 1 << w
        if not add:
            break
        s |= add
    return s


def lex_first_closure(g: Graph) -> frozenset[int] | None:
    """Reference for ``find_homogeneous_set``: close every seed pair in
    lexicographic order and return the first closure that is not all of V."""
    full = g.vertex_mask()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            s = reference_closure(g, (1 << u) | (1 << v))
            if s != full:
                return frozenset(bits(s))
    return None


def reference_aux_parents(g: Graph, imask: int) -> dict[int, int | None]:
    """Reference for the chain search's parents: breadth-first parents in
    the auxiliary digraph rooted outside I, with a per-vertex test of every
    unseen vertex.  Arcs: root -> w when w is mixed on I (parent None), and
    x -> y when y is unmixed on I but mixed on I+{x}.  Queue order is lowest
    vertex index first."""
    rows = g.rows
    outside = g.vertex_mask() & ~imask

    # uniform[w]: adjacency of an unmixed w toward I (1 complete, 0 anticomplete)
    mixed = 0
    uniform = {}
    for w in bits(outside):
        x = rows[w] & imask
        if x == 0:
            uniform[w] = 0
        elif x == imask:
            uniform[w] = 1
        else:
            mixed |= 1 << w

    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for w in bits(mixed):
        parent[w] = None
        queue.append(w)
    unseen = outside & ~mixed
    while queue:
        x = queue.popleft()
        bx = rows[x]
        newly = 0
        for y in bits(unseen):
            if ((bx >> y) & 1) != uniform[y]:
                parent[y] = x
                queue.append(y)
                newly |= 1 << y
        unseen &= ~newly
    return parent


def reference_depths(g: Graph, imask: int) -> dict[int, int]:
    """Each vertex ``reference_aux_parents`` reaches, with its depth: 1 for
    the vertices mixed on I, one more than its parent's for the others."""
    depth: dict[int, int] = {}
    # parents come in BFS order, so each vertex's parent comes before it
    for t, p in reference_aux_parents(g, imask).items():
        depth[t] = 1 if p is None else depth[p] + 1
    return depth


def reference_chain(g: Graph, source: tuple[int, ...], target: int) -> tuple[int, ...] | None:
    """Reference for ``find_chain``: the root-to-target path of
    ``reference_aux_parents``, after the lowest neighbor and the lowest
    non-neighbor in the source set of its first vertex; None when the
    target is not reached."""
    imask = 0
    for v in source:
        imask |= 1 << v
    parent = reference_aux_parents(g, imask)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    first = path[-1]
    v0 = min(v for v in source if g.adjacent(first, v))
    v1 = min(v for v in source if not g.adjacent(first, v))
    return (v0, v1, *reversed(path))


def _candidate(host: Graph, pat: Graph, p: int, v: int) -> tuple[bool, bool]:
    """Whether host vertex v passes, as a candidate for pattern vertex p,
    the degree and co-degree test, and whether it also passes the test that
    its neighbour degrees, sorted descending, dominate p's."""
    pdeg = pat.degree(p)
    if host.degree(v) < pdeg or host.n - 1 - host.degree(v) < pat.n - 1 - pdeg:
        return False, False
    pnbr = sorted((pat.degree(q) for q in bits(pat.rows[p])), reverse=True)
    hnbr = sorted((host.degree(w) for w in bits(host.rows[v])), reverse=True)
    return True, all(h >= q for h, q in zip(hnbr, pnbr))


def neighbour_degree_cuts(host: Graph, pat: Graph) -> int:
    """How many (pattern vertex, host vertex) pairs pass the degree and
    co-degree test but fail the neighbour-degree test: the candidates that
    ``reference_induced_embedding`` drops and ``find_induced_embedding``
    keeps."""
    cuts = 0
    for p in range(pat.n):
        for v in range(host.n):
            degree_ok, nbr_ok = _candidate(host, pat, p, v)
            cuts += degree_ok and not nbr_ok
    return cuts


def reference_induced_embedding(host: Graph, pat: Graph) -> tuple[int, ...] | None:
    """Reference for ``find_induced_embedding``: the same backtracking search
    written plainly, recomputing the candidate filter per pattern vertex and
    copying every domain at each node.  Both must return the same first
    match.  Its filter also asks a candidate's sorted neighbour degrees to
    dominate the pattern vertex's, a test the engine does not make; it is
    sound, so it cuts no embedding, and agreement on hosts where it drops
    candidates (``neighbour_degree_cuts``) shows that leaving it out of the
    engine never changed a first match.  It makes no all-different cut, so
    agreement on hosts where the engine's cut fires from either end
    (``all_different_cuts``, ``shallow_window_cuts``) shows that the cut
    keeps the first match."""
    return _reference_search(host, pat)[0]


def all_different_cuts(host: Graph, pat: Graph) -> int:
    """How many placements of ``reference_induced_embedding``'s search, up
    to its first match, leave every deeper domain non-empty while the
    domains of some deepest j depths hold fewer than j host vertices: the
    placements that the engine's all-different cut drops and the reference
    expands."""
    return _reference_search(host, pat)[1]


def shallow_window_cuts(host: Graph, pat: Graph) -> int:
    """How many placements of the same search, up to its first match, pass
    every deepest-window test of ``all_different_cuts`` while the domains
    of some shallowest j depths still to place hold fewer than j host
    vertices: the placements that only the engine's shallowest-first test
    drops."""
    return _reference_search(host, pat)[2]


def _reference_search(host: Graph, pat: Graph) -> tuple[tuple[int, ...] | None, int, int]:
    """The first match of the plain search, and its counts of placements
    that the all-different cut would drop from the deepest end and, of the
    rest, from the shallowest end."""
    if pat.n > host.n:
        return None, 0, 0
    if pat.n == 0:
        return (), 0, 0

    placed: list[int] = []
    remaining = set(range(pat.n))
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -pat.degree(v),
                -sum(1 for w in placed if pat.adjacent(v, w)),
                v,
            ),
        )
        placed.append(best)
        remaining.remove(best)
    order = placed

    def candidate_mask(p: int) -> int:
        return sum(1 << v for v in range(host.n) if all(_candidate(host, pat, p, v)))

    domains = [0] * pat.n
    for p in range(pat.n):
        domains[p] = candidate_mask(p)
        if domains[p] == 0:
            return None, 0, 0

    assign = [-1] * pat.n
    hrows = host.rows
    cuts = shallow = 0

    def dfs(k: int, doms: list[int]) -> bool:
        nonlocal cuts, shallow
        if k == pat.n:
            return True
        u = order[k]
        for v in bits(doms[u]):
            nxt = doms[:]
            ok = True
            bv = 1 << v
            for w in order[k + 1:]:
                if pat.adjacent(u, w):
                    nd = nxt[w] & hrows[v] & ~bv
                else:
                    nd = nxt[w] & ~hrows[v] & ~bv
                if nd == 0:
                    ok = False
                    break
                nxt[w] = nd
            if ok:
                union = 0
                for j, w in enumerate(reversed(order[k + 1:]), 1):
                    union |= nxt[w]
                    if union.bit_count() < j:
                        cuts += 1
                        break
                else:
                    union = 0
                    for j, w in enumerate(order[k + 1:], 1):
                        union |= nxt[w]
                        if union.bit_count() < j:
                            shallow += 1
                            break
                assign[u] = v
                if dfs(k + 1, nxt):
                    return True
                assign[u] = -1
        return False

    return (tuple(assign) if dfs(0, domains) else None), cuts, shallow


def reference_induced_path(host: Graph, n: int, node_budget: int) -> tuple[tuple[int, ...] | None, bool]:
    """Reference for ``families._find_induced_path``: the plain backtracking
    search it replaced, lowest start and extension first, counting one node
    per partial path it extends.  Returns the first induced path with n
    edges or None, and whether the search stayed within ``node_budget``
    nodes (if not, the None is not a proof of absence)."""
    rows = host.rows
    budget = node_budget
    path: list[int] = []

    def extend(used: int, blocked: int) -> bool:
        nonlocal budget
        if len(path) == n + 1:
            return True
        budget -= 1
        if budget < 0:
            return False
        cand = rows[path[-1]] & ~used & ~blocked
        for w in bits(cand):
            path.append(w)
            if extend(used | (1 << w), blocked | (rows[path[-2]] & ~(1 << w))):
                return True
            path.pop()
            if budget < 0:
                return False
        return False

    for start in range(host.n):
        path = [start]
        if extend(1 << start, 0):
            return tuple(path), True
        if budget < 0:
            return None, False
    return None, True


def reference_witness_any(host: Graph, n: int):
    """Reference for ``find_witness_any``: every theorem pattern searched in
    the fixed order by the plain induced-embedding search, with no miss
    certificates, then the prime-chain fallback.  Both must return the same
    witness."""
    from primewitness.families import (
        THEOREM_FAMILY_ORDER,
        FamilyId,
        find_induced_embedding,
        find_prime_chain,
        generate,
    )
    from primewitness.witnesses import ChainWitness, Witness

    if 2 * n <= host.n:
        for fam in THEOREM_FAMILY_ORDER:
            for comp in (False, True):
                fid = FamilyId(fam, n, comp)
                emb = find_induced_embedding(host, generate(fid).graph)
                if emb is not None:
                    return Witness(fid, emb, provenance="direct-search")
    seq = find_prime_chain(host, n)
    return None if seq is None else ChainWitness(seq, provenance="direct-search")


def reference_prime_chain_from_pair(host: Graph, u: int, v: int, n: int) -> tuple[int, ...] | None:
    """Reference for ``families._prime_chain_from_pair``: take each reached
    vertex's depth from ``reference_depths``, walk the targets of depth
    at least n - 1 sorted by (-depth, index), read each chain with
    ``reference_chain`` and trim longer chains to length n.  Both must
    return the same chain."""
    from primewitness import chains

    depth = reference_depths(host, (1 << u) | (1 << v))
    targets = sorted((t for t, d in depth.items() if d + 1 >= n), key=lambda t: (-depth[t], t))
    for t in targets:
        seq = reference_chain(host, (u, v), t)
        while len(seq) - 1 > n:
            seq = chains.trim_chain_to_prime(host, seq)
        if chains.chain_induces_prime(host, seq):
            return tuple(seq)
    return None


def reference_parse_graph6(text: str) -> Graph:
    """Reference for ``parse_graph6``: the decoder it replaced, one step per
    data bit.  Both must return the same graph, or raise the same error at
    the same offset."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty input", 0)
    first = _g6_char(s, 0)
    if first < 63:
        n = first
        pos = 1
    elif _g6_char(s, 1) < 63:
        n = 0
        for i in range(1, 4):
            n = (n << 6) | _g6_char(s, i)
        pos = 4
    else:
        n = 0
        for i in range(2, 8):
            n = (n << 6) | _g6_char(s, i)
        pos = 8
    if n > _G6_MAX_N:
        raise Graph6Error(f"vertex count {n} exceeds graph6 limit", 0)

    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - pos < nchars:
        raise Graph6Error(
            f"expected {nchars} data characters, found {len(s) - pos}", len(s)
        )
    if len(s) - pos > nchars:
        raise Graph6Error("trailing garbage after graph data", pos + nchars)

    rows = [0] * n
    bit = 0
    i, j = 0, 1
    for k in range(nchars):
        val = _g6_char(s, pos + k)
        for shift in range(5, -1, -1):
            if bit >= nbits:
                break
            if (val >> shift) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, rows)


def check_regular_triple(g: Graph, t) -> bool:
    """Whether ``t`` is a regular triple (A, X, Y) of ``g``: A, X and Y are
    disjoint, A union X is independent, and each y_i is adjacent to x_i and
    anticomplete to the later x's and A, or non-adjacent to x_i and complete
    to them."""
    if len(t.xs) != len(t.ys):
        return False
    parts = [*t.a_set, *t.xs, *t.ys]
    if len(set(parts)) != len(parts):
        return False
    amask = mask_of(t.a_set)
    indep = amask | mask_of(t.xs)
    if any(g.rows[v] & indep for v in bits(indep)):
        return False
    for i, (x, y) in enumerate(zip(t.xs, t.ys)):
        later = mask_of(t.xs[i + 1:]) | amask
        if (g.rows[y] & later) != (0 if g.adjacent(x, y) else later):
            return False
    return True


def color_id(coloring, i: int, j: int) -> int:
    """The color id of the pair (i, j) in an ``extraction.EdgeColoring``."""
    if i == j or not (0 <= i < coloring.m and 0 <= j < coloring.m):
        raise ValueError("pairs of distinct vertices only")
    return next(c for c, rows in enumerate(coloring._rows) if (rows[i] >> j) & 1)


def bound_le(a, b) -> bool:
    """Partial order over the int | ``extraction.Huge`` bounds: Huge values
    of the same kind compare argument-wise, and ``min_bits`` orders a Huge
    value against an exact integer."""
    if isinstance(a, int) and isinstance(b, int):
        return a <= b
    if isinstance(a, int):
        if a.bit_length() <= b.min_bits:
            return True
        raise ValueError(f"cannot order {a.bit_length()}-bit value against {b}")
    if isinstance(b, int):
        if b.bit_length() <= a.min_bits:
            return False
        raise ValueError(f"cannot order {a} against {b.bit_length()}-bit value")
    if a.kind != b.kind or len(a.key) != len(b.key):
        raise ValueError(f"incomparable bounds {a} and {b}")
    if all(x <= y for x, y in zip(a.key, b.key)):
        return True
    if all(x >= y for x, y in zip(a.key, b.key)):
        return False
    raise ValueError(f"incomparable bounds {a} and {b}")
