"""Generators and induced-copy finders for the named graph families.

Every family is produced with a fixed vertex order -- a_1..a_n, then
b_1..b_n, then any apex/pendant/center vertex last -- so emitted graphs and
embeddings are stable across runs.  1-based indices in role names follow the
usual half-graph convention: a_i is adjacent to b_j iff i >= j.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from . import chains
from .graphs import Graph, bits, complement
from .homogeneous import _reach
from .witnesses import ChainWitness, Witness

SIZE_LIMIT = 1 << 16


class Family(enum.Enum):
    SUBDIVIDED_STAR = "subdivided-star"      # K_{1,n} with every edge subdivided once
    LINE_K2N = "line-k2n"                    # line graph of K_{2,n}
    THIN_SPIDER = "thin-spider"
    THICK_SPIDER = "thick-spider"
    HALF_GRAPH = "half-graph"
    HALF_SPLIT = "half-split"                # half-graph with the b side a clique
    HALF_SPLIT_APEX = "half-split-apex"      # half split plus a vertex complete to the a side
    HALF_SPLIT_PENDANT = "half-split-pendant"  # half split plus a pendant at a_n
    COMPL_HALF_SPLIT_PENDANT = "compl-half-split-pendant"
    MATCHING = "matching"                    # n disjoint edges
    COMPL_LINE_K2N = "compl-line-k2n"
    PRIME_CHAIN = "prime-chain"              # size parameter is the chain length


@dataclass(frozen=True)
class FamilyId:
    family: Family
    n: int
    complemented: bool = False

    @classmethod
    def parse(cls, spec: str) -> "FamilyId":
        """Parse CLI specs like ``half-graph:5`` or ``thin-spider:4!``."""
        text = spec.strip()
        complemented = text.endswith("!")
        if complemented:
            text = text[:-1]
        name, sep, num = text.partition(":")
        if not sep:
            raise ValueError(f"family spec {spec!r} needs a ':<size>' suffix")
        try:
            family = Family(name)
        except ValueError:
            known = ", ".join(f.value for f in Family)
            raise ValueError(f"unknown family {name!r}; expected one of: {known}") from None
        try:
            n = int(num)
        except ValueError:
            raise ValueError(f"bad size {num!r} in family spec {spec!r}") from None
        return cls(family, n, complemented)

    def __str__(self) -> str:
        return f"{self.family.value}:{self.n}{'!' if self.complemented else ''}"


@dataclass(frozen=True)
class LabeledFamilyGraph:
    graph: Graph
    roles: tuple[str, ...]


def _build_two_sided(n: int, cross, b_clique: bool) -> Graph:
    """Graph on a_1..a_n, b_1..b_n with a_i ~ b_j iff cross(i, j)."""
    edges = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if cross(i, j):
                edges.append((i - 1, n + j - 1))
    if b_clique:
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                edges.append((n + j - 1, n + k - 1))
    return Graph.from_edges(2 * n, edges)


def _ab_roles(n: int) -> list[str]:
    return [f"a{i}" for i in range(1, n + 1)] + [f"b{j}" for j in range(1, n + 1)]


def generate(fid: FamilyId) -> LabeledFamilyGraph:
    """Deterministic generator for a family instance.

    The ``complemented`` flag complements the finished graph; vertex order
    and roles are unchanged by complementation.
    """
    n = fid.n
    if not 1 <= n <= SIZE_LIMIT:
        raise ValueError(f"size {n} out of range 1..{SIZE_LIMIT}")
    fam = fid.family

    if fam is Family.HALF_GRAPH:
        g = _build_two_sided(n, lambda i, j: i >= j, b_clique=False)
        roles = _ab_roles(n)
    elif fam is Family.HALF_SPLIT:
        g = _build_two_sided(n, lambda i, j: i >= j, b_clique=True)
        roles = _ab_roles(n)
    elif fam is Family.HALF_SPLIT_APEX:
        base = _build_two_sided(n, lambda i, j: i >= j, b_clique=True)
        edges = list(base.edges()) + [(2 * n, i) for i in range(n)]
        g = Graph.from_edges(2 * n + 1, edges)
        roles = _ab_roles(n) + ["apex"]
    elif fam is Family.HALF_SPLIT_PENDANT or fam is Family.COMPL_HALF_SPLIT_PENDANT:
        base = _build_two_sided(n, lambda i, j: i >= j, b_clique=True)
        edges = list(base.edges()) + [(2 * n, n - 1)]
        g = Graph.from_edges(2 * n + 1, edges)
        if fam is Family.COMPL_HALF_SPLIT_PENDANT:
            g = complement(g)
        roles = _ab_roles(n) + ["pendant"]
    elif fam is Family.THIN_SPIDER:
        g = _build_two_sided(n, lambda i, j: i == j, b_clique=True)
        roles = _ab_roles(n)
    elif fam is Family.THICK_SPIDER:
        g = _build_two_sided(n, lambda i, j: i != j, b_clique=True)
        roles = _ab_roles(n)
    elif fam is Family.MATCHING:
        g = _build_two_sided(n, lambda i, j: i == j, b_clique=False)
        roles = _ab_roles(n)
    elif fam is Family.LINE_K2N or fam is Family.COMPL_LINE_K2N:
        edges = [(i - 1, n + i - 1) for i in range(1, n + 1)]
        for s in range(n):
            for t in range(s + 1, n):
                edges.append((s, t))
                edges.append((n + s, n + t))
        g = Graph.from_edges(2 * n, edges)
        if fam is Family.COMPL_LINE_K2N:
            g = complement(g)
        roles = _ab_roles(n)
    elif fam is Family.SUBDIVIDED_STAR:
        edges = [(i, n + i) for i in range(n)] + [(n + i, 2 * n) for i in range(n)]
        g = Graph.from_edges(2 * n + 1, edges)
        roles = _ab_roles(n) + ["center"]
    elif fam is Family.PRIME_CHAIN:
        # canonical representative: the path, whose natural order is a chain
        g = Graph.path(n + 1)
        roles = [f"v{i}" for i in range(n + 1)]
    else:  # pragma: no cover
        raise AssertionError(f"unhandled family {fam}")

    if fid.complemented:
        g = complement(g)
    return LabeledFamilyGraph(g, tuple(roles))


@lru_cache(maxsize=512)
def _pattern(fid: FamilyId) -> Graph:
    return generate(fid).graph


# ---------------------------------------------------------------------------
# Induced-copy search: exact backtracking over bitmask candidate domains, the
# one search engine (``_embed``) behind induced copies, pattern automorphisms,
# isomorphism, induced paths and Ramsey cliques.  It is one loop over an
# explicit per-depth stack, so its depth is not bounded by the recursion limit.
# Each pattern is compiled once into its search order, each depth's degree,
# and each depth's flags for the deeper vertices: whether each is adjacent to
# the depth's vertex, and whether it is an orbit-mate, a vertex to which an
# automorphism fixing the shallower ones maps it.  A host vertex is a
# candidate when its degree and co-degree are at least the pattern vertex's
# (``_degree_masks``, one mask per distinct degree per call); the search then
# keeps one domain per depth and filters the deeper ones with the chosen host
# vertex's row or complement row.  An orbit-mate's domain is also cut to host
# vertices above the chosen one, so the search does not walk the relabellings
# of a partial copy by pattern automorphisms.  The deeper domains are filtered
# deepest first, and a placement is dropped when some deepest j of them, or
# some shallowest j of them, hold fewer than j host vertices between them (an
# all-different cut tested from both ends).
# None of these cuts changes the first match (see ``find_induced_embedding``).
# ---------------------------------------------------------------------------

def _search_order(pat: Graph) -> list[int]:
    # descending degree, tie-broken toward vertices anchored to placed ones
    placed: list[int] = []
    placed_mask = 0
    remaining = set(range(pat.n))
    while remaining:
        best = min(
            remaining,
            key=lambda v: (-pat.degree(v), -(pat.rows[v] & placed_mask).bit_count(), v),
        )
        placed.append(best)
        placed_mask |= 1 << best
        remaining.remove(best)
    return placed


def _degree_masks(host: Graph, degs: tuple[int, ...]) -> list[int] | None:
    """Per depth, the host vertices whose degree and co-degree are at least
    those of the pattern vertex placed there: for pattern degree d, host
    degrees d to d + host.n - pat.n.  None when a depth has no candidate.
    Each distinct degree's mask is built once."""
    slack = host.n - len(degs)
    by_degree = [0] * host.n
    for v, r in enumerate(host.rows):
        by_degree[r.bit_count()] |= 1 << v
    # the degree classes are disjoint, so their sum is their union
    masks = {d: sum(by_degree[d:d + slack + 1]) for d in set(degs)}
    if not all(masks.values()):
        return None
    return [masks[d] for d in degs]


def _window_short(domains) -> bool:
    """Whether the first j of ``domains`` hold fewer than j host vertices
    between them, for some j."""
    union = 0
    for j, d in enumerate(domains, 1):
        union |= d
        if union.bit_count() < j:
            return True
    return False


def _embed(
    rows: tuple[int, ...], flags: tuple, doms: list[int], cap: float = math.inf
) -> list[int] | None:
    """The host vertex chosen at each depth in the first complete assignment
    of the backtracking search, or None.  ``rows`` are the host's rows,
    ``doms`` each depth's initial domain, and ``flags`` as in ``_compile``;
    depths are placed in order, each one's candidates in ascending host
    index.  The search expands at most ``cap`` partial assignments below the
    last depth; when it needs more it returns None, so with a finite cap a
    None is not a proof of absence.

    The search is one loop over an explicit stack, so its depth is not
    bounded by Python's recursion limit.  The depth being placed keeps its
    untried candidates and the domains of the deeper depths, deepest first
    (each flag tuple is reversed once on entry to match); the stack keeps
    the same pair for each shallower depth, to resume when this one runs
    out.  A placement filters the deeper domains in that order and is
    dropped as soon as one is empty or the deepest j of them hold at most
    j - 1 host vertices between them: those j depths need j distinct ones,
    and every domain already excludes each placed vertex.  A placement that
    passes is tested from the other end too (``_window_short``), and
    dropped when the next j depths hold fewer than j; the test is skipped
    when the next depth's domain is too large for any such window to be
    short.  This is the cheapest part of all-different propagation (Regin,
    AAAI 1994); it cuts only subtrees with no complete assignment.  A depth
    with an orbit-mate (a deeper flag with bit 1 set) also cuts that mate's
    domain to host vertices above the one it places."""
    full = (1 << len(rows)) - 1
    # filters[v][flag & 1]: the complement row and the row of host vertex v
    filters = [(full ^ r ^ (1 << v), r) for v, r in enumerate(rows)]
    flags = [f[::-1] for f in flags]
    breaking = [max(f, default=0) > 1 for f in flags]
    last = len(doms) - 1
    if not last:
        return [(doms[0] & -doms[0]).bit_length() - 1]
    if cap < 1:  # depth 0 is the first expansion
        return None
    chosen = [0] * len(doms)
    k, nodes = 0, 1
    # depth k's untried candidates, and tail[i] the domain of depth last - i
    dom, tail = doms[0], doms[:0:-1]
    stack = []  # the same pair for each shallower depth
    while True:
        if not dom:
            if not stack:
                return None
            k -= 1
            dom, tail = stack.pop()
            continue
        low = dom & -dom
        dom ^= low
        v = low.bit_length() - 1
        filt = filters[v]
        if breaking[k]:
            # flags 2 and 3 also keep only host vertices above v
            crow, row = filt
            above = -(low << 1)
            filt = (crow, row, crow & above, row & above)
        nxt = []
        union = 0
        for d, f in zip(tail, flags[k]):
            d &= filt[f]
            union |= d
            if not d or union.bit_count() <= len(nxt):
                break
            nxt.append(d)
        else:
            # every window but the full one, tested above, holds the
            # next depth's domain, so none is short while it is this large
            if nxt[-1].bit_count() < len(nxt) - 1 and _window_short(reversed(nxt)):
                continue
            chosen[k] = v
            k += 1
            if k == last:
                chosen[k] = (nxt[0] & -nxt[0]).bit_length() - 1
                return chosen
            nodes += 1
            if nodes > cap:
                return None
            stack.append((dom, tail))
            dom, tail = nxt.pop(), nxt


def _stabilizer_orbits(
    pat: Graph, order: tuple[int, ...], adjacency: tuple, degs: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Per depth k, the vertices w != ``order[k]``, ascending, such that some
    automorphism of ``pat`` fixes each of ``order[:k]`` and maps ``order[k]``
    to w.  Exact: each w is kept only when ``_embed`` finds an embedding of
    ``pat`` into itself with ``order[:k]`` pinned to itself and ``order[k]``
    on w, which between graphs of equal order is an automorphism.  Each
    depth's candidates start as the vertices of its vertex's degree."""
    doms = _degree_masks(pat, degs)  # each vertex is its own candidate
    full = (1 << pat.n) - 1
    mates = []
    for k, u in enumerate(order):
        # doms[i] is the domain of depth k + i with order[:k] pinned to itself
        mates.append(tuple(
            w for w in bits(doms[0] & ~(1 << u))
            if _embed(pat.rows, adjacency[k:], [1 << w] + doms[1:]) is not None
        ))
        row = pat.rows[u]
        filt = (full ^ row ^ (1 << u), row)
        doms = [d & filt[a] for d, a in zip(doms[1:], adjacency[k])]
    return tuple(mates)


def _compile_pattern(pat: Graph) -> tuple[
    tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]
]:
    """``(order, flags, degs)`` for a pattern: the search order; per depth
    k, a flag for each of ``order[k+1:]``, bit 0 set when it is adjacent to
    ``order[k]`` and bit 1 when it is one of ``order[k]``'s orbit-mates
    (``_stabilizer_orbits``); per depth, the degree of ``order[k]``, whose
    degree and co-degree a host vertex must match or exceed to be a
    candidate (``_degree_masks``)."""
    order = tuple(_search_order(pat))
    adjacency = tuple(
        tuple(int(pat.adjacent(u, w)) for w in order[k + 1:]) for k, u in enumerate(order)
    )
    degs = tuple(pat.degree(u) for u in order)
    mates = _stabilizer_orbits(pat, order, adjacency, degs)
    flags = tuple(
        tuple(a | (w in mates[k]) << 1 for a, w in zip(adjacency[k], order[k + 1:]))
        for k in range(len(order))
    )
    return order, flags, degs


# Only patterns that recur go through the cache: family patterns and Ramsey
# cliques.  Isomorphism inputs rarely repeat, so ``find_isomorphism``
# compiles outside it and cannot evict them.
_compile = lru_cache(maxsize=512)(_compile_pattern)


def find_induced_copy(host: Graph, fid: FamilyId) -> tuple[int, ...] | None:
    """Exact search for an induced embedding of the family into ``host``.

    Returns host vertices in pattern order, or None when no embedding exists.
    First match under the fixed search order wins, so results are stable.
    A theorem pattern is not searched when a core pattern inside it has no
    copy in ``host`` (``_core_misses``): it then has none either.
    """
    pat = _pattern(fid)
    if pat.n > host.n or _core_misses(host, fid):
        return None
    return find_induced_embedding(host, pat)


def find_induced_embedding(host: Graph, pat: Graph) -> tuple[int, ...] | None:
    """First induced embedding of ``pat`` into ``host``, or None.

    Returns host vertices in pattern order.  The result is the first
    complete assignment of a backtracking search (``_embed``) that places
    pattern vertices in the fixed order of ``_search_order`` and tries each
    one's candidates in ascending host index; a candidate's degree and
    co-degree must be at least the pattern vertex's, and every placement
    filters the domains of the vertices still to place.
    Witness output is pinned to this first match: the search order and the
    ascending candidate order are part of the output contract, while
    pruning that only cuts subtrees holding no complete assignment leaves
    it unchanged.  Two cuts of that kind are made: the orbit cuts below,
    and the all-different cut of ``_embed``, which drops a placement when
    the deepest j or the shallowest j of the depths still to place cannot
    land on j distinct host vertices.
    The same engine finds the pattern's automorphisms (``_stabilizer_orbits``),
    decides isomorphism (``find_isomorphism``), finds induced paths
    (``_find_induced_path``) and, with K_t as the pattern, Ramsey cliques
    (``extraction.ramsey_monochromatic``).

    Symmetry breaking: when depth k places host vertex v, every orbit-mate
    w of ``order[k]`` (some automorphism fixing ``order[:k]`` maps
    ``order[k]`` to w) must go to a host vertex above v.  This keeps the
    first match phi*, the least embedding in search order: for any
    automorphism s, phi* o s is an embedding too, so at the first vertex x
    in search order that s moves, phi*(x) < phi*(s(x)), and every
    constraint added is of this form.  The constrained search thus walks a
    subset of the unconstrained tree in the same order, still reaches phi*
    first, and a miss is still a proof of absence.
    """
    if pat.n > host.n:
        return None
    return _first_embedding(host, _compile(pat))


def _first_embedding(host: Graph, compiled: tuple) -> tuple[int, ...] | None:
    """``find_induced_embedding`` for a pattern compiled as by ``_compile``."""
    order, flags, degs = compiled
    if not order:
        return ()
    doms = _degree_masks(host, degs)
    if doms is None:
        return None
    chosen = _embed(host.rows, flags, doms)
    if chosen is None:
        return None
    assign = [0] * len(order)
    for k, u in enumerate(order):
        assign[u] = chosen[k]
    return tuple(assign)


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """One adjacency-preserving bijection g -> h, or None: between graphs of
    equal order, an induced embedding of g into h."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    return _first_embedding(h, _compile_pattern(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def check_witness(g: Graph, w: Witness | ChainWitness) -> bool:
    """Re-validate a witness against its generator (edges and non-edges)."""
    if isinstance(w, ChainWitness):
        if w.length < 3:
            return False
        ok, _ = chains.validate_chain(g, w.chain)
        return ok and chains._induces_prime(g, w.chain)
    pat = _pattern(w.family)
    emb = w.embedding
    if len(emb) != pat.n or len(set(emb)) != len(emb):
        return False
    if any(not 0 <= v < g.n for v in emb):
        return False
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            if pat.adjacent(i, j) != g.adjacent(emb[i], emb[j]):
                return False
    return True


def require_valid(g: Graph, w: Witness | ChainWitness, what: str) -> Witness | ChainWitness:
    """Return ``w`` if it re-validates against ``g``; otherwise raise
    RuntimeError naming the witness.  An explicit check, so that ``python -O``
    does not strip it as it would an ``assert``."""
    if not check_witness(g, w):
        raise RuntimeError(f"{what} witness failed re-validation")
    return w


# ---------------------------------------------------------------------------
# Combined search over the theorem's outcome list, and its miss certificates.
# The core patterns at size n are K_n, its complement E_n, and the proof's
# two intermediate outcomes, an induced matching and a half split, with their
# complements.  If a core P is an induced subgraph of a theorem pattern Q
# (psi embeds P into Q) and Q has an induced copy phi in the host, then
# phi o psi is an induced copy of P in the host.  So an exact miss of P
# proves a miss of Q, and ``find_induced_copy`` returns None for Q without
# searching it.  K_n and E_n come first: the proof starts from Ramsey, and
# every theorem pattern at size n holds an n-clique or an n-stable set, so
# a host whose clique and stable sets all have fewer than n vertices is
# cleared of all twelve patterns by two clique searches.  Before K_n is
# searched, the host is coloured greedily, largest degree first (before E_n,
# its complement is); a proper colouring with fewer than n colours proves
# that K_n misses, with no search.  Each core is searched at most once per
# host, and both its hits and its misses are kept.  The prime-chain fallback
# first searches an induced path, whose reversal it does not walk: the
# path's last vertex is flagged as the first one's orbit-mate.
# ---------------------------------------------------------------------------

THEOREM_FAMILY_ORDER = (
    Family.SUBDIVIDED_STAR,
    Family.LINE_K2N,
    Family.THIN_SPIDER,
    Family.HALF_GRAPH,
    Family.HALF_SPLIT_APEX,
    Family.HALF_SPLIT_PENDANT,
)

CORE_FAMILIES = (Family.MATCHING, Family.HALF_SPLIT)


@lru_cache(maxsize=512)
def _cores_inside(fid: FamilyId) -> tuple[Graph, ...]:
    """The core patterns at size ``fid.n`` that are induced subgraphs of
    theorem pattern ``fid``, in the order they are searched: K_n, E_n, then
    ``CORE_FAMILIES`` and their complements.  Each is kept when a search for
    it in the pattern itself finds it; () for other patterns."""
    if fid.family not in THEOREM_FAMILY_ORDER:
        return ()
    pat = _pattern(fid)
    cores = [Graph.complete(fid.n), Graph.empty(fid.n)] + [
        _pattern(FamilyId(fam, fid.n, comp)) for fam in CORE_FAMILIES for comp in (False, True)
    ]
    return tuple(c for c in cores if find_induced_embedding(pat, c) is not None)


@lru_cache(maxsize=1)
def _core_outcomes(rows: tuple[int, ...]) -> dict[Graph, bool]:
    """Whether each core pattern (a graph from ``_cores_inside``) decided so
    far in the host with these rows has an induced copy there, by a search
    or, for a K_n or E_n miss, by a colouring (``_core_found``).  One entry,
    keyed on the rows: the searches of one ``find_witness_any`` call share
    their host."""
    return {}


def _core_misses(host: Graph, fid: FamilyId) -> bool:
    """Whether some core pattern inside ``fid`` has no induced copy in
    ``host``, deciding each core whose outcome in this host is not yet
    known (``_core_found``) and stopping at the first miss."""
    cores = _cores_inside(fid)
    if not cores:
        return False
    known = _core_outcomes(host.rows)
    if any(known.get(c) is False for c in cores):
        return True
    for core in cores:
        if core not in known:
            known[core] = _core_found(host, core)
            if not known[core]:
                return True
    return False


def _core_found(host: Graph, core: Graph) -> bool:
    """Whether ``core`` has an induced copy in ``host``.  Before K_n is
    searched, the host is coloured greedily (before E_n, its complement):
    a proper colouring with fewer than n colours leaves no n-clique."""
    edges = core.edge_count()
    if edges == 0 and _colours_fewer_than(complement(host).rows, core.n):
        return False
    if 2 * edges == core.n * (core.n - 1) and _colours_fewer_than(host.rows, core.n):
        return False
    return find_induced_embedding(host, core) is not None


def _colours_fewer_than(rows: tuple[int, ...], t: int) -> bool:
    """Whether the largest-first greedy colouring (Welsh and Powell, 1967)
    of the graph with these rows uses fewer than t colours: vertices by
    descending degree, ties by ascending index, each into the first colour
    class that holds none of its neighbours.  Stops once t - 1 classes
    fail to take a vertex."""
    degree = [r.bit_count() for r in rows]
    classes: list[int] = []
    for v in sorted(range(len(rows)), key=degree.__getitem__, reverse=True):
        row = rows[v]
        for i, c in enumerate(classes):
            if not row & c:
                classes[i] = c | 1 << v
                break
        else:
            if len(classes) == t - 1:
                return False
            classes.append(1 << v)
    return True


def find_witness_any(host: Graph, n: int) -> Witness | ChainWitness | None:
    """First verified outcome witness under the fixed family order, or None.

    Tries the six generated families and their complements, then falls back
    to a greedy prime-chain search of length exactly n.  A theorem pattern
    with a missing core pattern is not searched (see the section comment);
    that pattern has no copy, so ``find_induced_copy`` returns None for it
    either way, and the patterns are tried in the same order: the first hit
    and its embedding are those of searching every pattern in turn.  Every
    pattern holds K_n or E_n, so on a host with no clique or stable set of
    n vertices no pattern is searched at all.
    """
    if n < 3:
        raise ValueError("outcome size must be at least 3")
    # every theorem family has 2n or 2n + 1 vertices; none fits a smaller
    # host, so none is built for it
    fams = THEOREM_FAMILY_ORDER if 2 * n <= host.n else ()
    for fam in fams:
        for comp in (False, True):
            fid = FamilyId(fam, n, comp)
            emb = find_induced_copy(host, fid)
            if emb is not None:
                return require_valid(
                    host, Witness(fid, emb, provenance="direct-search"), f"{fid} family"
                )
    seq = find_prime_chain(host, n)
    if seq is not None:
        return require_valid(host, ChainWitness(seq, provenance="direct-search"), "prime-chain")
    return None


# find_prime_chain tries every seed pair on hosts of up to ALL_PAIRS_MAX_N
# vertices and the first PAIR_CAP pairs on larger ones, reading chains only
# from a pair whose search reaches n - 1 levels; the induced-path search
# gives up after PATH_NODE_BUDGET search nodes, counted as ``_embed``'s
# expansions.  Outputs depend on all three.
ALL_PAIRS_MAX_N = 64
PAIR_CAP = 512
PATH_NODE_BUDGET = 200_000


def find_prime_chain(host: Graph, n: int) -> tuple[int, ...] | None:
    """Greedy search for a chain of length exactly n inducing a prime subgraph.

    First looks for an induced path with n edges (the simplest prime chain),
    then runs the constructive chain search from vertex pairs in
    lexicographic order, walking targets farthest-first and trimming longer
    chains down to length n (trims preserve prime induction).  Chains are
    read off a pair's breadth-first levels only when it reaches n - 1 of
    them, the depth a chain of length n needs.  Greedy, not exhaustive: a
    None is not a proof of absence.  Hosts of more than ``ALL_PAIRS_MAX_N``
    vertices try only the first ``PAIR_CAP`` seed pairs.
    """
    if n < 3:
        raise ValueError("outcome size must be at least 3")
    if host.n < n + 1:
        return None
    path = _find_induced_path(host, n)
    if path is not None:
        return path
    pairs = itertools.combinations(range(host.n), 2)
    if host.n > ALL_PAIRS_MAX_N:
        pairs = itertools.islice(pairs, PAIR_CAP)
    for u, v in pairs:
        seq = _prime_chain_from_pair(host, u, v, n)
        if seq is not None:
            return seq
    return None


def _find_induced_path(host: Graph, n: int) -> tuple[int, ...] | None:
    """First induced path with n edges, lowest start and extension first, or
    None; gives up after ``PATH_NODE_BUDGET`` search nodes.  Pattern vertex
    d is placed at depth d: adjacent to the next one, non-adjacent to the
    later ones.  The path's reversal maps its first vertex to its last, so
    the last is flagged as the first one's orbit-mate and goes to a host
    vertex above it: the search does not walk each path's reversal, and
    keeps the first path (``find_induced_embedding``)."""
    flags = tuple(
        tuple(int(w == d + 1) | (d == 0 and w == n) << 1 for w in range(d + 1, n + 1))
        for d in range(n + 1)
    )
    chosen = _embed(host.rows, flags, [host.vertex_mask()] * (n + 1), PATH_NODE_BUDGET)
    return None if chosen is None else tuple(chosen)


def _prime_chain_from_pair(host: Graph, u: int, v: int, n: int) -> tuple[int, ...] | None:
    """First prime chain of length n from the seed pair {u, v}, or None.

    The chain to a vertex at depth d of ``_reach``'s breadth-first search
    has length d + 1, so the targets are the vertices of depth at least
    n - 1, walked deepest level first and each level in ascending index;
    each chain is read off the search's levels, and chains longer than n
    are trimmed.  A pair whose search has fewer than n - 1 levels returns
    None before any chain is read."""
    imask = (1 << u) | (1 << v)
    complete, levels = _reach(host, imask)
    if len(levels) < n - 1:
        return None
    for k in reversed(range(n - 2, len(levels))):
        for t in bits(levels[k]):
            seq = chains._chain_from_levels(host, imask, complete, levels[:k + 1], t)
            while len(seq) - 1 > n:
                seq = chains.trim_chain_to_prime(host, seq)
            if chains._induces_prime(host, seq):
                return seq
    return None
