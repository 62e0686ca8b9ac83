"""Constructive extraction pipeline: regular triples grown inside a large
independent set, the induced-matching recursion, the half-split escape
analysis, and the driver that composes them into an outcome witness.

The guaranteed thresholds (the functions g, h, f and the final Ramsey split)
are astronomically large, so every stage here runs opportunistically: it
works with whatever sizes the input affords, verifies each produced witness
against its generator, and reports a structured InsufficientSize naming the
stage and deficit instead of demanding paper-scale inputs.  Tie-breaking is
lexicographic by vertex index throughout so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import chains as chainmod
from . import families as fam
from . import homogeneous
from .families import Family, FamilyId, check_witness, require_valid
from .graphs import Graph, bits, complement, mask_of
from .witnesses import ChainWitness, InsufficientSize, NotPrimeError, Witness

# ---------------------------------------------------------------------------
# Bound arithmetic.  Exact big integers while both the value size and the
# computation cost stay under caps; beyond them, a Huge marker carrying a
# certified lower bound on the bit length, so the monotone comparisons the
# tests need remain sound (every construction here is monotone in each
# argument).
# ---------------------------------------------------------------------------

CAP_BITS = 1 << 20       # materialize values up to ~315k decimal digits
WORK_CAP = 1 << 27       # rough word-op budget for one exact multinomial


@dataclass(frozen=True)
class Huge:
    """Stand-in for a bound too large (or too costly) to materialize.

    ``kind`` names the construction and ``key`` its integer arguments.
    ``min_bits`` is a proven lower bound on the value's bit length.
    """

    kind: str
    key: tuple
    min_bits: int

    def __str__(self) -> str:
        args = ",".join(str(k) for k in self.key)
        return f"huge[{self.kind}({args})]>=2^{self.min_bits}"


def _multinomial_estimates(total: int, parts: Sequence[int]) -> tuple[float, float, int]:
    """(upper bits estimate, work estimate, certified lower bits) for
    multinomial(total; parts), cheap even when ``total`` is a big integer."""
    log2_total = float(total.bit_length())
    ordered = sorted(parts)
    est_bits = 0.0
    work = 0.0
    for k in ordered[:-1]:
        if k <= 0:
            continue
        est_bits += k * max(1.0, log2_total - math.log2(k) + 1.443)
        work += float(k) * float(k) * log2_total / 64.0
    min_bits = 0
    half = total // 2
    for k in ordered:
        if 0 < k <= half:
            # multinomial >= C(total, k) >= (total/k)^k
            lb = int(k * max(0.0, log2_total - 1.0 - math.log2(k)))
            min_bits = max(min_bits, lb)
    return est_bits, work, min_bits


def ramsey_upper_bound(sizes: Sequence[int]):
    """Multicolor Ramsey upper bound: multinomial(sum(n_i - 1); n_i - 1) + 1.

    Exact when the value is materializable within the caps, else Huge.
    """
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("Ramsey sizes must be positive")
    parts = [s - 1 for s in sizes]
    total = sum(parts)
    est_bits, work, min_bits = _multinomial_estimates(total, parts)
    if est_bits > CAP_BITS or work > WORK_CAP:
        return Huge("ramsey-upper", sizes, max(1, min(min_bits, CAP_BITS + 1)))
    val = 1
    rem = total
    for k in sorted(parts):
        val *= math.comb(rem, k)
        rem -= k
    return val + 1


def g_bound(n: int) -> int:
    """Half-split threshold: 4^(n-2) * (n+1) + 2(n-2) + 1."""
    if n < 2:
        raise ValueError("half-split threshold needs n >= 2")
    return 4 ** (n - 2) * (n + 1) + 2 * (n - 2) + 1


def h_bound(n: int, nprime: int, i: int):
    """Matching-recursion threshold: h(n,n',2) = n and
    h(n,n',i) = (n-1) * R(n,...,n, n', n', h(n,n',i-1)) + 1 with seven n's.
    """
    if n < 1 or nprime < 1:
        raise ValueError("h needs positive n, n'")
    if i < 2:
        raise ValueError("h is defined for i >= 2")
    if n == 1:
        return 1  # each step is (1 - 1) * r + 1
    val = n
    for step in range(3, i + 1):
        r = ramsey_upper_bound((n,) * 7 + (nprime, nprime, val))
        if isinstance(r, Huge):
            # for n >= 2 h only grows with more recursion steps, so r's floor holds
            return Huge("h", (n, nprime, i), r.min_bits)
        val = (n - 1) * r + 1
        if val.bit_length() > CAP_BITS:
            return Huge("h", (n, nprime, i), CAP_BITS + 1)
    return val


@dataclass(frozen=True)
class BoundSpec:
    """The composed thresholds for one target size n.

    ``h_tower[t-2]`` is h(n, g, t); ``matching_size`` = h(n, g, n) is the
    matching the driver would need, ``m`` the four-color Ramsey bound fed by
    it, ``independent_size`` = 2^(m+1) the independent set the growth stage
    would need, and ``vertex_threshold`` the final two-color split R(m', m')
    with m' = independent_size.
    """

    n: int
    g: int
    h_tower: tuple
    matching_size: object
    m: object
    independent_size: object
    vertex_threshold: object


def bounds(n: int) -> BoundSpec:
    """Exact (or Huge-marked) evaluation of every threshold for size n."""
    if n < 3:
        raise ValueError("bounds need n >= 3")
    g = g_bound(n)
    tower = tuple(h_bound(n, g, i) for i in range(2, n + 1))
    hval = tower[-1]
    if isinstance(hval, Huge):
        m = Huge("thm-m", (n,), hval.min_bits)
    else:
        m = ramsey_upper_bound((hval + n, 2 * n - 1, n + g, n + g - 1))
        if isinstance(m, Huge):
            m = Huge("thm-m", (n,), m.min_bits)
    if isinstance(m, int) and m + 1 <= CAP_BITS:
        f = 1 << (m + 1)
    else:
        # f = 2^(m+1) dwarfs anything materializable
        f = Huge("thm-f", (n,), CAP_BITS + 1)
    if isinstance(f, int):
        big_n = ramsey_upper_bound((f, f))
        if isinstance(big_n, Huge):
            big_n = Huge("thm-N", (n,), big_n.min_bits)
    else:
        big_n = Huge("thm-N", (n,), CAP_BITS + 1)
    return BoundSpec(n, g, tower, hval, m, f, big_n)


# ---------------------------------------------------------------------------
# Exact monochromatic Ramsey search.
# ---------------------------------------------------------------------------

class EdgeColoring:
    """Total edge coloring of a complete graph on vertices 0..m-1, kept as
    one bitset graph row list per color: bit j of ``_rows[c][i]`` is set iff
    the pair (i, j) has color id c."""

    __slots__ = ("m", "palette", "_rows")

    def __init__(self, m: int, palette: Sequence, rows: Sequence[Sequence[int]]):
        self.m = m
        self.palette = tuple(palette)
        self._rows = tuple(tuple(r) for r in rows)

    @classmethod
    def from_function(cls, m: int, palette: Sequence, fn) -> "EdgeColoring":
        palette = tuple(palette)
        index = {c: i for i, c in enumerate(palette)}
        rows = [[0] * m for _ in palette]
        for i in range(m):
            for j in range(i + 1, m):
                c = fn(i, j)
                if c not in index:
                    raise ValueError(f"color {c!r} of pair ({i},{j}) not in palette")
                r = rows[index[c]]
                r[i] |= 1 << j
                r[j] |= 1 << i
        return cls(m, palette, rows)


def ramsey_monochromatic(
    coloring: EdgeColoring, targets: Sequence[int]
) -> tuple[int, frozenset[int]] | None:
    """Exact search for a monochromatic set: color id c and a vertex set of
    size targets[c] whose induced pairs all carry color c.

    Colors are tried in palette order and cliques lexicographically, so the
    result is deterministic.  None means no color admits its target size.
    """
    k = len(coloring.palette)
    if len(targets) != k:
        raise ValueError(f"need {k} targets, got {len(targets)}")
    m = coloring.m
    for c, t in enumerate(targets):
        if t < 0:
            raise ValueError("targets must be non-negative")
        if t > m:
            continue
        # each vertex of K_t has every later one as an orbit-mate, so the
        # first embedding is ascending: the lexicographically first clique
        found = fam.find_induced_embedding(
            Graph._trusted(m, coloring._rows[c]), Graph.complete(t)
        )
        if found is not None:
            return c, frozenset(found)
    return None


# ---------------------------------------------------------------------------
# Regular triples.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularTriple:
    """A regular triple (A, X, Y): A union X is independent, and each y_i is
    either adjacent to x_i and anticomplete to the later x's and A, or
    non-adjacent to x_i and complete to them (earlier x's unconstrained)."""

    a_set: frozenset[int]
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @classmethod
    def initial(cls, independent: Iterable[int]) -> "RegularTriple":
        return cls(frozenset(independent), (), ())


def grow_regular_triple(g: Graph, t: RegularTriple) -> RegularTriple:
    """One growth step: move a vertex of A to X, add a mixed vertex to Y,
    and keep the majority side of A.  Requires 1 < |A| < |V| and a prime
    host; |A'| >= ceil(|A|/2).
    """
    amask = mask_of(t.a_set)
    asize = amask.bit_count()
    if not 1 < asize < g.n:
        raise ValueError("growth needs 1 < |A| < |V|")
    rows = g.rows
    union = 0
    inter = g.vertex_mask()
    for a in bits(amask):
        union |= rows[a]
        inter &= rows[a]
    mixed = union & ~inter & ~amask
    if not mixed:
        raise AssertionError(
            "no vertex is mixed on A; the host cannot be prime with 1 < |A| < |V|"
        )
    y = (mixed & -mixed).bit_length() - 1
    ay = rows[y] & amask
    if 2 * ay.bit_count() >= asize:
        new_a = ay
        pool = amask & ~rows[y]
    else:
        new_a = amask & ~rows[y]
        pool = ay
    x = (pool & -pool).bit_length() - 1
    return RegularTriple(frozenset(bits(new_a)), t.xs + (x,), t.ys + (y,))


# ---------------------------------------------------------------------------
# Extraction from a large independent set.
# ---------------------------------------------------------------------------

_PALETTE_AB = ((0, 0), (1, 0), (0, 1), (1, 1))


def extract_from_independent_set(
    g: Graph, independent: Iterable[int], n: int, n1: int, n2: int
) -> Witness:
    """Grow a regular triple inside the independent set, two-bit color the
    index pairs, find a monochromatic set, and read off a witness:
    spider(n), complement of the K_{2,n} line graph, half-graph(n),
    n1 disjoint edges, or half split(n2).

    The host must be prime.  Raises InsufficientSize when the triple or the
    monochromatic search comes up short.
    """
    if min(n, n1, n2) < 1:
        raise ValueError("target sizes must be positive")
    s_sorted = sorted(set(independent))
    smask = mask_of(s_sorted)
    for v in s_sorted:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if g.rows[v] & smask:
            raise ValueError("seed set is not independent")
    if len(s_sorted) < 2:
        raise InsufficientSize("independent-set:grow", 2, len(s_sorted))
    if len(s_sorted) >= g.n:
        raise ValueError("independent seed spans the whole graph; host cannot be prime")

    triple = RegularTriple.initial(s_sorted)
    while len(triple.a_set) > 1:
        triple = grow_regular_triple(g, triple)
    xs, ys = triple.xs, triple.ys
    m = len(xs)

    coloring = EdgeColoring.from_function(
        m,
        _PALETTE_AB,
        lambda i, j: (
            1 if g.adjacent(xs[i], ys[j]) else 0,
            1 if g.adjacent(ys[i], ys[j]) else 0,
        ),
    )
    targets = (n1 + n, 2 * n - 1, n + n2, n + n2 - 1)
    found = ramsey_monochromatic(coloring, targets)
    if found is None:
        raise InsufficientSize(
            "independent-set:ramsey", ramsey_upper_bound(targets), m
        )
    cid, iset = found
    witness = _witness_from_pair_color(
        g, xs, ys, sorted(iset), _PALETTE_AB[cid], n, n1, n2
    )
    return require_valid(g, witness, "independent-set")


def _witness_from_pair_color(
    g: Graph,
    xs: Sequence[int],
    ys: Sequence[int],
    sel: Sequence[int],
    color: tuple[int, int],
    n: int,
    n1: int,
    n2: int,
) -> Witness:
    """Case split on the monochromatic color (a, b) over selected indices."""
    i1 = [i for i in sel if g.adjacent(xs[i], ys[i])]
    i2 = [i for i in sel if not g.adjacent(xs[i], ys[i])]
    a, b = color
    tag = f"independent-set[{color}]"

    def wit(family: Family, size: int, emb: Sequence[int]) -> Witness:
        return Witness(FamilyId(family, size), tuple(emb), provenance=tag)

    if (a, b) == (0, 0):
        if len(i1) >= n1:
            pick = i1[:n1]
            return wit(Family.MATCHING, n1, [xs[i] for i in pick] + [ys[i] for i in pick])
        assert len(i2) >= n + 1, "pigeonhole failed; targets too small"
        return wit(
            Family.HALF_GRAPH,
            n,
            [xs[i2[s]] for s in range(1, n + 1)] + [ys[i2[t]] for t in range(n)],
        )
    if (a, b) == (1, 0):
        if len(i1) >= n:
            pick = i1[:n]
            return wit(Family.HALF_GRAPH, n, [ys[i] for i in pick] + [xs[i] for i in pick])
        assert len(i2) >= n, "pigeonhole failed; targets too small"
        pick = i2[:n]
        return wit(Family.COMPL_LINE_K2N, n, [xs[i] for i in pick] + [ys[i] for i in pick])
    if (a, b) == (0, 1):
        if len(i1) >= n:
            pick = i1[:n]
            return wit(Family.THIN_SPIDER, n, [xs[i] for i in pick] + [ys[i] for i in pick])
        assert len(i2) >= n2 + 1, "pigeonhole failed; targets too small"
        return wit(
            Family.HALF_SPLIT,
            n2,
            [xs[i2[s]] for s in range(1, n2 + 1)] + [ys[i2[t]] for t in range(n2)],
        )
    if (a, b) == (1, 1):
        if len(i1) >= n2:
            pick = i1[:n2]
            rev = pick[::-1]
            return wit(Family.HALF_SPLIT, n2, [xs[i] for i in rev] + [ys[i] for i in rev])
        assert len(i2) >= n, "pigeonhole failed; targets too small"
        pick = i2[:n]
        return wit(Family.THICK_SPIDER, n, [xs[i] for i in pick] + [ys[i] for i in pick])
    raise AssertionError(f"unknown color {color}")


# ---------------------------------------------------------------------------
# Extraction from a large induced matching.
# ---------------------------------------------------------------------------

_PALETTE_ABC = (
    (1, 0, 0),
    (1, 1, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (2, 2, 2),
    (3, 3, 3),
    (0, 0, 0),  # the recursion color goes last so direct outcomes win ties
)


def _mixed_on_edge(g: Graph, w: int, e: tuple[int, int]) -> bool:
    if w in e:
        return False
    return g.adjacent(w, e[0]) != g.adjacent(w, e[1])


def extract_from_matching(
    g: Graph,
    matching: Sequence[tuple[int, int]],
    v: int,
    n: int,
    nprime: int,
    t: int,
    edge_chains: Sequence[Sequence[int]] | None = None,
) -> Witness:
    """Recursion on the chain-length bound t over an induced matching whose
    edges all reach v by chains of length at most t.

    Outcomes: the subdivided star, half-graph(n), complement of the K_{2,n}
    line graph, a spider with n legs, or the half split of height nprime.
    ``edge_chains`` may supply the chains; otherwise shortest chains are
    computed.  The host must be prime when chains are left to be computed.
    """
    if n < 1 or nprime < 1 or t < 2:
        raise ValueError("need n, n' >= 1 and t >= 2")
    edges = [tuple(e) for e in matching]
    emb = tuple(x for x, _ in edges) + tuple(y for _, y in edges)
    probe = Witness(FamilyId(Family.MATCHING, len(edges)), emb)
    # matching:0 has no generator; an empty matching ends in InsufficientSize
    if edges and not check_witness(g, probe):
        raise ValueError("not an induced matching of the host")
    if v in emb:
        raise ValueError("v must not be covered by the matching")

    if edge_chains is None:
        edge_chains = []
        for e in edges:
            c = chainmod.find_chain(g, e, v)
            if c is None:
                raise ValueError(f"no chain from {e} to {v}; host cannot be prime")
            edge_chains.append(c)
    if len(edge_chains) != len(edges):
        raise ValueError("one chain per matching edge required")
    chains_list = [tuple(c) for c in edge_chains]
    for e, c in zip(edges, chains_list):
        ok, bad = chainmod.validate_chain(g, c, source_set=e)
        if not ok:
            raise ValueError(f"supplied sequence for edge {e} is not a chain (index {bad})")
        if c[-1] != v:
            raise ValueError(f"chain for edge {e} does not end at {v}")
        if len(c) - 1 > t:
            raise ValueError(f"chain for edge {e} exceeds length bound {t}")

    return _matching_recursion(g, edges, chains_list, v, n, nprime, t)


def _matching_recursion(g, edges, chains_list, v, n, nprime, t) -> Witness:
    tag = f"matching[t={t}]"

    length2 = [i for i, c in enumerate(chains_list) if len(c) - 1 == 2]
    if len(length2) >= n:
        return _star_witness(g, [edges[i] for i in length2[:n]], v, f"{tag}[base]")
    if t <= 2:
        raise InsufficientSize("matching:base", n, len(length2))

    longer = [i for i, c in enumerate(chains_list) if len(c) - 1 >= 3]
    by_third: dict[int, list[int]] = {}
    for i in longer:
        by_third.setdefault(chains_list[i][2], []).append(i)
    for z, bucket in by_third.items():
        if len(bucket) >= n:
            return _star_witness(g, [edges[i] for i in bucket[:n]], z, f"{tag}[shared-third]")

    dedup = [bucket[0] for _, bucket in sorted(by_third.items(), key=lambda kv: kv[1][0])]
    m2 = len(dedup)

    zs = [chains_list[i][2] for i in dedup]
    ye = []
    xe = []
    for k, i in enumerate(dedup):
        x0, y0 = edges[i]
        if g.adjacent(zs[k], y0):
            xe.append(x0)
            ye.append(y0)
        else:
            assert g.adjacent(zs[k], x0), "third chain vertex must be mixed on its edge"
            xe.append(y0)
            ye.append(x0)

    def pair_color(i: int, j: int):
        ei = (xe[i], ye[i])
        ej = (xe[j], ye[j])
        if _mixed_on_edge(g, zs[i], ej):
            return (2, 2, 2)
        if _mixed_on_edge(g, zs[j], ei):
            return (3, 3, 3)
        return (
            1 if g.adjacent(zs[i], zs[j]) else 0,
            1 if g.adjacent(zs[i], ye[j]) else 0,
            1 if g.adjacent(ye[i], zs[j]) else 0,
        )

    coloring = EdgeColoring.from_function(m2, _PALETTE_ABC, pair_color)
    rec_target = h_bound(n, nprime, t - 1)
    if isinstance(rec_target, Huge) or rec_target > m2:
        rec_target = m2 + 1  # unreachable: the recursion cannot be fed at this scale
    targets = []
    for color in _PALETTE_ABC:
        if color == (0, 0, 0):
            targets.append(rec_target)
        elif color in ((1, 1, 0), (1, 0, 1)):
            targets.append(nprime)
        else:
            targets.append(n)
    found = ramsey_monochromatic(coloring, targets)
    if found is None:
        raise InsufficientSize("matching:ramsey", h_bound(n, nprime, t), len(edges))
    cid, iset = found
    color = _PALETTE_ABC[cid]
    sel = sorted(iset)

    def wit(family: Family, size: int, emb: Sequence[int]) -> Witness:
        w = Witness(FamilyId(family, size), tuple(emb), provenance=f"{tag}[{color}]")
        return require_valid(g, w, "matching")

    if color in ((2, 2, 2), (3, 3, 3)):
        center = zs[sel[0]] if color == (2, 2, 2) else zs[sel[-1]]
        return _star_witness(
            g, [(xe[i], ye[i]) for i in sel], center, f"{tag}[{color}]"
        )
    if color == (1, 0, 0):
        return wit(Family.THIN_SPIDER, n, [ye[i] for i in sel] + [zs[i] for i in sel])
    if color == (1, 1, 1):
        return wit(Family.THICK_SPIDER, n, [xe[i] for i in sel] + [zs[i] for i in sel])
    if color == (1, 1, 0):
        return wit(Family.HALF_SPLIT, nprime, [ye[i] for i in sel] + [zs[i] for i in sel])
    if color == (1, 0, 1):
        rev = sel[::-1]
        return wit(Family.HALF_SPLIT, nprime, [ye[i] for i in rev] + [zs[i] for i in rev])
    if color == (0, 1, 0):
        return wit(Family.HALF_GRAPH, n, [ye[i] for i in sel] + [zs[i] for i in sel])
    if color == (0, 0, 1):
        rev = sel[::-1]
        return wit(Family.HALF_GRAPH, n, [ye[i] for i in rev] + [zs[i] for i in rev])
    if color == (0, 1, 1):
        return wit(Family.COMPL_LINE_K2N, n, [xe[i] for i in sel] + [zs[i] for i in sel])

    assert color == (0, 0, 0)
    new_edges = []
    new_chains = []
    for i in sel:
        new_edges.append((ye[i], zs[i]))
        shorter = tuple(w for w in chains_list[dedup[i]] if w != xe[i])
        ok, bad = chainmod.validate_chain(g, shorter, source_set=new_edges[-1])
        assert ok, f"shortened chain stopped being a chain at index {bad}"
        new_chains.append(shorter)
    return _matching_recursion(g, new_edges, new_chains, v, n, nprime, t - 1)


def _star_witness(g, star_edges, center, provenance) -> Witness:
    """Subdivided-star witness: center plus edges the center is mixed on."""
    k = len(star_edges)
    leaves = []
    mids = []
    for x, y in star_edges:
        if g.adjacent(center, y):
            assert not g.adjacent(center, x), "center not mixed on a star edge"
            leaves.append(x)
            mids.append(y)
        else:
            assert g.adjacent(center, x), "center not mixed on a star edge"
            leaves.append(y)
            mids.append(x)
    w = Witness(
        FamilyId(Family.SUBDIVIDED_STAR, k),
        tuple(leaves + mids + [center]),
        provenance=provenance,
    )
    return require_valid(g, w, "star")


# ---------------------------------------------------------------------------
# Extraction from a tall half split.
# ---------------------------------------------------------------------------

def extract_from_half_split(
    g: Graph, embedding: Sequence[int], n: int
) -> Witness | ChainWitness:
    """Escape analysis of a tall half split embedded in a prime host.

    Either finds a chain of length n+1 (returned trimmed to a prime chain of
    length n) or one of: half split with apex, half split with pendant, or
    the complement of the latter, each of height n.
    """
    if n < 3:
        raise ValueError("target size must be at least 3")
    emb = tuple(embedding)
    if len(emb) % 2 or len(emb) < 4:
        raise ValueError("embedding must list a_1..a_N then b_1..b_N, N >= 2")
    big_n = len(emb) // 2
    probe = Witness(FamilyId(Family.HALF_SPLIT, big_n), emb)
    if not check_witness(g, probe):
        raise ValueError("not an induced half-split embedding")
    avs = emb[:big_n]
    bvs = emb[big_n:]
    rows = g.rows

    source = (avs[-1], bvs[-1])
    ca = chainmod.find_chain(g, source, avs[0])
    cb = chainmod.find_chain(g, source, bvs[0])
    if ca is None and cb is None:
        raise AssertionError("no escape chain exists; the host cannot be prime")
    if cb is None or (ca is not None and len(ca) <= len(cb)):
        chain = ca
    else:
        chain = cb
    if chain[0] != avs[-1]:
        chain = (chain[1], chain[0], *chain[2:])
    t = len(chain) - 1

    if t >= n + 1:
        prefix = chain[: n + 2]
        seq = chainmod.trim_chain_to_prime(g, prefix)
        w = ChainWitness(tuple(seq), provenance="half-split[chain]")
        return require_valid(g, w, "chain")

    interior = chain[2:t]
    interior_set = set(interior)
    assert not interior_set & {avs[0], bvs[0], avs[-1], bvs[-1]}, (
        "a shortest escape chain cannot revisit the half-split frame"
    )
    middle = [
        j
        for j in range(1, big_n - 1)
        if avs[j] not in interior_set and bvs[j] not in interior_set
    ]
    classes: dict[tuple, list[int]] = {}
    for j in middle:
        key = tuple(
            (1 if g.adjacent(u, avs[j]) else 0, 1 if g.adjacent(u, bvs[j]) else 0)
            for u in interior
        )
        classes.setdefault(key, []).append(j)
    best: list[int] = []
    for key in sorted(classes):
        cand = classes[key]
        if len(cand) > len(best) or (len(cand) == len(best) and cand and best and cand[0] < best[0]):
            best = cand
    if len(best) < n:
        raise InsufficientSize("half-split:pigeonhole", g_bound(n), big_n)
    inner = best[:n]
    a_in = [avs[j] for j in inner]
    b_in = [bvs[j] for j in inner]
    amask = mask_of(a_in)
    bmask = mask_of(b_in)

    qual = -1
    for idx, u in enumerate(chain):
        if (rows[u] & amask) == amask or (rows[u] & bmask) == 0:
            qual = idx
            break
    assert qual >= 2, "the chain must leave the half-split pattern after its base"
    ui = chain[qual]
    complete_a = (rows[ui] & amask) == amask
    anti_b = (rows[ui] & bmask) == 0

    if complete_a and anti_b:
        w = Witness(
            FamilyId(Family.HALF_SPLIT_APEX, n),
            tuple(a_in + b_in + [ui]),
            provenance="half-split[apex]",
        )
    elif complete_a:
        assert (rows[ui] & bmask) == bmask, "qualifying vertex must be unmixed on B"
        p = chain[qual - 1] if not g.adjacent(chain[qual - 1], ui) else chain[qual - 2]
        assert not g.adjacent(p, ui), "chain rule guarantees a non-neighbor predecessor"
        assert (rows[p] & amask) == 0 and (rows[p] & bmask) == bmask, (
            "earlier chain vertices stay anticomplete to A and complete to B"
        )
        w = Witness(
            FamilyId(Family.COMPL_HALF_SPLIT_PENDANT, n),
            tuple(b_in[1:] + [p] + a_in + [ui]),
            provenance="half-split[compl-pendant]",
        )
    else:
        assert (rows[ui] & amask) == 0, "qualifying vertex must be unmixed on A"
        q = chain[qual - 1] if g.adjacent(chain[qual - 1], ui) else chain[qual - 2]
        assert g.adjacent(q, ui), "chain rule guarantees a neighbor predecessor"
        assert (rows[q] & amask) == 0 and (rows[q] & bmask) == bmask, (
            "earlier chain vertices stay anticomplete to A and complete to B"
        )
        w = Witness(
            FamilyId(Family.HALF_SPLIT_PENDANT, n),
            tuple(a_in[:-1] + [q] + b_in + [ui]),
            provenance="half-split[pendant]",
        )
    return require_valid(g, w, "half-split")


# ---------------------------------------------------------------------------
# Independent-set discovery (greedy with local search; exact when small).
# ---------------------------------------------------------------------------

EXACT_MIS_LIMIT = 40


def best_independent_set(g: Graph) -> frozenset[int]:
    """A large independent set: exact below EXACT_MIS_LIMIT vertices, else
    greedy plus (1,2)-swap local search.  Deterministic."""
    if g.n == 0:
        return frozenset()
    if g.n < EXACT_MIS_LIMIT:
        return frozenset(bits(_mis_exact(g)))
    return frozenset(bits(_mis_greedy(g)))


def _mis_greedy(g: Graph) -> int:
    rows = g.rows
    full = g.vertex_mask()
    chosen = 0
    avail = full
    while avail:
        bestv = -1
        bestd = g.n + 1
        for v in bits(avail):
            d = (rows[v] & avail).bit_count()
            if d < bestd:
                bestd = d
                bestv = v
        chosen |= 1 << bestv
        avail &= ~(rows[bestv] | (1 << bestv))

    improved = True
    while improved:
        improved = False
        for v in bits(chosen):
            rest = chosen ^ (1 << v)
            free = 0
            for w in range(g.n):
                if (rest >> w) & 1 or w == v:
                    continue
                if rows[w] & rest == 0:
                    free |= 1 << w
            for w1 in bits(free):
                two = free & ~rows[w1] & ~((1 << (w1 + 1)) - 1)
                if two:
                    w2 = (two & -two).bit_length() - 1
                    chosen = rest | (1 << w1) | (1 << w2)
                    improved = True
                    break
            if improved:
                break
    return chosen


def _mis_exact(g: Graph) -> int:
    rows = g.rows
    closed = [rows[v] | (1 << v) for v in range(g.n)]
    best_mask = _mis_greedy(g)
    best_size = best_mask.bit_count()

    def rec(avail: int, cur_mask: int, cur_size: int):
        nonlocal best_mask, best_size
        while avail:
            if cur_size + avail.bit_count() <= best_size:
                return
            maxd = -1
            maxv = -1
            for v in bits(avail):
                d = (rows[v] & avail).bit_count()
                if d == 0:
                    cur_mask |= 1 << v
                    cur_size += 1
                    avail ^= 1 << v
                    maxv = -2
                    break
                if d == 1:
                    cur_mask |= 1 << v
                    cur_size += 1
                    avail &= ~closed[v]
                    maxv = -2
                    break
                if d > maxd:
                    maxd = d
                    maxv = v
            if maxv == -2:
                continue
            rec(avail & ~closed[maxv], cur_mask | (1 << maxv), cur_size + 1)
            avail ^= 1 << maxv
        if cur_size > best_size:
            best_size = cur_size
            best_mask = cur_mask

    rec(g.vertex_mask(), 0, 0)
    return best_mask


# ---------------------------------------------------------------------------
# The driver.
# ---------------------------------------------------------------------------

def unavoidable_witness(g: Graph, n: int) -> Witness | ChainWitness | InsufficientSize:
    """Find one of the unavoidable outcomes of size n in a prime host.

    Fast path: direct search for the generated families and a prime chain.
    Pipeline: pick the larger of an independent set in g and one in its
    complement (complementing preserves primality), extract from it, and feed
    matching or half-split intermediates to their follow-up stages.  Every
    witness is re-validated before being returned; InsufficientSize is
    returned as a value, with a trace of the stages that fell short.
    """
    if n < 3:
        raise ValueError("witness size must be at least 3")
    if g.n < 3:
        raise ValueError("host needs at least 3 vertices")
    cert = homogeneous.find_homogeneous_set(g)
    if cert is not None:
        raise NotPrimeError(cert)

    w = fam.find_witness_any(g, n)
    if w is not None:
        return w

    gc = complement(g)
    s_plain = best_independent_set(g)
    s_comp = best_independent_set(gc)
    attempts = [(False, g, s_plain), (True, gc, s_comp)]
    if len(s_comp) > len(s_plain):
        attempts.reverse()

    failures: list[tuple[bool, InsufficientSize]] = []
    for comp_flag, host, seed in attempts:
        try:
            w = extract_from_independent_set(host, seed, n, n, n + 2)
            w = _follow_up(host, w, n)
        except InsufficientSize as e:
            failures.append((comp_flag, e))
            continue
        return _reorient(g, w, comp_flag)

    primary = failures[0][1]
    trace = tuple(
        ("complement." if flag else "") + e.stage for flag, e in failures
    )
    return primary.with_trace(*trace)


def _follow_up(host: Graph, w: Witness | ChainWitness, n: int) -> Witness | ChainWitness:
    """Feed intermediate outcomes onward: a matching into the matching
    recursion, a half split into the escape analysis."""
    if isinstance(w, ChainWitness):
        return w
    if w.family.family is Family.MATCHING:
        k = w.family.n
        edges = [(w.embedding[i], w.embedding[k + i]) for i in range(k)]
        covered = set(w.embedding)
        v = next((u for u in range(host.n) if u not in covered), None)
        if v is None:
            raise InsufficientSize("matching:uncovered-vertex", 2 * k + 1, host.n)
        edge_chains = []
        t = 2
        for e in edges:
            c = chainmod.find_chain(host, e, v)
            assert c is not None, "prime hosts admit a chain from every edge"
            edge_chains.append(c)
            t = max(t, len(c) - 1)
        nxt = extract_from_matching(host, edges, v, n, n + 2, t, edge_chains)
        nxt = Witness(nxt.family, nxt.embedding, f"{w.provenance} -> {nxt.provenance}")
        return _follow_up(host, nxt, n)
    if w.family.family is Family.HALF_SPLIT:
        nxt = extract_from_half_split(host, w.embedding, n)
        if isinstance(nxt, ChainWitness):
            return ChainWitness(nxt.chain, f"{w.provenance} -> {nxt.provenance}")
        return Witness(nxt.family, nxt.embedding, f"{w.provenance} -> {nxt.provenance}")
    return w


def _reorient(g: Graph, w: Witness | ChainWitness, comp_flag: bool) -> Witness | ChainWitness:
    """Translate a witness found in the complement orientation back to g."""
    if comp_flag:
        if isinstance(w, ChainWitness):
            w = ChainWitness(w.chain, f"{w.provenance} (in complement)")
        else:
            fid = FamilyId(w.family.family, w.family.n, not w.family.complemented)
            w = Witness(fid, w.embedding, f"{w.provenance} (in complement)")
    return require_valid(g, w, "final")
