"""Immutable bitset graphs: construction, complement, induced subgraphs,
and graph6 interchange.

Vertices are dense indices 0..n-1.  Adjacency is one Python int per vertex
(bit j of ``rows[v]`` set iff v~j), which keeps set operations on
neighborhoods down to a few machine words for the graph sizes this library
targets.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Instances are immutable by convention: ``rows`` is a tuple and no method
    mutates it, so graphs are safe to share, hash, and send across threads.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(rows)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(rows) != n:
            raise ValueError(f"need {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices >= {n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for w in bits(row):
                if not (rows[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        self.n = n
        self.rows = rows

    @classmethod
    def _trusted(cls, n: int, rows: Iterable[int]) -> "Graph":
        """Graph on rows that are valid by construction (in range, loop-free,
        symmetric), without the checks ``__init__`` makes on outside input."""
        g = object.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set: u~v iff u != v and not u~v in g."""
    full = g.vertex_mask()
    return Graph._trusted(g.n, [(full ^ row) & ~(1 << v) for v, row in enumerate(g.rows)])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``vertices``, re-indexed to 0..k-1.

    Returns ``(subgraph, back)`` where ``back[i]`` is the original index of
    new vertex i; ``back`` is ascending.
    """
    back = tuple(sorted(set(vertices)))
    if back and not (0 <= back[0] and back[-1] < g.n):
        raise ValueError("vertex out of range")
    pos = {v: i for i, v in enumerate(back)}
    rows = []
    for v in back:
        row = 0
        for w in bits(g.rows[v]):
            j = pos.get(w)
            if j is not None:
                row |= 1 << j
        rows.append(row)
    return Graph._trusted(len(back), rows), back


# ---------------------------------------------------------------------------
# graph6: standard ASCII encoding of small undirected graphs.  Header char is
# 63+n for n <= 62, with '~' escapes above that; data chars pack the upper
# adjacency triangle column-major, 6 bits per char, offset by 63.
# ---------------------------------------------------------------------------

_HEADER = ">>graph6<<"
_G6_MAX_N = (1 << 36) - 1
# data char -> its six bits, most significant first
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _g6_char(s: str, i: int) -> int:
    if i >= len(s):
        raise Graph6Error("unexpected end of input", len(s))
    c = ord(s[i])
    if not 63 <= c <= 126:
        raise Graph6Error(f"character {s[i]!r} out of graph6 range", i)
    return c - 63


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 token.  A leading '>>graph6<<' header is tolerated."""
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

    # each data char becomes its six bits; a char outside the range stays
    # one char, so the length tells whether some char is out of range
    data = s[pos:].translate(_G6_BITS)
    if len(data) != 6 * nchars:
        for k in range(nchars):
            _g6_char(s, pos + k)
    # column j of the upper triangle starts at bit j(j-1)/2 and holds j's
    # adjacency to 0..j-1; padded with zeros to n, the columns make the rows
    # of an n x n square whose column v holds v's adjacency to v+1..n-1
    square = "".join(data[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n))
    rows = [
        int((square[v * n:v * n + v + 1] + square[(v + 1) * n + v::n])[::-1], 2)
        for v in range(n)
    ]
    return Graph._trusted(n, rows)


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 for the graph's fixed vertex order (no relabeling)."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"vertex count {n} exceeds graph6 limit")
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))

    chars = []
    val = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            val = (val << 1) | (1 if g.adjacent(i, j) else 0)
            filled += 1
            if filled == 6:
                chars.append(chr(63 + val))
                val = 0
                filled = 0
    if filled:
        chars.append(chr(63 + (val << (6 - filled))))
    return head + "".join(chars)
