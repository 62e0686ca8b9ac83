"""Seeded benchmark corpora, built without calling any primewitness code.

Each workload is a fixed sequence of graphs.  The shape of the sequence
(vertex counts, densities, outcome sizes, which graphs carry a planted
module) is the same for every seed; the seed only draws the edges.  Vertex
counts follow a golden-ratio low-discrepancy sequence, so any prefix of a
corpus -- a timed run stops wherever its time runs out -- has close to the
same size mix as the whole corpus, and runs on different seeds measure the
same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_PHI = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Item:
    """One benchmark graph and the CLI arguments it is run with."""

    index: int
    argv: tuple[str, ...]
    g6: str
    rows: tuple[int, ...]
    module: int  # bit mask of a planted homogeneous set, 0 when none


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # graphs in the corpus; a run that gets through it starts over
    trace_block: int  # graphs in one pass of a traced run
    why: str

    def corpus(self, seed: int) -> list[Item]:
        return [_BUILDERS[self.name](self.name, seed, i) for i in range(self.size)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "prime-gnp",
            size=200,
            trace_block=24,
            why=(
                "prime on G(n,1/2), n 50-100, 1/4 made non-prime by a 2-5 vertex "
                "module at the top indices: homogeneous.closure is ~95% of time"
            ),
        ),
        Workload(
            "witness-hit",
            size=240,
            trace_block=30,
            why=(
                "witness --n 4 on G(n,p), n 40-80, p 0.3/0.5/0.7 in turn, none planted "
                "non-prime: family searches that hit, find_induced_copy ~92% of time"
            ),
        ),
        Workload(
            "witness-exhaust",
            size=600,
            trace_block=60,
            why=(
                "witness --n 7/8 in turn on G(n,1/2), n 18-26, none planted non-prime: "
                "all 12 families proved absent (~85% of time), then chains or extraction"
            ),
        ),
    )
}


def _spread(i: int, lo: int, hi: int) -> int:
    """The i-th point of a low-discrepancy sequence over lo..hi."""
    return lo + int(((i + 1) * _PHI) % 1.0 * (hi - lo + 1))


def random_rows(rng: random.Random, n: int, p: float) -> list[int]:
    """Adjacency rows of G(n, p), one random draw per vertex pair."""
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def substitute_top(rng: random.Random, host: list[int], m: int) -> tuple[list[int], int]:
    """Replace the host's last vertex by a random graph on m vertices.

    The m new vertices take the highest indices and each inherits the
    replaced vertex's neighbours, so together they form a homogeneous set.
    Returns the new rows and the module's bit mask.
    """
    x = len(host) - 1
    module = ((1 << m) - 1) << x
    outer = host[x]
    rows = [row & ~(1 << x) for row in host[:x]]
    for v in range(x):
        if (outer >> v) & 1:
            rows[v] |= module
    inner = random_rows(rng, m, 0.5)
    rows.extend(outer | (r << x) for r in inner)
    return rows, module


def encode_graph6(rows: list[int] | tuple[int, ...]) -> str:
    """graph6 token: size header, then the upper triangle column by column,
    six bits per character, offset by 63."""
    n = len(rows)
    if n <= 62:
        out = [chr(63 + n)]
    elif n <= 258047:
        out = ["~"] + [chr(63 + ((n >> s) & 63)) for s in (12, 6, 0)]
    else:
        raise ValueError(f"{n} vertices is beyond this encoder")
    val = filled = 0
    for j in range(1, n):
        for i in range(j):
            val = (val << 1) | ((rows[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + val))
                val = filled = 0
    if filled:
        out.append(chr(63 + (val << (6 - filled))))
    return "".join(out)


def _rng(name: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{i}")


def _prime_gnp(name: str, seed: int, i: int) -> Item:
    rng = _rng(name, seed, i)
    n = _spread(i, 50, 100)
    if i % 4 == 3:
        m = 2 + (i // 4) % 4
        rows, module = substitute_top(rng, random_rows(rng, n - m + 1, 0.5), m)
    else:
        rows, module = random_rows(rng, n, 0.5), 0
    return Item(i, ("prime",), encode_graph6(rows), tuple(rows), module)


_HIT_DENSITIES = (0.3, 0.5, 0.7)


def _witness_hit(name: str, seed: int, i: int) -> Item:
    rows = random_rows(_rng(name, seed, i), _spread(i // 3, 40, 80), _HIT_DENSITIES[i % 3])
    return Item(i, ("witness", "--n", "4", "--json"), encode_graph6(rows), tuple(rows), 0)


def _witness_exhaust(name: str, seed: int, i: int) -> Item:
    k = 7 + i % 2
    rows = random_rows(_rng(name, seed, i), _spread(i // 2, 18, 26), 0.5)
    return Item(i, ("witness", "--n", str(k), "--json"), encode_graph6(rows), tuple(rows), 0)


_BUILDERS = {
    "prime-gnp": _prime_gnp,
    "witness-hit": _witness_hit,
    "witness-exhaust": _witness_exhaust,
}
