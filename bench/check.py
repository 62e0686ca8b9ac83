"""Output checker for benchmark runs.

Every output line is checked against the input graph with code of this file:
homogeneous sets by definition, chains by the chain rule and the primality
of the vertices they induce, ``prime`` verdicts by an independent primality
test.  Family witnesses are checked edge by edge and non-edge by non-edge
against the library's own family generator, which defines the families.
"""

from __future__ import annotations

import json

from corpus import Item

_INSUFFICIENT_KEYS = {"stage", "needed", "had"}
_FAMILY_KEYS = {"family", "n", "complemented", "embedding", "provenance"}
_CHAIN_KEYS = {"chain", "length", "provenance"}


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_homogeneous(rows: tuple[int, ...], members: list[int]) -> bool:
    """2 <= |X| < n, and no vertex outside X is mixed on X."""
    n = len(rows)
    if len(set(members)) != len(members) or any(not 0 <= v < n for v in members):
        return False
    mask = sum(1 << v for v in members)
    if not 2 <= len(members) < n:
        return False
    outside = ((1 << n) - 1) & ~mask
    return all(rows[w] & mask in (0, mask) for w in _bits(outside))


def _closure(rows: tuple[int, ...], full: int, s: int) -> int:
    # smallest superset of s on which no outside vertex is mixed
    while True:
        add = 0
        for w in _bits(full & ~s):
            x = rows[w] & s
            if x and x != s:
                add |= 1 << w
        if not add:
            return s
        s |= add


def is_prime(rows: tuple[int, ...]) -> bool:
    """No homogeneous set; graphs on <= 2 vertices count as prime.

    A homogeneous set through a vertex p contains the closure of p with any
    of its members, so once every pair through p closes to V, every
    remaining homogeneous set misses p and, being uniform to p, lies inside
    p's neighbourhood or inside its non-neighbourhood.  Recursing into those
    two cells covers every candidate.
    """
    full = (1 << len(rows)) - 1
    cells = [full]
    while cells:
        cell = cells.pop()
        if cell.bit_count() < 2:
            continue
        p = (cell & -cell).bit_length() - 1
        rest = cell ^ (1 << p)
        for w in _bits(rest):
            if _closure(rows, full, (1 << p) | (1 << w)) != full:
                return False
        cells.append(rest & rows[p])
        cells.append(rest & ~rows[p])
    return True


def is_chain(rows: tuple[int, ...], seq: list[int]) -> bool:
    """Distinct in-range vertices, each the unique neighbour or the unique
    non-neighbour of the next vertex among all vertices before it."""
    n = len(rows)
    if len(set(seq)) != len(seq) or any(not 0 <= v < n for v in seq):
        return False
    before = 0
    for idx, v in enumerate(seq):
        if idx:
            prev = 1 << seq[idx - 1]
            if rows[v] & before != prev and before & ~rows[v] != prev:
                return False
        before |= 1 << v
    return True


def _induced(rows: tuple[int, ...], vertices: list[int]) -> tuple[int, ...]:
    pos = {v: i for i, v in enumerate(vertices)}
    return tuple(
        sum(1 << pos[w] for w in _bits(rows[v]) if w in pos) for v in vertices
    )


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _check_prime_line(item: Item, line: str) -> str | None:
    if line == "prime":
        if item.module:
            return "says prime, but the graph has a planted module"
        if not is_prime(item.rows):
            return "says prime, but the graph has a homogeneous set"
        return None
    head, _, body = line.partition(" ")
    if head != "homogeneous" or not (body.startswith("{") and body.endswith("}")):
        return f"unexpected prime output {line!r}"
    try:
        members = [int(v) for v in body[1:-1].split(",")]
    except ValueError:
        return f"unparsable homogeneous set {line!r}"
    if members != sorted(members) or not is_homogeneous(item.rows, members):
        return f"not a homogeneous set: {members}"
    return None


def _check_family(item: Item, k: int, payload: dict, families) -> str | None:
    if set(payload) != _FAMILY_KEYS:
        return f"family witness keys {sorted(payload)}"
    try:
        fid = families.FamilyId(
            families.Family(payload["family"]), payload["n"], payload["complemented"]
        )
    except (ValueError, TypeError):
        return f"unknown family {payload['family']!r}"
    if type(fid.n) is not int or fid.n < k or type(fid.complemented) is not bool:
        return f"family size {fid.n!r} below the requested {k}"
    pat = families.generate(fid).graph
    emb = payload["embedding"]
    n = len(item.rows)
    if not _int_list(emb) or len(emb) != pat.n or len(set(emb)) != len(emb):
        return f"embedding {emb} does not fit {fid}"
    if any(not 0 <= v < n for v in emb):
        return f"embedding {emb} leaves the host"
    for i in range(pat.n):
        for j in range(i + 1, pat.n):
            if pat.adjacent(i, j) != bool((item.rows[emb[i]] >> emb[j]) & 1):
                return f"embedding {emb} of {fid} breaks pattern pair ({i},{j})"
    return None


def _check_chain(item: Item, k: int, payload: dict) -> str | None:
    if set(payload) != _CHAIN_KEYS:
        return f"chain witness keys {sorted(payload)}"
    seq = payload["chain"]
    if not _int_list(seq) or payload["length"] != len(seq) - 1:
        return f"chain {seq} with length {payload['length']!r}"
    if len(seq) - 1 < max(k, 3):
        return f"chain {seq} shorter than the requested {k}"
    if not is_chain(item.rows, seq):
        return f"chain {seq} breaks the chain rule"
    if not is_prime(_induced(item.rows, seq)):
        return f"chain {seq} does not induce a prime graph"
    return None


def _check_insufficient(payload: dict) -> str | None:
    if not _INSUFFICIENT_KEYS <= set(payload) <= _INSUFFICIENT_KEYS | {"trace"}:
        return f"insufficient-size keys {sorted(payload)}"
    if not isinstance(payload["stage"], str) or not isinstance(payload["needed"], str):
        return "insufficient-size stage and needed must be strings"
    if type(payload["had"]) is not int or payload["had"] < 0:
        return f"insufficient-size had {payload['had']!r}"
    trace = payload.get("trace", [])
    if not (isinstance(trace, list) and all(isinstance(s, str) for s in trace)):
        return f"insufficient-size trace {trace!r}"
    return None


def _check_witness_line(item: Item, k: int, line: str, families) -> str | None:
    try:
        payload = json.loads(line)
    except ValueError:
        return f"not JSON: {line[:80]!r}"
    if not isinstance(payload, dict):
        return f"not a JSON object: {line[:80]!r}"
    if "nonprime" in payload:
        members = payload["nonprime"]
        if set(payload) != {"nonprime"} or not _int_list(members):
            return f"bad non-prime payload {line[:80]!r}"
        return None if is_homogeneous(item.rows, members) else f"not homogeneous: {members}"
    if "family" in payload:
        return _check_family(item, k, payload, families)
    if "chain" in payload:
        return _check_chain(item, k, payload)
    if "stage" in payload:
        return _check_insufficient(payload)
    return f"unknown witness payload {line[:80]!r}"


def check_output(item: Item, rc, out: str, families) -> str | None:
    """Why one CLI run's exit status and stdout are wrong, or None if right."""
    if rc != 0:
        return f"exit status {rc!r}"
    lines = out.split("\n")
    if len(lines) != 2 or lines[1]:
        return f"expected one output line, got {out[:80]!r}"
    if item.argv[0] == "prime":
        return _check_prime_line(item, lines[0])
    return _check_witness_line(item, int(item.argv[2]), lines[0], families)
