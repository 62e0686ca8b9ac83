"""Command-line surface: family generation, primality verdicts, witness
extraction, and the batch verification harness.

Streaming protocol: graph6 lines in, one verdict or JSON object per line
out, so the tool composes with external graph catalogs.  ``prime`` and
``witness`` run in one process through one serial loop, which prints and
flushes each line's result before it reads the next line; to use several
CPUs, split the input and run one process per part.  Exit codes: 0
success, 1 data error, 2 usage error.

``prime`` prints ``prime``, ``homogeneous {...}`` with the set found, or
``vacuous`` for a graph on at most 2 vertices: such a graph has no
homogeneous set only because it is too small to hold one, and ``is_prime``
reports it non-prime.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import extraction, homogeneous
from .families import Family, FamilyId, find_induced_copy, generate
from .graphs import emit_graph6, parse_graph6
from .oracles import all_graphs, chain_sweep, naive_induced_search, primality_sweep, random_graph
from .witnesses import ChainWitness, InsufficientSize, NotPrimeError, Witness

DEFAULT_SEED = 20150420


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_gen(args) -> int:
    out = []
    for spec in args.spec:
        try:
            fid = FamilyId.parse(spec)
            labeled = generate(fid)
        except ValueError as e:
            return _fail_usage(str(e))
        out.append(emit_graph6(labeled.graph))
    for line in out:
        print(line)
    return 0


def _each_graph(stream, handle) -> int:
    """Print ``handle(g)`` for the graph g of each non-blank graph6 line of
    ``stream``, one line out per line in, flushed as it is done.  A line
    whose parse or handling raises ``ValueError`` (``Graph6Error``
    included) is reported on stderr as ``line k: ...``; returns how many
    were."""
    errors = 0
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            out = handle(parse_graph6(text))
        except ValueError as e:
            print(f"line {lineno}: {e}", file=sys.stderr, flush=True)
            errors += 1
        else:
            print(out, flush=True)
    return errors


def _prime_verdict(g) -> str:
    if g.n <= 2:
        return "vacuous"
    hom = homogeneous.find_homogeneous_set(g)
    if hom is None:
        return "prime"
    return "homogeneous {" + ", ".join(str(v) for v in sorted(hom)) + "}"


def cmd_prime(args) -> int:
    return 1 if _each_graph(args.input, _prime_verdict) else 0


_RESULT_KINDS = ((Witness, "witness"), (ChainWitness, "chain"), (InsufficientSize, "insufficient"))


def _witness_payload(g, n: int) -> tuple[str, dict]:
    """``unavoidable_witness`` on one graph, as (kind, JSON payload)."""
    try:
        result = extraction.unavoidable_witness(g, n)
    except NotPrimeError as e:
        return "nonprime", {"nonprime": sorted(e.homogeneous_set)}
    for cls, kind in _RESULT_KINDS:
        if isinstance(result, cls):
            return kind, result.to_json()
    raise AssertionError(f"unexpected driver result {result!r}")


def _summarize(payload: dict) -> str:
    if "nonprime" in payload:
        return "nonprime {" + ", ".join(str(v) for v in payload["nonprime"]) + "}"
    if "chain" in payload:
        return f"chain length={payload['length']} {payload['chain']}"
    if "family" in payload:
        suffix = "!" if payload["complemented"] else ""
        return (
            f"witness {payload['family']}:{payload['n']}{suffix} "
            f"embedding={payload['embedding']}"
        )
    return f"insufficient stage={payload['stage']} needed={payload['needed']} had={payload['had']}"


def cmd_witness(args) -> int:
    if args.n < 3:
        return _fail_usage("--n must be at least 3")
    started = time.monotonic()
    totals = {"witness": 0, "chain": 0, "insufficient": 0, "nonprime": 0}

    def handle(g) -> str:
        kind, payload = _witness_payload(g, args.n)
        out = json.dumps(payload, separators=(",", ":")) if args.json else _summarize(payload)
        totals[kind] += 1
        return out

    errors = _each_graph(args.input, handle)
    elapsed = time.monotonic() - started
    print(
        f"processed {sum(totals.values()) + errors} graphs in {elapsed:.2f}s: "
        f"{totals['witness']} family witnesses, {totals['chain']} chain witnesses, "
        f"{totals['insufficient']} insufficient, {totals['nonprime']} non-prime, "
        f"{errors} errors",
        file=sys.stderr,
    )
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# verify: oracle agreement sweeps and the family non-containment matrix.
# ---------------------------------------------------------------------------

_MATRIX_LABELS = {
    Family.SUBDIVIDED_STAR: "substar",
    Family.LINE_K2N: "lineK2n",
    Family.THIN_SPIDER: "thin",
    Family.THICK_SPIDER: "thick",
    Family.HALF_GRAPH: "half",
    Family.HALF_SPLIT: "hsplit",
    Family.HALF_SPLIT_APEX: "hsp-apex",
    Family.HALF_SPLIT_PENDANT: "hsp-pend",
}


def _verify_matrix(n_host: int, n_pat: int) -> tuple[list[str], int]:
    lines = []
    disagreements = 0
    pattern_ids = [
        FamilyId(fp, n_pat, complemented=comp)
        for fp in _MATRIX_LABELS
        for comp in (False, True)
    ]
    header = "host \\ pattern".ljust(22) + " ".join(
        (_MATRIX_LABELS[fid.family] + ("!" if fid.complemented else "")).ljust(10)
        for fid in pattern_ids
    )
    lines.append(header)
    for fh in _MATRIX_LABELS:
        host = generate(FamilyId(fh, n_host)).graph
        cells = []
        for fid in pattern_ids:
            fast = find_induced_copy(host, fid) is not None
            naive = naive_induced_search(host, generate(fid).graph)
            if fast != naive:
                disagreements += 1
                cells.append("DISAGREE".ljust(10))
            else:
                cells.append(("yes" if fast else "no").ljust(10))
        lines.append(f"{fh.value}:{n_host}".ljust(22) + " ".join(cells))
    return lines, disagreements


def cmd_verify(args) -> int:
    k = args.max_vertices
    if not 1 <= k <= 8:
        return _fail_usage("--max-vertices must be between 1 and 8")
    rng = random.Random(args.seed)
    failures = 0

    checked = bad = 0
    prime_counts: dict[int, int] = {}
    for n in range(k + 1):
        n_checked, n_bad, prime_counts[n] = primality_sweep(all_graphs(n))
        checked += n_checked
        bad += n_bad
    failures += bad
    print(f"primality sweep: {checked} graphs on <= {k} vertices, {bad} disagreements")
    counts = ", ".join(f"{n}: {c}" for n, c in prime_counts.items())
    print(f"labeled graphs with no homogeneous set: {{{counts}}}")

    k_chain = min(k, 6)
    checked, bad = chain_sweep(g for n in range(3, k_chain + 1) for g in all_graphs(n))
    failures += bad
    print(
        f"chain reachability sweep: {checked} (graph, pair, target) cases "
        f"on <= {k_chain} vertices, {bad} disagreements"
    )

    spot, spot_bad, _ = primality_sweep(
        random_graph(rng, rng.randrange(8, 13)) for _ in range(200)
    )
    failures += spot_bad
    print(f"seeded spot-check: {spot} graphs on 8..12 vertices, {spot_bad} disagreements")

    lines, bad = _verify_matrix(n_host=6, n_pat=3)
    failures += bad
    print("family containment matrix (host size 6, pattern size 3, dual-checked):")
    for line in lines:
        print("  " + line)
    print(f"matrix strategy disagreements: {bad}")

    print(f"total disagreements: {failures}")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="primewitness",
        description="prime graphs, chains, and unavoidable induced-subgraph witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit family graphs as graph6")
    p_gen.add_argument("spec", nargs="+", help="family spec, e.g. half-graph:5 or thin-spider:4!")
    p_gen.set_defaults(func=cmd_gen)

    p_prime = sub.add_parser("prime", help="per-line primality verdicts for graph6 input")
    p_prime.set_defaults(func=cmd_prime, input=None)

    p_wit = sub.add_parser("witness", help="unavoidable-outcome witnesses for graph6 input")
    p_wit.add_argument("--n", type=int, required=True, help="outcome size (>= 3)")
    p_wit.add_argument("--json", action="store_true", help="emit JSON lines")
    p_wit.set_defaults(func=cmd_witness, input=None)

    p_ver = sub.add_parser("verify", help="oracle agreement sweeps and family matrix")
    p_ver.add_argument("--max-vertices", type=int, default=5, help="exhaustive sweep bound (<= 8)")
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the spot-check batch")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    if getattr(args, "input", "skip") is None:
        args.input = sys.stdin
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
