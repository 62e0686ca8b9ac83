"""Tests of the benchmark's own corpus builder and output checker."""

from __future__ import annotations

import random

import pytest

from check import check_output, is_prime
from corpus import WORKLOADS, random_rows, substitute_top
from primewitness import Graph, brute_force_homogeneous, cli, families, parse_graph6
from primewitness.families import Family, FamilyId
from run import run_graph
from tracing import Tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_encoder_round_trips_through_parse_graph6(name):
    for item in WORKLOADS[name].corpus(1):
        g = parse_graph6(item.g6)
        assert g.n == len(item.rows)
        assert g.rows == item.rows


def test_checker_primality_agrees_with_brute_force():
    rng = random.Random(0)
    verdicts = set()
    for i in range(60):
        rows = random_rows(rng, 6 + i % 6, 0.5)
        if i % 3 == 0:
            rows, _ = substitute_top(rng, rows, 2 + i % 4)
        rows = tuple(rows)
        prime = not brute_force_homogeneous(Graph(len(rows), rows))
        assert is_prime(rows) == prime
        verdicts.add(prime)
    assert verdicts == {True, False}


def test_checker_accepts_module_and_rejects_non_homogeneous_set():
    item = next(i for i in WORKLOADS["prime-gnp"].corpus(1) if i.module)
    members = [v for v in range(len(item.rows)) if (item.module >> v) & 1]
    good = "homogeneous {" + ", ".join(map(str, members)) + "}"
    assert check_output(item, 0, good + "\n", families) is None
    bad = "homogeneous {" + ", ".join(map(str, [0] + members[1:])) + "}"
    assert check_output(item, 0, bad + "\n", families) is not None
    assert check_output(item, 0, "prime\n", families) is not None


def test_checker_rejects_embedding_with_one_vertex_swapped():
    item = WORKLOADS["witness-hit"].corpus(1)[0]
    fid = FamilyId(Family.SUBDIVIDED_STAR, 4)
    emb = list(families.find_induced_copy(parse_graph6(item.g6), fid))
    line = (
        '{"family":"subdivided-star","n":4,"complemented":false,'
        '"embedding":%s,"provenance":"direct-search"}'
    )
    assert check_output(item, 0, line % emb + "\n", families) is None
    # a leaf and the centre trade places
    emb[0], emb[-1] = emb[-1], emb[0]
    assert check_output(item, 0, line % emb + "\n", families) is not None


_TRACE_BLOCK = WORKLOADS["witness-exhaust"].corpus(1)[:2]


def _traced_counts(passes: int) -> dict[str, float]:
    tracer = Tracer()
    for _ in range(passes):
        tracer.install()
        try:
            for item in _TRACE_BLOCK:
                run_graph(cli, item.argv, item.g6)
        finally:
            tracer.uninstall()
    return {k: v for k, v in tracer.summary(passes).items() if not k.endswith("_ms")}


def test_traced_counts_are_per_pass():
    for item in _TRACE_BLOCK:  # warm the family pattern cache, as a run does
        run_graph(cli, item.argv, item.g6)
    one = _traced_counts(1)
    assert one["families.find_induced_copy.calls"] == 24
    assert _traced_counts(2) == one
