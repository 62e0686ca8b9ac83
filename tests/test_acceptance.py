"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 6 was stated as "the apexed half split graph H'_n is isomorphic to
its complement".  No graph of this construction can be: H'_n has 2n+1
vertices, so for odd n its order is 3 (mod 4), the number of vertex pairs is
odd, and no self-complementary graph of that order exists.  For every n,
H'_n has n(n+1) edges, while a self-complementary graph on 2n+1 vertices needs
half of its n(2n+1) pairs, n(2n+1)/2 edges, and the two never agree.  What
does hold is that the family is closed under complement up to one step of n,
and criterion 6 checks that: complement(H'_n) contains H'_{n-1} as an induced
subgraph (on b_2..b_n, a_1..a_{n-1}, apex), and H'_{n+1} contains
complement(H'_n).  The pendant variant fails both for n >= 4, which is why
its complement is an outcome family of its own.
"""

import itertools
import random

from primewitness import extraction as ex
from primewitness.chains import chain_induces_prime, trim_chain_to_prime
from primewitness.families import Family, FamilyId, check_witness, find_induced_copy, generate
from primewitness.graphs import (
    Graph,
    complement,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
)
from primewitness.homogeneous import is_prime
from primewitness.oracles import chain_sweep, primality_sweep
from primewitness.witnesses import InsufficientSize, Witness

from test_extraction import MATCHING_CASE_FAMILIES, matching_config
from util import all_graphs, bound_le, color_id, random_graph, random_prime_graph, sample_chain


def report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed{tail}"


def test_criterion_1_primality_oracle_agreement():
    checked, disagreements, _ = primality_sweep(g for n in range(7) for g in all_graphs(n))
    rng = random.Random(101)
    rand_checked, rand_disagreements, _ = primality_sweep(
        random_graph(rng, 7) for _ in range(100_000)
    )
    checked += rand_checked
    disagreements += rand_disagreements
    report(
        "1 primality-oracle-agreement",
        disagreements == 0,
        f"{checked} graphs, {disagreements} disagreements",
    )


def test_criterion_2_chain_reachability_equivalence():
    checked, disagreements = chain_sweep(g for n in range(3, 6) for g in all_graphs(n))
    report(
        "2 chain-reachability-equivalence",
        disagreements == 0,
        f"{checked} cases, {disagreements} disagreements",
    )


def test_criterion_3_prime_chain_criterion_equivalence():
    rng = random.Random(103)
    disagreements = 0
    for _ in range(10_000):
        g, seq = sample_chain(rng, rng.randrange(3, 9))
        sub, _ = induced_subgraph(g, seq)
        if chain_induces_prime(g, seq) != is_prime(sub):
            disagreements += 1
    report("3 prime-chain-criterion", disagreements == 0, f"{disagreements} disagreements")


def test_criterion_4_trim_guarantee():
    rng = random.Random(104)
    failures = 0
    for _ in range(1000):
        g, seq = sample_chain(rng, rng.randrange(4, 9))
        out = trim_chain_to_prime(g, seq)
        sub, _ = induced_subgraph(g, out)
        if len(out) != len(seq) - 1 or not is_prime(sub):
            failures += 1
    report("4 trim-guarantee", failures == 0, f"{failures} failures")


def test_criterion_5_outcome_families_are_prime():
    failures = []
    fams = (
        Family.SUBDIVIDED_STAR,
        Family.LINE_K2N,
        Family.THIN_SPIDER,
        Family.HALF_GRAPH,
        Family.HALF_SPLIT_APEX,
        Family.HALF_SPLIT_PENDANT,
    )
    for fam in fams:
        for n in range(3, 9):
            g = generate(FamilyId(fam, n)).graph
            if not is_prime(g) or not is_prime(complement(g)):
                failures.append((fam.value, n))
    report("5 outcome-families-prime", not failures, f"failures={failures}")


def test_criterion_6_half_split_apex_self_complementary():
    # Complement nesting, the true statement nearest the literal claim (which
    # no graph of order 2n+1 with n(n+1) edges can meet; see the docstring).
    bad = []
    for n in range(3, 7):
        g = generate(FamilyId(Family.HALF_SPLIT_APEX, n)).graph
        down = Witness(
            FamilyId(Family.HALF_SPLIT_APEX, n - 1),
            tuple(range(n + 1, 2 * n)) + tuple(range(n - 1)) + (2 * n,),
        )
        if not check_witness(complement(g), down):
            bad.append(f"n={n}: complement(H'_n) lacks H'_{n - 1}")
        up_fid = FamilyId(Family.HALF_SPLIT_APEX, n, complemented=True)
        bigger = generate(FamilyId(Family.HALF_SPLIT_APEX, n + 1)).graph
        up = find_induced_copy(bigger, up_fid)
        if up is None or not check_witness(bigger, Witness(up_fid, up)):
            bad.append(f"n={n}: H'_{n + 1} lacks complement(H'_n)")
    report(
        "6 apexed-half-split-complement-nesting",
        not bad,
        "; ".join(bad) or "n=3..6, both directions",
    )


def _plant(rng: random.Random, planted: Graph, extra: int, p_noise: float = 0.35) -> Graph:
    k = planted.n
    while True:
        edges = list(planted.edges())
        for v in range(k, k + extra):
            for u in range(v):
                if rng.random() < p_noise:
                    edges.append((u, v))
        host = Graph.from_edges(k + extra, edges)
        if is_prime(host):
            return host


def test_criterion_7_extraction_soundness_soak():
    rng = random.Random(107)
    invalid = 0
    insufficient = 0
    for _ in range(100):
        g = random_prime_graph(rng, rng.randrange(50, 201))
        w = ex.unavoidable_witness(g, 3)
        if isinstance(w, InsufficientSize):
            insufficient += 1
        elif not check_witness(g, w):
            invalid += 1
    planted_specs = [
        FamilyId(Family.SUBDIVIDED_STAR, 4),
        FamilyId(Family.LINE_K2N, 4),
        FamilyId(Family.THIN_SPIDER, 4),
        FamilyId(Family.HALF_GRAPH, 4),
        FamilyId(Family.HALF_SPLIT_APEX, 4),
        FamilyId(Family.HALF_SPLIT_PENDANT, 4),
        FamilyId(Family.PRIME_CHAIN, 4),
    ]
    missed = 0
    for fid in planted_specs:
        base = generate(fid).graph
        for _ in range(20):
            host = _plant(rng, base, rng.randrange(8, 14))
            w = ex.unavoidable_witness(host, 4)
            if isinstance(w, InsufficientSize) or not check_witness(host, w):
                missed += 1
    report(
        "7 extraction-soundness-soak",
        invalid == 0 and missed == 0,
        f"invalid={invalid}, insufficient={insufficient}/100, planted misses={missed}/140",
    )


def test_criterion_8_matching_color_cases():
    failures = []
    for color, fam in MATCHING_CASE_FAMILIES.items():
        g, matching, v, chains = matching_config(4, color)
        w = ex.extract_from_matching(g, matching, v, 4, 4, 3, chains)
        if w.family.family is not fam or not check_witness(g, w):
            failures.append((color, w.family))
    report("8 matching-color-cases", not failures, f"failures={failures}")


def test_criterion_9_bound_arithmetic():
    rng = random.Random(109)
    base_ok = all(
        ex.h_bound(n, nprime, 2) == n
        for n, nprime in ((rng.randrange(1, 200), rng.randrange(1, 200)) for _ in range(100))
    )
    g_ok = ex.g_bound(3) == 19
    mono_ok = True
    prev = None
    for n in range(3, 11):
        b = ex.bounds(n)
        if prev is not None:
            mono_ok = mono_ok and bound_le(prev.g, b.g)
            mono_ok = mono_ok and bound_le(prev.matching_size, b.matching_size)
            mono_ok = mono_ok and bound_le(prev.m, b.m)
            mono_ok = mono_ok and bound_le(prev.independent_size, b.independent_size)
            mono_ok = mono_ok and bound_le(prev.vertex_threshold, b.vertex_threshold)
        prev = b
    report("9 bound-arithmetic", base_ok and g_ok and mono_ok, "")


def test_criterion_10_graph6_round_trip():
    rng = random.Random(110)
    bad = 0
    for _ in range(10_000):
        g = random_graph(rng, rng.randrange(0, 31), rng.choice([0.2, 0.5, 0.8]))
        text = emit_graph6(g)
        if parse_graph6(text) != g or emit_graph6(parse_graph6(text)) != text:
            bad += 1
    for fam in Family:
        for n in range(1, 7):
            g = generate(FamilyId(fam, n)).graph
            if parse_graph6(emit_graph6(g)) != g:
                bad += 1
    report("10 graph6-round-trip", bad == 0, f"{bad} mismatches")


def _exhaustive_mono(col: ex.EdgeColoring, targets) -> bool:
    for c, t in enumerate(targets):
        if t > col.m:
            continue
        for sub in itertools.combinations(range(col.m), t):
            if all(color_id(col, i, j) == c for i, j in itertools.combinations(sub, 2)):
                return True
    return False


def test_criterion_11_exact_ramsey_search():
    bad = 0
    # all 2-colorings of K5
    pairs5 = list(itertools.combinations(range(5), 2))
    for code in range(1 << len(pairs5)):
        colors = {p: (code >> b) & 1 for b, p in enumerate(pairs5)}
        col = ex.EdgeColoring.from_function(5, (0, 1), lambda i, j: colors[(i, j)])
        if (ex.ramsey_monochromatic(col, (3, 3)) is not None) != _exhaustive_mono(col, (3, 3)):
            bad += 1
    # random 2- and 3-colorings of K6..K8
    rng = random.Random(111)
    for _ in range(10_000):
        m = rng.randrange(6, 9)
        k = rng.choice([2, 3])
        colors = {
            p: rng.randrange(k) for p in itertools.combinations(range(m), 2)
        }
        col = ex.EdgeColoring.from_function(m, tuple(range(k)), lambda i, j: colors[(i, j)])
        targets = tuple(rng.randrange(2, 5) for _ in range(k))
        found = ex.ramsey_monochromatic(col, targets)
        if (found is not None) != _exhaustive_mono(col, targets):
            bad += 1
        elif found is not None:
            c, s = found
            if len(s) != targets[c] or any(
                color_id(col, i, j) != c for i, j in itertools.combinations(sorted(s), 2)
            ):
                bad += 1
    # the pentagon coloring has no monochromatic triangle
    pent = {frozenset(e) for e in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]}
    col = ex.EdgeColoring.from_function(
        5, (0, 1), lambda i, j: 0 if frozenset((i, j)) in pent else 1
    )
    if ex.ramsey_monochromatic(col, (3, 3)) is not None:
        bad += 1
    report("11 exact-ramsey-search", bad == 0, f"{bad} disagreements")
