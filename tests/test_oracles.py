from primewitness import chains, homogeneous
from primewitness.oracles import all_graphs, chain_sweep, primality_sweep


def test_sweeps_count_disagreements(monkeypatch):
    # with primality and chain search made wrong on every input, each sweep
    # must count every case it checks, so it cannot pass by checking nothing
    graphs = list(all_graphs(4))
    assert primality_sweep(graphs) == (64, 0, 12)
    assert chain_sweep(graphs) == (64 * 12, 0)

    find_set = homogeneous.find_homogeneous_set
    find_chain = chains.find_chain
    monkeypatch.setattr(
        homogeneous,
        "find_homogeneous_set",
        lambda g: frozenset({0, 1}) if find_set(g) is None else None,
    )
    monkeypatch.setattr(
        chains,
        "find_chain",
        lambda g, src, w: (*src, w) if find_chain(g, src, w) is None else None,
    )
    assert primality_sweep(graphs) == (64, 64, 0)
    assert chain_sweep(graphs) == (64 * 12, 64 * 12)
