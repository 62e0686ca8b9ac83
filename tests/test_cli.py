import io
import json
from pathlib import Path

import pytest

from primewitness.cli import main
from primewitness.families import Family, FamilyId, generate
from primewitness.graphs import complement, emit_graph6, parse_graph6


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_half_graph(capsys):
    code, out, _ = run_cli(capsys, ["gen", "half-graph:2"])
    assert code == 0
    assert out.strip() == "CY"  # 4 vertices, edges a1b1, a2b1, a2b2
    assert parse_graph6(out.strip()) == generate(FamilyId(Family.HALF_GRAPH, 2)).graph


def test_gen_complement_suffix(capsys):
    code, out, _ = run_cli(capsys, ["gen", "thin-spider:5!"])
    assert code == 0
    expected = complement(generate(FamilyId(Family.THIN_SPIDER, 5)).graph)
    assert parse_graph6(out.strip()) == expected


def test_gen_unknown_family(capsys):
    code, _, err = run_cli(capsys, ["gen", "k2:1"])
    assert code == 2 and "k2" in err


def test_prime_verdicts(capsys, monkeypatch):
    from primewitness.graphs import Graph

    lines = "\n".join([emit_graph6(Graph.path(4)), emit_graph6(Graph.cycle(4))]) + "\n"
    code, out, err = run_cli(capsys, ["prime"], lines, monkeypatch)
    assert code == 0
    first, second = out.strip().splitlines()
    assert first == "prime"
    assert second.startswith("homogeneous {")


def test_prime_tiny_graphs(capsys, monkeypatch):
    # 0, 1 and 2 vertices (the last two with and without the edge)
    code, out, _ = run_cli(capsys, ["prime"], "?\n@\nA_\nA?\n", monkeypatch)
    assert code == 0
    assert out.splitlines() == ["vacuous"] * 4


def test_prime_empty_input(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["prime"], "", monkeypatch)
    assert code == 0 and out == ""


def test_prime_parse_error_keeps_going(capsys, monkeypatch):
    from primewitness.graphs import Graph

    lines = "!!notgraph6!!\n" + emit_graph6(Graph.path(4)) + "\n"
    code, out, err = run_cli(capsys, ["prime"], lines, monkeypatch)
    assert code == 1
    assert out.strip() == "prime"
    assert "line 1" in err


def test_witness_json_half_graph(capsys, monkeypatch):
    host = generate(FamilyId(Family.HALF_GRAPH, 12)).graph
    code, out, _ = run_cli(
        capsys, ["witness", "--n", "4", "--json"], emit_graph6(host) + "\n", monkeypatch
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["family"] == "half-graph"
    assert payload["n"] == 4
    assert payload["complemented"] is False
    assert len(payload["embedding"]) == 8


def test_witness_nonprime(capsys, monkeypatch):
    from primewitness.graphs import Graph

    code, out, _ = run_cli(
        capsys, ["witness", "--n", "3", "--json"], emit_graph6(Graph.complete(5)) + "\n", monkeypatch
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert "nonprime" in payload


def test_witness_insufficient(capsys, monkeypatch):
    from primewitness.graphs import Graph

    code, out, _ = run_cli(
        capsys, ["witness", "--n", "6", "--json"], emit_graph6(Graph.cycle(7)) + "\n", monkeypatch
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert set(payload) >= {"stage", "needed", "had"}


def test_witness_insufficient_huge_bound(capsys, monkeypatch):
    # the independent-set Ramsey bound at n = 895 has 14,297 bits, more
    # decimal digits than Python converts, so it prints as a lower bound
    from primewitness.graphs import Graph

    code, out, err = run_cli(
        capsys, ["witness", "--n", "895"], emit_graph6(Graph.path(5)) + "\n", monkeypatch
    )
    assert code == 0, err
    assert out.splitlines() == ["insufficient stage=independent-set:ramsey needed=>=2^14296 had=2"]


@pytest.mark.parametrize("as_json", [False, True])
def test_witness_summary_counts(capsys, monkeypatch, as_json):
    from primewitness.graphs import Graph

    hosts = [generate(FamilyId(Family.HALF_GRAPH, 12)).graph, Graph.complete(5), Graph.cycle(7)]
    text = "".join(emit_graph6(h) + "\n" for h in hosts) + "!!notgraph6!!\n"
    argv = ["witness", "--n", "6"] + (["--json"] if as_json else [])
    code, out, err = run_cli(capsys, argv, text, monkeypatch)
    assert code == 1
    assert len(out.splitlines()) == 3
    assert "line 4" in err
    summary = err.strip().splitlines()[-1]
    assert summary.startswith("processed 4 graphs in ")
    assert summary.endswith(
        "s: 1 family witnesses, 0 chain witnesses, 1 insufficient, 1 non-prime, 1 errors"
    )


def test_witness_bad_n(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["witness", "--n", "2"], "", monkeypatch)
    assert code == 2


def test_witness_tiny_graphs(capsys, monkeypatch):
    # 0, 1 and 2 vertices (the last two with and without the edge)
    code, out, err = run_cli(capsys, ["witness", "--n", "3"], "?\n@\nA_\nA?\n", monkeypatch)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert lines[:4] == [f"line {k}: host needs at least 3 vertices" for k in range(1, 5)]
    assert len(lines) == 5
    assert lines[4].endswith(
        "s: 0 family witnesses, 0 chain witnesses, 0 insufficient, 0 non-prime, 4 errors"
    )


def test_witness_rejects_jobs(capsys, monkeypatch):
    # one process only: --jobs is not an option, so argparse exits 2
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, ["witness", "--n", "3", "--jobs", "2"], "", monkeypatch)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and "--jobs" in captured.err


class _RecordingInput:
    """Input lines that note, as each is read, how many output lines exist."""

    def __init__(self, lines, out: io.StringIO):
        self.lines = iter(lines)
        self.out = out
        self.printed_before = []

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self.lines)
        self.printed_before.append(self.out.getvalue().count("\n"))
        return line


def test_witness_streams_line_by_line(monkeypatch):
    line = emit_graph6(generate(FamilyId(Family.HALF_GRAPH, 8)).graph) + "\n"
    out = io.StringIO()
    lines = _RecordingInput([line] * 8, out)
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["witness", "--n", "3", "--json"]) == 0
    assert out.getvalue().count("\n") == 8
    # each line's result is out before the next line is read
    assert lines.printed_before == list(range(8))


_BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["witness-hit", "witness-exhaust", "prime-gnp"])
def test_witness_output_matches_golden_digests(capsys, monkeypatch, workload):
    # the first-match contract end to end: the CLI output on the first 40
    # graphs of the benchmark corpus (seed 1) equals the recorded output
    monkeypatch.syspath_prepend(str(_BENCH))
    from corpus import WORKLOADS
    from run import digest, load_golden

    golden = load_golden(workload, 1)
    for item in WORKLOADS[workload].corpus(1)[:40]:
        code, out, _ = run_cli(capsys, list(item.argv), item.g6 + "\n", monkeypatch)
        assert code == 0
        assert digest(out) == golden[item.index], (workload, item.index)


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max-vertices", "4"])
    assert code == 0
    assert "total disagreements: 0" in out
    # every labeled prime graph on 4 vertices is one of the 12 orderings of
    # the path; the count is reported and stable across runs
    assert "4: 12" in out
    code2, out2, _ = run_cli(capsys, ["verify", "--max-vertices", "4"])
    assert out2 == out


def test_verify_rejects_large(capsys):
    code, _, err = run_cli(capsys, ["verify", "--max-vertices", "9"])
    assert code == 2


def test_witness_random_prime_soak(capsys, monkeypatch):
    import random

    from primewitness.families import check_witness
    from primewitness.witnesses import ChainWitness, Witness
    from util import random_prime_graph

    rng = random.Random(60)
    g = random_prime_graph(rng, 100)
    code, out, _ = run_cli(
        capsys, ["witness", "--n", "3", "--json"], emit_graph6(g) + "\n", monkeypatch
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert "family" in payload or "chain" in payload
    if "family" in payload:
        fid = FamilyId.parse(
            f"{payload['family']}:{payload['n']}" + ("!" if payload["complemented"] else "")
        )
        w = Witness(fid, tuple(payload["embedding"]))
    else:
        w = ChainWitness(tuple(payload["chain"]))
    assert check_witness(g, w)
