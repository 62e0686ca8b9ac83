"""Benchmark of the primewitness command line, run in process.

One caller in one process runs a closed loop: each graph of a seeded corpus
is one call to ``primewitness.cli.main`` with that graph's graph6 line as
stdin and stdout captured, so the measured path is the CLI code users run,
minus interpreter start-up.  Outputs are checked after the timed loop.

    python3 bench/run.py --workload prime-gnp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload's trace block in pairs of passes, one untraced and one traced, and
reports per-layer metrics per traced pass plus the tracing overhead; its
spans are written to ``.bench_out/``.  ``--all`` runs every workload, each in a fresh
process.  The last line of a single-workload run is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_output
from corpus import WORKLOADS, Item, encode_graph6
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPANS = ROOT / ".bench_out"

# set-ups timed before the timed loop, and again after it, so that setup_s,
# their median, does not hang on one short stretch of machine time
SETUP_REPEATS = 5
# warm-up input: the path on five vertices, small and prime
WARMUP_G6 = encode_graph6((0b10, 0b101, 0b1010, 0b10100, 0b1000))

END_TO_END = (
    ("graphs_per_s", "graphs/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_cli():
    """Import primewitness afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "primewitness"]:
        del sys.modules[name]
    cli = importlib.import_module("primewitness.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported primewitness from {cli.__file__}, not from {SRC}")
    return cli


def run_graph(cli, argv, g6: str) -> tuple[float, object, str]:
    """One CLI call on one graph: (seconds, exit status, stdout)."""
    out = io.StringIO()
    sys.stdin = io.StringIO(g6 + "\n")
    try:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(argv))
        except (Exception, SystemExit) as e:  # a crash fails this graph, not the run
            rc = f"raised {e!r}"
        return time.perf_counter() - start, rc, out.getvalue()
    finally:
        sys.stdin = sys.__stdin__


def set_up(workload, seed: int):
    """Import, corpus build and warm-up; returns them and their time."""
    start = time.perf_counter()
    cli = import_cli()
    items = workload.corpus(seed)
    for argv in dict.fromkeys(item.argv for item in items):
        run_graph(cli, argv, WARMUP_G6)
    return cli, items, time.perf_counter() - start


def load_golden(name: str, seed: int) -> list[str] | None:
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text())["workloads"].get(name, {}).get(str(seed))


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def check_all(results, golden, families) -> list[str]:
    """Failure reasons, one per failed graph."""
    failures = []
    for item, _, rc, out in results:
        why = check_output(item, rc, out, families)
        if why is None and golden is not None and digest(out) != golden[item.index]:
            why = "output differs from the recorded output for this seed"
        if why is not None:
            failures.append(f"graph {item.index}: {why}")
    return failures


def timed_loop(cli, items: list[Item], seconds: float):
    """Run graphs in corpus order, starting over at the end, until
    ``seconds`` have passed; returns the results and the elapsed time."""
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        item = items[len(results) % len(items)]
        results.append((item, *run_graph(cli, item.argv, item.g6)))
    return results, time.perf_counter() - start


def traced_loop(cli, block: list[Item], seconds: float, tracer: Tracer):
    """Pairs of passes over the block, one untraced and one traced, until
    ``seconds`` have passed; returns the results, the number of pairs and
    the untraced and traced graphs per second."""
    results = []
    spent = [0.0, 0.0]
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            pass_start = time.perf_counter()
            try:
                for item in block:
                    tracer.graph_id = len(results)
                    results.append((item, *run_graph(cli, item.argv, item.g6)))
            finally:
                tracer.uninstall()
            spent[traced] += time.perf_counter() - pass_start
        passes += 1
    graphs = passes * len(block)
    return results, passes, graphs / spent[0], graphs / spent[1]


def end_to_end(results, elapsed: float) -> dict[str, float]:
    lat_ms = [r[1] * 1000 for r in results]
    q = statistics.quantiles(lat_ms, n=10)
    return {
        "graphs_per_s": len(results) / elapsed,
        "p50_ms": q[4],
        "p90_ms": q[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_layers(layers: dict[str, float], passes: int, block: int) -> None:
    total = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    print(f"per-layer metrics per pass of {block} graphs ({passes} traced passes)")
    for name, value in layers.items():
        if name.endswith(".self_ms"):
            share = 100 * value / total if total else 0.0
            print(f"  {name:<52} {value:12.3f} ms   {share:5.1f}% of traced time")
        elif name.endswith("_pct"):
            print(f"  {name:<52} {value:12.2f} %")
        else:
            print(f"  {name:<52} {value:12.4g}")


def traced_run(workload, seed: int, seconds: float, cli, items):
    tracer = Tracer()
    block = items[: workload.trace_block]
    results, passes, untraced_gps, traced_gps = traced_loop(cli, block, seconds, tracer)
    metrics = tracer.summary(passes)
    metrics["trace.overhead_pct"] = 100 * (untraced_gps - traced_gps) / untraced_gps
    units = {name: "ms" if name.endswith("_ms") else "count" for name in metrics}
    units["families.find_induced_copy.hit_ratio"] = "ratio"
    units["trace.overhead_pct"] = "%"
    print_layers(metrics, passes, len(block))
    print(
        f"  graphs_per_s untraced {untraced_gps:.3f}, traced {traced_gps:.3f}: "
        f"tracing costs {untraced_gps - traced_gps:.3f} graphs/s"
    )
    SPANS.mkdir(exist_ok=True)
    spans = SPANS / f"spans-{workload.name}-{seed}.tsv.gz"
    tracer.write(spans)
    print(f"  {len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
    return results, metrics, units


def untraced_run(workload, seed: int, seconds: float, cli, items, setup_times):
    results, elapsed = timed_loop(cli, items, seconds)
    metrics = end_to_end(results, elapsed)
    for _ in range(SETUP_REPEATS):
        setup_times.append(set_up(workload, seed)[2])
    metrics["setup_s"] = statistics.median(setup_times)
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:12.4f} {unit}")
    print(f"  p50_ms and p90_ms over {len(results)} graphs, "
          f"setup_s the median of {len(setup_times)} set-ups")
    return results, metrics, dict(END_TO_END)


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli, items, seconds = set_up(workload, args.seed)
        setup_times.append(seconds)
    families = sys.modules["primewitness.families"]
    golden = load_golden(workload.name, args.seed)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"  {workload.why}")
    if args.trace:
        results, metrics, units = traced_run(workload, args.seed, args.seconds, cli, items)
    else:
        results, metrics, units = untraced_run(
            workload, args.seed, args.seconds, cli, items, setup_times
        )

    failures = check_all(results, golden, families)
    print(
        f"  fail_ratio     {len(failures) / len(results):12.4f} "
        f"({len(failures)} of {len(results)} graphs; golden output "
        f"{'checked' if golden else 'not recorded for this seed'})"
    )
    for why in failures[:10]:
        print(f"  FAILED {why}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=600,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
