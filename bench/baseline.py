"""Measure the baseline that performance changes are sized against.

    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/BASELINE.json

Runs every workload once per seed with tracing off, each run in a fresh
process, then twice traced on the first seed.  Writes each end-to-end
metric's median and quartiles over the seeds, their spread (the distance
between the quartiles as a share of the median), the per-layer table of the
first traced run with each layer's share of traced self time, whether the
two traced runs agree on every count, the Python version and the commit.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS
from golden import source_commit

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh process: its result line, plus its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    doc = {
        "commit": source_commit(),
        "python": platform.python_version(),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = []
        for seed in args.seeds:
            result = run(name, seed, args.seconds, 0)
            runs.append(result)
            print(name, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        e2e = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            e2e[metric] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "values": values,
            }
        traced, again = (run(name, args.seeds[0], args.seconds, 1) for _ in range(2))
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        counts = [k for k, m in traced["metrics"].items() if m["unit"] == "count"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_ms"))
        doc["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "traced_run_wall_s": traced["wall_s"],
            "traced_counts_repeat": all(
                traced["metrics"][k] == again["metrics"][k] for k in counts
            ),
            "end_to_end": e2e,
            "per_layer": layers,
            "self_time_share": {
                k.removesuffix(".self_ms"): v / total
                for k, v in layers.items() if k.endswith(".self_ms") and v
            },
        }
        for metric, s in e2e.items():
            print(f"  {name} {metric}: median {s['median']:.4f} {s['unit']}, "
                  f"spread {100 * s['spread']:.1f}%", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
