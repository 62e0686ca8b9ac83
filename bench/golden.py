"""Record the reference output of every corpus graph, per workload and seed.

Run at the commit whose outputs later commits must reproduce byte for byte:

    python3 bench/golden.py --seeds 1 2 3 4 5 6 7 8 9 10

``bench/golden.json`` keeps, per workload and seed, a short SHA-256 digest of
each graph's stdout in corpus order; ``run.py`` fails any graph whose output
digest differs.  Seeds already recorded are replaced.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from corpus import WORKLOADS
from run import GOLDEN, ROOT, digest, import_cli, run_graph


def source_commit() -> str:
    """The checked-out commit of the repository, or "unknown" outside git."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"workloads": {}}
    golden["commit"] = source_commit()
    golden["format"] = "sha256 of each graph's stdout, first 16 hex digits, in corpus order"
    cli = import_cli()
    for name in WORKLOADS:
        for seed in args.seeds:
            outs = []
            for item in WORKLOADS[name].corpus(seed):
                _, rc, out = run_graph(cli, item.argv, item.g6)
                if rc != 0:
                    raise SystemExit(f"{name} seed {seed} graph {item.index}: exit status {rc}")
                outs.append(digest(out))
            golden["workloads"].setdefault(name, {})[str(seed)] = outs
            print(f"{name} seed {seed}: {len(outs)} outputs recorded", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
