"""Span tracing at the module boundaries of primewitness, from outside it.

``Tracer.install`` points each traced public function, in every
``primewitness`` module namespace that holds it, at one wrapper, so calls
through ``from .x import f`` bindings are traced too.  Each wrapper records
one span: name, parent span, graph id, start and end.  Spans stay in memory
until ``write``.  Self time is a span's duration minus its child spans'.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

TRACED = {
    "graphs": ("parse_graph6", "complement"),
    "homogeneous": ("find_homogeneous_set", "is_prime", "closure"),
    "families": ("find_induced_copy", "find_witness_any", "check_witness", "find_prime_chain"),
    "chains": ("find_chain", "validate_chain"),
    "extraction": (
        "unavoidable_witness",
        "best_independent_set",
        "extract_from_independent_set",
        "ramsey_monochromatic",
    ),
    "cli": ("main",),
}

# Named counts: a found result is a hit; an InsufficientSize raised is a
# stage that ran out of vertices.
HITS = ("families.find_induced_copy", "families.find_prime_chain")
INSUFFICIENT = ("extraction.extract_from_independent_set",)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in table order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            span = f"{module}.{fn}"
            stats = ["self_ms"] if span == "cli.main" else ["calls", "self_ms"]
            if span in HITS:
                stats.append("hits")
            if span == "families.find_induced_copy":
                stats.append("hit_ratio")
            if span in INSUFFICIENT:
                stats.append("insufficient")
            names.extend(f"{span}.{s}" for s in stats)
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("b")
        self.parent = array("q")
        self.graph = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.graph_id = -1
        self._stack = [-1]
        # (module, attribute, original, wrapper), built by the first install
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, span: str, fn, insufficient_type):
        code = len(self.names)
        self.names.append(span)
        count_hits = span in HITS
        count_insufficient = span in INSUFFICIENT
        if count_hits:
            self.counts[span + ".hits"] = 0
        if count_insufficient:
            self.counts[span + ".insufficient"] = 0
        name, parent, graph = self.name, self.parent, self.graph
        start, end, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(code)
            parent.append(stack[-1])
            graph.append(self.graph_id)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except insufficient_type:
                if count_insufficient:
                    counts[span + ".insufficient"] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if count_hits and result is not None:
                counts[span + ".hits"] += 1
            return result

        return traced

    def install(self) -> None:
        """Point every traced function of the imported primewitness package,
        under every name it is bound to, at its wrapper."""
        if not self._patches:
            self._build_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _build_patches(self) -> None:
        insufficient_type = sys.modules["primewitness.witnesses"].InsufficientSize
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "primewitness"]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"primewitness.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original, insufficient_type)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass: calls, self time, named counts."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid, code in enumerate(self.name):
            dur = self.end[sid] - self.start[sid]
            calls[code] += 1
            self_ns[code] += dur
            p = self.parent[sid]
            if p >= 0:
                self_ns[self.name[p]] -= dur
        by_span = {
            span: (calls[code], self_ns[code]) for code, span in enumerate(self.names)
        }
        out = {}
        for metric in per_layer_names():
            span, _, stat = metric.rpartition(".")
            n_calls, n_self = by_span[span]
            if stat == "calls":
                value = n_calls / passes
            elif stat == "self_ms":
                value = n_self / 1e6 / passes
            elif stat == "hit_ratio":
                value = self.counts[span + ".hits"] / n_calls if n_calls else 0.0
            else:
                value = self.counts[f"{span}.{stat}"] / passes
            out[metric] = value
        return out

    def write(self, path) -> None:
        """Write every span as tab-separated id, parent, graph, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\tgraph\tname\tstart_ns\tend_ns\n")
            for sid, code in enumerate(self.name):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{self.graph[sid]}\t{self.names[code]}"
                    f"\t{self.start[sid]}\t{self.end[sid]}\n"
                )
