"""Result types shared by the family search and the extraction pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .families import FamilyId


@dataclass(frozen=True)
class Witness:
    """An induced embedding of one named outcome family into a host graph.

    ``embedding[i]`` is the host vertex carrying pattern vertex i of the
    (possibly complemented) generated family graph.
    """

    family: "FamilyId"
    embedding: tuple[int, ...]
    provenance: str = ""

    def to_json(self) -> dict:
        return {
            "family": self.family.family.value,
            "n": self.family.n,
            "complemented": self.family.complemented,
            "embedding": list(self.embedding),
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class ChainWitness:
    """A chain whose vertices induce a prime subgraph of the host."""

    chain: tuple[int, ...]
    provenance: str = ""

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    def to_json(self) -> dict:
        return {
            "chain": list(self.chain),
            "length": self.length,
            "provenance": self.provenance,
        }


def _show(value) -> str:
    """``str(value)``, or ``>=2^B`` (the lower bound ``Huge`` prints) for an
    int with too many digits for Python to convert to decimal."""
    try:
        return str(value)
    except ValueError:
        return f">=2^{value.bit_length() - 1}"


class InsufficientSize(Exception):
    """A pipeline stage ran out of vertices.

    First-class result rather than a failure: the guaranteed thresholds are
    astronomically large, so realistic inputs are expected to bottom out in
    some stage.  ``needed`` is the amount that would have let the stage
    proceed (an int, or a descriptor string when not materializable).
    """

    def __init__(self, stage: str, needed, had: int, trace: tuple[str, ...] = ()):
        super().__init__(f"stage {stage}: needed {_show(needed)}, had {had}")
        self.stage = stage
        self.needed = needed
        self.had = had
        self.trace = trace

    def with_trace(self, *stages: str) -> "InsufficientSize":
        return InsufficientSize(self.stage, self.needed, self.had, tuple(stages) + self.trace)

    def to_json(self) -> dict:
        out = {"stage": self.stage, "needed": _show(self.needed), "had": self.had}
        if self.trace:
            out["trace"] = list(self.trace)
        return out


class NotPrimeError(ValueError):
    """Raised when a prime-only procedure receives a non-prime graph."""

    def __init__(self, homogeneous_set: frozenset[int]):
        super().__init__(f"graph is not prime; homogeneous set {sorted(homogeneous_set)}")
        self.homogeneous_set = homogeneous_set
