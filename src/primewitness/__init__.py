"""Prime-graph certificates: homogeneous sets, chains, family generators,
and unavoidable induced-subgraph witnesses."""

from .chains import chain_induces_prime, find_chain, trim_chain_to_prime, validate_chain
from .extraction import (
    BoundSpec,
    EdgeColoring,
    RegularTriple,
    bounds,
    extract_from_half_split,
    extract_from_independent_set,
    extract_from_matching,
    grow_regular_triple,
    ramsey_monochromatic,
    unavoidable_witness,
)
from .families import (
    Family,
    FamilyId,
    LabeledFamilyGraph,
    are_isomorphic,
    check_witness,
    find_induced_copy,
    find_isomorphism,
    find_witness_any,
    generate,
)
from .graphs import (
    Graph,
    Graph6Error,
    complement,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
)
from .homogeneous import find_homogeneous_set, is_prime
from .oracles import brute_force_homogeneous
from .witnesses import ChainWitness, InsufficientSize, NotPrimeError, Witness

__all__ = [
    "BoundSpec",
    "ChainWitness",
    "EdgeColoring",
    "Family",
    "FamilyId",
    "Graph",
    "Graph6Error",
    "InsufficientSize",
    "LabeledFamilyGraph",
    "NotPrimeError",
    "RegularTriple",
    "Witness",
    "are_isomorphic",
    "bounds",
    "brute_force_homogeneous",
    "chain_induces_prime",
    "check_witness",
    "complement",
    "emit_graph6",
    "extract_from_half_split",
    "extract_from_independent_set",
    "extract_from_matching",
    "find_chain",
    "find_homogeneous_set",
    "find_induced_copy",
    "find_isomorphism",
    "find_witness_any",
    "generate",
    "grow_regular_triple",
    "induced_subgraph",
    "is_prime",
    "parse_graph6",
    "ramsey_monochromatic",
    "trim_chain_to_prime",
    "unavoidable_witness",
    "validate_chain",
]
