"""Projective lines over small finite rings.

Cayley-table rings, free cyclic submodules of R^2, the unimodular and
non-unimodular sectors of the generalized projective line, their
neighbour/distant structure, and the condensation of the non-unimodular
sector onto reference ring lines.
"""

from .errors import BadInput, NoAnswer, RinglineError, TooLarge
from .rings import FiniteRing, are_isomorphic, enumerate_ideals, ideal_size_census, validate_tables
from .constructors import (
    SUPPORTED_FIELD_ORDERS,
    bundled_ring_path,
    construct,
    load_ring_file,
    product,
    write_ring_file,
)
from .line import (
    CyclicSubmodule,
    ProjectiveLine,
    compute_line,
    cyclic_submodule,
    is_unimodular,
    line_to_dict,
    line_to_json,
    unimodularity_witness,
)
from .geometry import (
    SECTORS,
    RelationGraph,
    SectorPartition,
    cross_sector_check,
    export_graph,
    max_distant_cliques,
    max_neighbour_cliques,
    relation,
    sector_points,
    unimodular_partition,
)
from .condense import (
    DEFAULT_CATALOG,
    CondensateIdentification,
    IncidenceStructure,
    StructureIsomorphism,
    VectorClass,
    condensate_distant_analysis,
    condense,
    identify_condensate,
    private_vectors,
    reference_structure,
    structures_isomorphic,
)

__version__ = "0.1.0"

__all__ = [
    "BadInput",
    "CondensateIdentification",
    "CyclicSubmodule",
    "DEFAULT_CATALOG",
    "FiniteRing",
    "IncidenceStructure",
    "NoAnswer",
    "ProjectiveLine",
    "RelationGraph",
    "RinglineError",
    "SECTORS",
    "SUPPORTED_FIELD_ORDERS",
    "SectorPartition",
    "StructureIsomorphism",
    "TooLarge",
    "VectorClass",
    "are_isomorphic",
    "bundled_ring_path",
    "compute_line",
    "condensate_distant_analysis",
    "condense",
    "construct",
    "cross_sector_check",
    "cyclic_submodule",
    "enumerate_ideals",
    "export_graph",
    "ideal_size_census",
    "identify_condensate",
    "is_unimodular",
    "line_to_dict",
    "line_to_json",
    "load_ring_file",
    "max_distant_cliques",
    "max_neighbour_cliques",
    "private_vectors",
    "product",
    "reference_structure",
    "relation",
    "sector_points",
    "structures_isomorphic",
    "unimodular_partition",
    "unimodularity_witness",
    "validate_tables",
    "write_ring_file",
]
