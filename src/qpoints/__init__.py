"""Point varieties of quantum polynomial algebras, exactly.

Compute the point variety of a skew polynomial algebra from its commutation
matrix, classify the collections of coordinate planes that can be excluded
from one (adequacy, denseness, symmetry orbits), build the degeneration
graph of parameter sub-tori, and constructively realize admissible
collections as concrete algebras.  All arithmetic is exact: parameters live
in a finitely generated abelian group and every question reduces to integer
lattice computations.
"""

__version__ = "0.1.0"

from .adequacy import (
    Collection,
    OrbitCatalog,
    enumerate_adequate,
    is_adequate,
    is_dense,
)
from .degeneration import (
    DegGraph,
    DegNode,
    build_graph,
    enumerate_nodes,
    sinks,
    to_dot,
)
from .lattice import (
    SubLattice,
    closure,
    node_label,
    quartet_saturate,
    span,
    triple_char,
)
from .realize import (
    NotAdequateError,
    RealizationResult,
    SolutionFamily,
    forced_solutions,
    generic_point_of_node,
    realize,
    realize_all,
)
from .scalars import (
    GeneratorTable,
    GroupScalar,
    QMatrix,
    parse_scalar,
    qmatrix_from_json,
)
from .triples import Triple, TripleSet, all_triples
from .variety import (
    Configuration,
    components,
    good_triples,
    ideal_generators,
)

__all__ = [
    "Collection",
    "Configuration",
    "DegGraph",
    "DegNode",
    "GeneratorTable",
    "GroupScalar",
    "NotAdequateError",
    "OrbitCatalog",
    "QMatrix",
    "RealizationResult",
    "SolutionFamily",
    "SubLattice",
    "Triple",
    "TripleSet",
    "all_triples",
    "build_graph",
    "closure",
    "components",
    "enumerate_adequate",
    "enumerate_nodes",
    "forced_solutions",
    "generic_point_of_node",
    "good_triples",
    "ideal_generators",
    "is_adequate",
    "is_dense",
    "node_label",
    "parse_scalar",
    "qmatrix_from_json",
    "quartet_saturate",
    "realize",
    "realize_all",
    "sinks",
    "span",
    "to_dot",
    "triple_char",
]
