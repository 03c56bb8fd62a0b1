"""Exact arithmetic for the trees that enumerate the rationals.

Calkin-Wilf and Stern-Brocot trees over reduced fractions, the Stern diatomic
sequence, the free monoid of non-negative unimodular matrices, the shadow maps
that collapse the matrix tree onto both rational trees, and the topograph's
forward flow.  Everything is big-integer exact; the two verify functions
machine-check the correspondences exhaustively to a chosen depth.
"""

from .matrices import (
    IDENTITY,
    Mat2,
    Path,
    decompose,
    from_path,
    generators,
)
from .rational import (
    ExtendedRational,
    compare,
    farey_sequence,
    is_z_distinct,
    mediant,
)
from .shadows import (
    TheoremReport,
    cw_shadow,
    cw_shadow_mobius,
    farey_shadow,
    farey_shadow_mobius,
    verify_theorem,
)
from .stern import SternTable, fusc, hyperbinary_count_oracle, stern
from .topograph import (
    OrientedVertex,
    TopographReport,
    Vertex,
    conjugate_shadow,
    farey_label,
    forward_tree,
    neighbors,
    triples_containing,
    verify_topograph_proof,
    vertex_matrix,
)
from .trees import (
    SBNode,
    TreeNode,
    best_approximation,
    bfs_index,
    cw_locate,
    cw_unrank,
    cw_value,
    index_to_path,
    level_iter,
    sb_locate,
    sb_node,
    sb_row,
    walk,
)

__version__ = "0.1.0"

__all__ = [
    "ExtendedRational",
    "IDENTITY",
    "Mat2",
    "OrientedVertex",
    "Path",
    "SBNode",
    "SternTable",
    "TheoremReport",
    "TopographReport",
    "TreeNode",
    "Vertex",
    "best_approximation",
    "bfs_index",
    "compare",
    "conjugate_shadow",
    "cw_locate",
    "cw_shadow",
    "cw_shadow_mobius",
    "cw_unrank",
    "cw_value",
    "decompose",
    "farey_label",
    "farey_sequence",
    "farey_shadow",
    "farey_shadow_mobius",
    "forward_tree",
    "from_path",
    "fusc",
    "generators",
    "hyperbinary_count_oracle",
    "index_to_path",
    "is_z_distinct",
    "level_iter",
    "mediant",
    "neighbors",
    "sb_locate",
    "sb_node",
    "sb_row",
    "stern",
    "triples_containing",
    "verify_theorem",
    "verify_topograph_proof",
    "vertex_matrix",
    "walk",
    "__version__",
]
