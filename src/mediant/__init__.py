"""Exact arithmetic for the trees that enumerate the rationals.

Calkin-Wilf and Stern-Brocot trees over reduced fractions, the Stern diatomic
sequence, the free monoid of non-negative unimodular matrices, the shadow maps
that collapse the matrix tree onto both rational trees, and the topograph's
forward flow.  Everything is big-integer exact; the two verify functions
machine-check the correspondences exhaustively to a chosen depth.
"""

from importlib import import_module

from . import matrices, rational, stern, trees

__version__ = "0.1.0"

# The verifiers load on first use (PEP 562), each name by its module.
_LAZY = {name: module for module, names in (
    ("shadows", ("TheoremReport", "cw_shadow", "cw_shadow_mobius", "farey_shadow",
                 "farey_shadow_mobius", "verify_theorem")),
    ("topograph", ("OrientedVertex", "TopographReport", "Vertex", "conjugate_shadow",
                   "farey_label", "forward_tree", "neighbors", "triples_containing",
                   "verify_topograph_proof", "vertex_matrix")),
) for name in names}

# Built before the star imports below: the one from .stern rebinds the name
# stern from the module to the function.
__all__ = sorted(
    {name for module in (matrices, rational, stern, trees) for name in module.__all__}
    | _LAZY.keys()
) + ["__version__"]

from .matrices import *  # noqa: E402,F401,F403
from .rational import *  # noqa: E402,F401,F403
from .stern import *  # noqa: E402,F401,F403
from .trees import *  # noqa: E402,F401,F403


def __getattr__(name: str):
    if name not in _LAZY and name not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{_LAZY.get(name, name)}")  # also binds the module here
    if name in _LAZY:  # stored, so that the next read skips this hook
        globals()[name] = value = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
