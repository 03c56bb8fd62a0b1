"""Exact arithmetic for the trees that enumerate the rationals.

Calkin-Wilf and Stern-Brocot trees over reduced fractions, the Stern diatomic
sequence, the free monoid of non-negative unimodular matrices, the shadow maps
that collapse the matrix tree onto both rational trees, and the topograph's
forward flow.  Everything is big-integer exact; the two verify functions
machine-check the correspondences exhaustively to a chosen depth.
"""

from . import matrices, rational, shadows, stern, topograph, trees

__version__ = "0.1.0"

# Built before the star imports below: the one from .stern rebinds the name
# stern from the module to the function.
__all__ = sorted(
    {name for module in (matrices, rational, shadows, stern, topograph, trees)
     for name in module.__all__}
) + ["__version__"]

from .matrices import *  # noqa: E402,F401,F403
from .rational import *  # noqa: E402,F401,F403
from .shadows import *  # noqa: E402,F401,F403
from .stern import *  # noqa: E402,F401,F403
from .topograph import *  # noqa: E402,F401,F403
from .trees import *  # noqa: E402,F401,F403
