"""Exact max-plus matrix toolkit.

Idempotent matrices, Kleene stars, tropical permanents, polytrope
geometry, the correspondence with finite metric and semimetric spaces,
and the isometry-group structure of the associated maximal subgroups.
Each module lists its public names in ``__all__``, beside their
definitions, and the package re-exports them.
"""

from .closure import *
from .errors import *
from .groups import *
from .metric import *
from .permutation import *
from .polytope import *
from .rank import *
from .semiring import *

__version__ = "0.1.0"
