"""Exact convex-geometry toolkit over a sparse rational dual pair.

Finitely supported rational sequences pair against summable rational
sequences; polytopes and polyhedra live on the dual side and every distance,
certificate, and construction step is computed in exact arithmetic.

The public API is each module's ``__all__``, re-exported here in module order.
"""

from . import errors, faces, geometry, hypermetrics, limits, numerics, poulsen
from .errors import *  # noqa: F403
from .faces import *  # noqa: F403
from .geometry import *  # noqa: F403
from .hypermetrics import *  # noqa: F403
from .limits import *  # noqa: F403
from .numerics import *  # noqa: F403
from .poulsen import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *numerics.__all__,
    *geometry.__all__,
    *hypermetrics.__all__,
    *faces.__all__,
    *poulsen.__all__,
    *limits.__all__,
]
