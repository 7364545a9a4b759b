"""Finite-block security calculator for entanglement-based QKD.

The package exports what its four library modules export: their
``__all__`` lists are the one list of public names.
"""

from . import bounds, optimizer, security, simulator
from .bounds import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .security import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *bounds.__all__,
    *optimizer.__all__,
    *security.__all__,
    *simulator.__all__,
    "__version__",
]
