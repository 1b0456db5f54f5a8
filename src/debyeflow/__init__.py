"""debyeflow: a numerical laboratory for channel electrokinetics.

Simulates the scaled two-species ionic transport-flow system in a
periodic channel, its quasi-neutral limit, and the boundary, initial,
and corner layer profiles that connect the two, with diagnostics for
energy identities and convergence rates.
"""

from .params import BoundaryData, Params
from .grid import ChannelGrid, State, VelocityField

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "ChannelGrid",
    "Params",
    "State",
    "VelocityField",
    "__version__",
]
