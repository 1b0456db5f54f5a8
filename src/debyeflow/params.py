"""Physical parameters and wall data for the channel electrokinetics problem.

Two ionic species with valences of opposite sign move in a fluid slab
between two reservoir walls.  The wall traces of the concentrations are
required to carry zero net charge so that the charge density vanishes on
the boundary; that compatibility is what makes the small-Debye-length
regime non-singular at the walls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Params", "BoundaryData"]


@dataclass
class Params:
    """Physical constants of the scaled two-species transport-flow system.

    Parameters
    ----------
    z1, z2 : float
        Valences, with z1 > 0 > z2.
    D1, D2 : float
        Diffusivities, D1 >= D2 > 0.
    nu : float
        Kinematic viscosity of the solvent.
    eps : float
        Scaled Debye length.
    """

    z1: float
    z2: float
    D1: float
    D2: float
    nu: float
    eps: float

    def __post_init__(self) -> None:
        if not (self.z1 > 0.0 > self.z2):
            raise ValueError(f"valences must satisfy z1 > 0 > z2, got z1={self.z1}, z2={self.z2}")
        if not (self.D1 >= self.D2 > 0.0):
            raise ValueError(f"diffusivities must satisfy D1 >= D2 > 0, got D1={self.D1}, D2={self.D2}")
        if self.nu <= 0.0:
            raise ValueError(f"viscosity must be positive, got nu={self.nu}")
        if self.eps <= 0.0:
            raise ValueError(f"Debye length must be positive, got eps={self.eps}")

    @property
    def D_star(self) -> float:
        """Smaller of the two diffusivities; the dissipation floor."""
        return min(self.D1, self.D2)


@dataclass
class BoundaryData:
    """Wall traces of the concentrations and of the electric potential.

    Each trace is an array of shape (2, nx): row 0 is the wall y = 0,
    row 1 the wall y = 1, sampled at the periodic x nodes.  The
    concentration traces must be positive and carry zero net charge,
    z1*gamma1 + z2*gamma2 = 0 pointwise.
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        self.gamma1 = np.atleast_2d(np.asarray(self.gamma1, dtype=float))
        self.gamma2 = np.atleast_2d(np.asarray(self.gamma2, dtype=float))
        self.w = np.atleast_2d(np.asarray(self.w, dtype=float))
        for name, trace in (("gamma1", self.gamma1), ("gamma2", self.gamma2), ("w", self.w)):
            if trace.shape[0] != 2:
                raise ValueError(f"{name} trace must have shape (2, nx), got {trace.shape}")
            if not np.all(np.isfinite(trace)):
                raise ValueError(f"{name} trace contains non-finite values")
        if np.any(self.gamma1 <= 0.0) or np.any(self.gamma2 <= 0.0):
            raise ValueError("concentration traces must be positive")

    @classmethod
    def electroneutral(
        cls,
        gamma1: np.ndarray,
        w: np.ndarray,
        params: Params,
    ) -> "BoundaryData":
        """Build wall data with gamma2 derived from the zero-net-charge condition."""
        gamma1 = np.atleast_2d(np.asarray(gamma1, dtype=float))
        gamma2 = -params.z1 * gamma1 / params.z2
        return cls(gamma1=gamma1, gamma2=gamma2, w=np.atleast_2d(np.asarray(w, dtype=float)))
