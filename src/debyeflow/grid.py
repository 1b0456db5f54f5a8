"""Grid and field containers for the periodic channel.

The domain is T^{d-1} x (0, 1): periodic in the tangential directions,
a unit interval with walls in the last coordinate.  We only implement
d = 1 (no tangential direction, nx = 1) and d = 2 (one periodic
tangential coordinate).  Fields always carry shape (nx, ny) so the same
code paths serve both dimensions; for d = 1 the x-axis is a singleton.

Discretization: Fourier collocation in x (uniform nodes, period 1),
second-order centered finite differences in y on ny nodes including
both walls, hy = 1/(ny - 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["ChannelGrid", "VelocityField", "State"]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@functools.lru_cache(maxsize=8)
def _wavenumbers(nx: int) -> tuple[np.ndarray, np.ndarray]:
    """ChannelGrid.kx and kx_first for nx nodes, built once and read-only."""
    kx = 2.0 * np.pi * np.fft.rfftfreq(nx, d=1.0 / nx)
    first = kx.copy()
    if nx > 1 and nx % 2 == 0:
        first[-1] = 0.0
    for k in (kx, first):
        k.flags.writeable = False
    return kx, first


@dataclass(frozen=True)
class ChannelGrid:
    """Tensor grid on the periodic channel.

    Parameters
    ----------
    d : int
        Spatial dimension, 1 or 2.
    nx : int
        Number of periodic collocation nodes; must be 1 when d = 1 and a
        power of two when d = 2 (keeps the rfft layout simple).
    ny : int
        Number of wall-normal nodes including both walls, at least 8.
    """

    d: int
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got d={self.d}")
        if self.d == 1 and self.nx != 1:
            raise ValueError(f"d=1 requires nx=1, got nx={self.nx}")
        if self.d == 2 and not (_is_power_of_two(self.nx) and self.nx >= 4):
            raise ValueError(f"d=2 requires nx a power of two >= 4, got nx={self.nx}")
        if self.ny < 8:
            raise ValueError(f"need at least 8 wall-normal nodes, got ny={self.ny}")

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny - 1)

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def x(self) -> np.ndarray:
        """Periodic nodes in [0, 1), shape (nx,)."""
        return np.arange(self.nx) / self.nx

    @property
    def y(self) -> np.ndarray:
        """Wall-normal nodes in [0, 1], shape (ny,)."""
        return np.linspace(0.0, 1.0, self.ny)

    @property
    def yy(self) -> np.ndarray:
        return np.broadcast_to(self.y[None, :], self.shape)

    @property
    def kx(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*k for the rfft modes, shape (nx//2 + 1,).

        Built once per nx and shared: the array is read-only.
        """
        return _wavenumbers(self.nx)[0]

    @property
    def kx_first(self) -> np.ndarray:
        """Wavenumbers for first derivatives: Nyquist bin zeroed.

        On an even real grid the Nyquist mode has no representable odd
        derivative (irfft drops the imaginary part), so every operator
        that differentiates once must use this array or gradients and
        divergences stop being adjoint to each other.  Shared and
        read-only, as kx is.
        """
        return _wavenumbers(self.nx)[1]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


@dataclass
class VelocityField:
    """Velocity sample with one component per spatial dimension.

    components[j] has shape (nx, ny); the last component is always the
    wall-normal one.  For d = 1 there is a single component.  A block of
    snapshots (diagnostics.snapshot_blocks) stacks them along leading
    axes, (..., nx, ny).
    """

    grid: ChannelGrid
    components: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.components) != self.grid.d:
            raise ValueError(
                f"need {self.grid.d} components for d={self.grid.d}, got {len(self.components)}"
            )
        self.components = [np.asarray(c, dtype=float) for c in self.components]
        for j, c in enumerate(self.components):
            if c.shape[-2:] != self.grid.shape:
                raise ValueError(f"component {j} shape {c.shape} != grid {self.grid.shape}")

    @classmethod
    def zero(cls, grid: ChannelGrid) -> "VelocityField":
        return cls(grid, [grid.zeros() for _ in range(grid.d)])


@dataclass
class State:
    """Snapshot of the coupled system at one time.

    In a block of snapshots (diagnostics.snapshot_blocks) every field
    has a leading time axis and t holds the snapshot times.
    """

    t: float
    c1: np.ndarray
    c2: np.ndarray
    u: VelocityField
    psi: np.ndarray

    def rho(self, params) -> np.ndarray:
        """Charge density z1*c1 + z2*c2."""
        return params.z1 * self.c1 + params.z2 * self.c2
