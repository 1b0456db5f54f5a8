"""The d = 2 coupled implicit solve of npns.step_npns.

One run keeps one CoupledMatrix: the 3N x 3N system in the unknowns
[c1, c2, psi], each field-major with node (i, j) at i ny + j.  It is
assembled once, straight into canonical CSR from the cached
div_a_grad_pattern, and each step refills only the data slots of its
two coupling blocks, -z D div(c_n grad .), whose positions the
assembly knows.  Beside the matrix it keeps |A| on the same index
arrays, refreshed on the same slots, for the rounding level of the
residual.

The system is solved by restarted GMRES (Saad & Schultz 1986),
preconditioned by the same operator with x-mean coefficients, which the
rfft in x splits into one banded matrix per mode.  GMRES stops once the
residual norm has dropped by GMRES_RTOL = 1e-13, or to the rounding
level of the residual being solved for if that is larger.  A zero
residual gives an exact zero increment, so exact equilibria stay
bitwise fixed points.

This is the only module a preset run loads scipy.sparse through, and
scipy.sparse brings the scipy.linalg package with it.  npns imports it
when it builds a d = 2 NpnsConfig, so a d = 1 run never loads it, and a
d = 2 run loads it in its set-up.  The preconditioner's band LU calls
LAPACK through operators.lapack, like every other solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .grid import ChannelGrid
from .npns import _coupled_banded_1d
from .operators import div_a_grad_pattern, div_a_grad_values, lapack
from .params import Params

__all__ = ["CoupledMatrix", "GMRES_RTOL", "GMRES_RESTART", "GMRES_MAXITER"]

# GMRES stops when |r - A delta| falls to GMRES_RTOL |r| or to the
# rounding level of r itself, whichever is larger; GMRES_MAXITER counts
# restart cycles of GMRES_RESTART iterations
GMRES_RTOL = 1e-13
GMRES_RESTART = 50
GMRES_MAXITER = 10


class CoupledMatrix:
    """The d = 2 coupled-step matrix of the frozen concentrations c1n, c2n.

    csr is the matrix, abs holds |csr| on csr's own index arrays, and
    slots[v] holds, in div_a_grad_pattern order, the positions in both
    data arrays of species v's coupling block.  refill rewrites those
    slots and nothing else.
    """

    def __init__(self, grid: ChannelGrid, p: Params, dt: float, c1n, c2n):
        self.grid = grid
        self.params = p
        self.dt = dt
        self.csr, self.slots = _assemble(grid, p, dt)
        A = self.csr
        self.abs = scipy.sparse.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
        wall = np.zeros(grid.shape, dtype=bool)
        wall[:, 0] = True
        wall[:, -1] = True
        self._wall_rows = np.tile(wall.ravel(), 3)
        self.refill(c1n, c2n)

    def refill(self, c1n, c2n) -> None:
        """Write the coupling entries of c1n and c2n into csr and abs."""
        p = self.params
        for v, (z, D, a) in enumerate(((p.z1, p.D1, c1n), (p.z2, p.D2, c2n))):
            vals = -z * D * div_a_grad_values(self.grid, a)
            self.csr.data[self.slots[v]] = vals
            self.abs.data[self.slots[v]] = np.abs(vals)

    def rounding_level(self, x: np.ndarray, b: np.ndarray) -> float:
        """Machine eps times the norm of |A| |x| + |b|: the rounding level of b - A x."""
        return np.finfo(float).eps * np.linalg.norm(self.abs @ np.abs(x) + np.abs(b))

    def delta(self, c1n, c2n, x: np.ndarray, b: np.ndarray):
        """Increment of the step from x with right side b, frozen at c1n, c2n.

        Refills the coupling, then solves A delta = b - A x with zero
        wall rows by _coupled_gmres.  Returns the delta and scipy's info
        (0 on convergence).
        """
        self.refill(c1n, c2n)
        r = b - self.csr @ x
        r[self._wall_rows] = 0.0
        # r carries the rounding error of b - A x; on fine grids a solve
        # to GMRES_RTOL alone would chase that noise
        noise = self.rounding_level(x, b)
        return _coupled_gmres(self.grid, self.params, self.dt, c1n, c2n, self.csr, r, noise)


def _assemble(grid: ChannelGrid, p: Params, dt: float) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """The coupled matrix in canonical CSR, coupling entries zero, and their slots.

    Interior rows of species v hold its diffusion block 1/dt - D lap on
    the columns of block v, then its coupling block on the psi columns
    2N..3N; interior psi rows hold -z1 and -z2 on the node's c1 and c2
    columns, then -eps^2 lap.  Every wall row is one unit diagonal.  Each
    block's five stencil entries are stored in increasing column order,
    the div_a_grad_pattern group of each rank fixed per node by one
    argsort, so the slots follow without a search.
    """
    nx, ny = grid.shape
    N = nx * ny
    rows, cols = div_a_grad_pattern(grid)
    M = nx * (ny - 2)
    G = len(rows) // M
    node = rows[:M]
    stencil = cols.reshape(G, M)
    order = np.argsort(stencil, axis=0)
    rank = np.argsort(order, axis=0)
    sorted_cols = np.take_along_axis(stencil, order, axis=0)
    lap = div_a_grad_values(grid, np.ones(grid.shape)).reshape(G, M)
    wall = np.setdiff1d(np.arange(N), node)

    nnz = np.ones(3 * N, dtype=np.int32)
    nnz[node] = nnz[N + node] = 2 * G
    nnz[2 * N + node] = G + 2
    indptr = np.zeros(3 * N + 1, dtype=np.int32)
    np.cumsum(nnz, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.zeros(indptr[-1])
    ranks = np.arange(G)[:, None]

    slots = np.empty((2, G * M), dtype=np.intp)
    for v, D in enumerate((p.D1, p.D2)):
        diff = -(D * lap)
        diff[0] = 1.0 / dt - D * lap[0]
        at = indptr[v * N + node] + ranks
        indices[at] = v * N + sorted_cols
        data[at] = np.take_along_axis(diff, order, axis=0)
        indices[at + G] = 2 * N + sorted_cols
        slots[v] = (indptr[v * N + node] + G + rank).ravel()
        indices[indptr[v * N + wall]] = v * N + wall
        data[indptr[v * N + wall]] = 1.0

    first = indptr[2 * N + node]
    indices[first] = node
    data[first] = -p.z1
    indices[first + 1] = N + node
    data[first + 1] = -p.z2
    indices[first + 2 + ranks] = 2 * N + sorted_cols
    data[first + 2 + ranks] = np.take_along_axis(-p.eps ** 2 * lap, order, axis=0)
    indices[indptr[2 * N + wall]] = 2 * N + wall
    data[indptr[2 * N + wall]] = 1.0
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(3 * N, 3 * N)), slots


def _mode_preconditioner(grid: ChannelGrid, p: Params, dt: float, c1n, c2n):
    """Inverse of the d = 2 coupled operator with x-mean coefficients.

    With coefficients constant in x the operator is diagonal in the rfft
    modes.  Mode k is the d = 1 banded matrix of the x-mean
    concentrations plus the five-point x-symbol
    lam_k = (4/hx^2) sin^2(pi k/nx) on every x-derivative term: D lam_k
    on the diffusion diagonals, z D abar lam_k on the coupling entries,
    eps^2 lam_k on the Poisson diagonal; wall rows stay identities.  All
    modes are stacked into one block-diagonal band, factored once.
    """
    nx, ny = grid.shape
    nk = nx // 2 + 1
    a1 = np.mean(c1n, axis=0, keepdims=True)
    a2 = np.mean(c2n, axis=0, keepdims=True)
    base = _coupled_banded_1d(grid, p, dt, a1, a2)
    l, u = base.l, base.u
    lam = (4.0 / grid.hx ** 2) * np.sin(np.pi * np.arange(nk) / nx) ** 2

    # coefficients of lam_k in band storage, per column [c1_j, c2_j, psi_j]:
    # the diagonal, then the psi column of the c1 row (offset +2) and of
    # the c2 row (offset +1); wall nodes get none
    interior = np.zeros(ny)
    interior[1:-1] = 1.0
    coef = np.zeros((3, ny, 3))
    coef[0] = interior[:, None] * [p.D1, p.D2, p.eps ** 2]
    coef[1, :, 2] = p.z1 * p.D1 * a1[0] * interior
    coef[2, :, 2] = p.z2 * p.D2 * a2[0] * interior

    ab = np.zeros((2 * l + u + 1, nk * 3 * ny))
    ab[l:] = np.tile(base.ab, (1, nk))
    ab[[l + u, l + u - 2, l + u - 1]] += (lam[:, None] * coef.reshape(3, 1, 3 * ny)).reshape(3, -1)
    lu, piv, info = lapack.dgbtrf(ab, l, u, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"mode preconditioner is singular (dgbtrf info={info})")

    def solve(r: np.ndarray) -> np.ndarray:
        # [c1, c2, psi] fields -> per-mode node-major [c1_j, c2_j, psi_j]
        rh = np.fft.rfft(r.reshape(3, nx, ny), axis=1).transpose(1, 2, 0).ravel()
        x, _ = lapack.dgbtrs(lu, l, u, np.stack([rh.real, rh.imag], axis=1), piv)
        xh = (x[:, 0] + 1j * x[:, 1]).reshape(nk, ny, 3).transpose(2, 0, 1)
        return np.fft.irfft(xh, n=nx, axis=1).ravel()

    n = 3 * nx * ny
    return scipy.sparse.linalg.LinearOperator((n, n), matvec=solve, dtype=float)


def _coupled_gmres(grid: ChannelGrid, p: Params, dt: float, c1n, c2n, A, r, atol: float):
    """Delta of the d = 2 coupled system by preconditioned GMRES.

    Returns the delta and scipy's info (0 on convergence).  A zero
    residual returns an exact zero delta without any iteration.
    """
    M = _mode_preconditioner(grid, p, dt, c1n, c2n)
    return scipy.sparse.linalg.gmres(
        A, r, rtol=GMRES_RTOL, atol=atol, restart=GMRES_RESTART, maxiter=GMRES_MAXITER, M=M
    )
