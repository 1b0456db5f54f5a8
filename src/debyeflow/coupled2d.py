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

GMRES is _gmres, a port of scipy 1.17's restarted GMRES, and every
product with the matrix calls csr_matvec, the compiled kernel of a
scipy.sparse CSR product, so both give scipy's bits.  The kernel's
module scipy.sparse._sparsetools is bound from its file by
operators._load_compiled, so the solve loads neither scipy.sparse nor
scipy.sparse.linalg, whose imports cost about 0.2 s per process.  npns
imports this module when it builds a d = 2 NpnsConfig, so a d = 1 run
never loads the kernel, and a d = 2 run loads it in its set-up.  The
preconditioner is one operators.BandedMatrix, factored once per step,
and GMRES's Givens rotations call LAPACK through operators.lapack.
"""

from __future__ import annotations

import numpy as np

from .grid import ChannelGrid
from .npns import _coupled_banded_1d
from .operators import BandedMatrix, _load_compiled, div_a_grad_pattern, div_a_grad_values, lapack
from .params import Params

__all__ = ["CoupledMatrix", "GMRES_RTOL", "GMRES_RESTART", "GMRES_MAXITER"]

# GMRES stops when |r - A delta| falls to GMRES_RTOL |r| or to the
# rounding level of r itself, whichever is larger; GMRES_MAXITER counts
# restart cycles of GMRES_RESTART iterations
GMRES_RTOL = 1e-13
GMRES_RESTART = 50
GMRES_MAXITER = 10

sparsetools = _load_compiled("scipy.sparse._sparsetools", "scipy.sparse._sparsetools")


class CoupledMatrix:
    """The d = 2 coupled-step matrix of the frozen concentrations c1n, c2n.

    The matrix is held as canonical CSR arrays indptr, indices and data;
    abs_data holds |data| on the same index arrays, and slots[v] holds,
    in div_a_grad_pattern order, the positions in both data arrays of
    species v's coupling block.  refill rewrites those slots and nothing
    else.
    """

    def __init__(self, grid: ChannelGrid, p: Params, dt: float, c1n, c2n):
        self.grid = grid
        self.params = p
        self.dt = dt
        self.indptr, self.indices, self.data, self.slots = _assemble(grid, p, dt)
        self.n = len(self.indptr) - 1
        self.abs_data = np.abs(self.data)
        wall = np.zeros(grid.shape, dtype=bool)
        wall[:, 0] = True
        wall[:, -1] = True
        self._wall_rows = np.tile(wall.ravel(), 3)
        self.refill(c1n, c2n)

    def refill(self, c1n, c2n) -> None:
        """Write the coupling entries of c1n and c2n into data and abs_data."""
        p = self.params
        for v, (z, D, a) in enumerate(((p.z1, p.D1, c1n), (p.z2, p.D2, c2n))):
            vals = -z * D * div_a_grad_values(self.grid, a)
            self.data[self.slots[v]] = vals
            self.abs_data[self.slots[v]] = np.abs(vals)

    def _product(self, data: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the kernel and the zeroed float output of scipy's CSR @ x
        y = np.zeros(self.n)
        sparsetools.csr_matvec(self.n, self.n, self.indptr, self.indices, data, x, y)
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, bitwise the product of a scipy CSR matrix on the same arrays."""
        return self._product(self.data, x)

    def rounding_level(self, x: np.ndarray, b: np.ndarray) -> float:
        """Machine eps times the norm of |A| |x| + |b|: the rounding level of b - A x."""
        return np.finfo(float).eps * np.linalg.norm(self._product(self.abs_data, np.abs(x)) + np.abs(b))

    def delta(self, c1n, c2n, x: np.ndarray, b: np.ndarray):
        """Increment of the step from x with right side b, frozen at c1n, c2n.

        Refills the coupling, then solves A delta = b - A x with zero
        wall rows by _coupled_gmres.  Returns the delta and GMRES's info
        (0 on convergence).
        """
        self.refill(c1n, c2n)
        r = b - self.matvec(x)
        r[self._wall_rows] = 0.0
        # r carries the rounding error of b - A x; on fine grids a solve
        # to GMRES_RTOL alone would chase that noise
        noise = self.rounding_level(x, b)
        return _coupled_gmres(self, c1n, c2n, r, noise)


def _assemble(grid: ChannelGrid, p: Params, dt: float) -> tuple[np.ndarray, ...]:
    """The coupled matrix's canonical CSR arrays, coupling entries zero, and their slots.

    Returns indptr, indices, data and slots.

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
    return indptr, indices, data, slots


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

    ab = np.tile(base.ab, (1, nk))
    ab[[u, u - 2, u - 1]] += (lam[:, None] * coef.reshape(3, 1, 3 * ny)).reshape(3, -1)
    modes = BandedMatrix(ab, l).factor()

    def solve(r: np.ndarray) -> np.ndarray:
        # [c1, c2, psi] fields -> per-mode node-major [c1_j, c2_j, psi_j]
        rh = np.fft.rfft(r.reshape(3, nx, ny), axis=1).transpose(1, 2, 0).ravel()
        x = modes.lu_solve(np.stack([rh.real, rh.imag], axis=1))
        xh = (x[:, 0] + 1j * x[:, 1]).reshape(nk, ny, 3).transpose(2, 0, 1)
        return np.fft.irfft(xh, n=nx, axis=1).ravel()

    return solve


def _coupled_gmres(A: CoupledMatrix, c1n, c2n, r: np.ndarray, atol: float):
    """Delta of the d = 2 coupled system A delta = r by preconditioned GMRES.

    Returns the delta and _gmres's info (0 on convergence).  A zero
    residual returns an exact zero delta without any iteration.
    """
    psolve = _mode_preconditioner(A.grid, A.params, A.dt, c1n, c2n)
    return _gmres(A.matvec, psolve, r, GMRES_RTOL, atol, GMRES_RESTART, GMRES_MAXITER)


def _gmres(matvec, psolve, b: np.ndarray, rtol: float, atol: float, restart: int, maxiter: int):
    """Restarted GMRES with left preconditioning, from a zero start.

    A port of scipy 1.17's scipy.sparse.linalg.gmres for the one case
    used here: real float64 data, zero initial guess, no callback.  The
    operations are scipy's, in scipy's order, so x and info are bitwise
    those of gmres(A, b, rtol=rtol, atol=atol, restart=restart,
    maxiter=maxiter, M=M) with matvec the product with A and psolve the
    one with M.  maxiter counts restart cycles.  Each cycle minimizes the
    preconditioned residual by modified Gram-Schmidt and Givens rotations
    (LAPACK dlartg) to a tolerance adapted from the true residual
    (scipy gh-8400).  Returns x and info: 0 once |b - A x| <= max(atol,
    rtol |b|), else maxiter.  A zero b is returned as it is, with info 0.
    """
    n = len(b)
    bnrm2 = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(bnrm2))
    if bnrm2 == 0:
        return b, 0
    eps = np.finfo(float).eps
    restart = min(restart, n)
    x = np.zeros(n)

    # the inner iteration's tolerance is on the preconditioned residual;
    # the first cycle starts from r = b, so it reuses this M b
    ptol_max_factor = 1.0
    pr = psolve(b)
    ptol = np.linalg.norm(pr) * min(ptol_max_factor, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))

    r = b
    if np.linalg.norm(r) < atol:
        return x, 0
    for cycle in range(maxiter):
        v[0] = psolve(r) if cycle else pr
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        # right side of the Hessenberg problem
        S = np.zeros(restart + 1)
        S[0] = tmp

        breakdown = False
        for col in range(restart):
            w = psolve(matvec(v[col]))
            # modified Gram-Schmidt
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = np.dot(v[k], w)
                h[col, k] = tmp
                w -= tmp * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            # an exact solution in the Krylov space
            if h1 <= eps * h0:
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1

            # the past Givens rotations, then this column's own
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = lapack.dlartg(h[col, col], h[col, col + 1])
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0
            tmp = -s * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = np.abs(tmp)
            if presid <= ptol or breakdown:
                break

        # back substitution on the triangular h, zeroing a singular pivot
        if h[col, col] == 0:
            S[col] = 0
        y = S[: col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[: col + 1]

        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            # the inner iteration converged but the true residual did not
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)

    return x, 0 if rnorm <= atol else maxiter
