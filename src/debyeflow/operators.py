"""Differential operators, quadrature, and norms on the channel grid.

Tangential derivatives are spectral (rfft), wall-normal derivatives are
second-order finite differences with one-sided stencils at the walls.
All operators take and return plain (nx, ny) arrays; the grid object
carries the geometry.  The derivatives and integrate also accept arrays
with leading axes, (..., nx, ny), and act on every (nx, ny) slice: the
diagnostics evaluate a whole block of snapshots stacked along a leading
time axis in one call.  So do the L^2, H^1 and H^2 norms, which return
a float for one field and one value per slice otherwise.  Each slice's
result is bitwise the one an (nx, ny) call gives.

div(a grad .) is also given as matrix entries, a cached index pattern
(div_a_grad_pattern) and the values of one coefficient
(div_a_grad_values), from which coupled2d assembles its CSR matrix.
Every banded system, the d = 1 coupled step's, the d = 2 mode
preconditioner's, the Leray projection's and the corner layer's, is
written straight into LAPACK's band storage and held by a BandedMatrix,
which owns the band, its LU and the LU's reuse.

This module binds scipy's compiled code without scipy's packages:
_load_compiled loads one extension module from its file, skipping the
package imports, whose chain (array-API shims, numpy.f2py) costs about
0.2 s per process.  lapack is the f2py wrapper scipy.linalg._flapack,
through which operators, elliptic and coupled2d call every LAPACK
routine; coupled2d binds scipy.sparse._sparsetools, the CSR kernels,
the same way.  Each is the module its package would import, so a later
import of scipy.linalg or scipy.sparse finds the same one, and a d = 1
run loads nothing else from scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import numpy as np

from .grid import ChannelGrid, VelocityField

__all__ = [
    "ddx",
    "d2dx2",
    "ddy",
    "d2dy2",
    "laplacian",
    "grad",
    "advect",
    "quad_weights",
    "integrate",
    "norm_l2",
    "norm_h1_semi",
    "norms_h1_semi_h2",
    "half_node_average_x",
    "half_node_average_y",
    "div_a_grad",
    "div_a_grad_pattern",
    "div_a_grad_values",
    "BandedMatrix",
]


# ---------------------------------------------------------------------------
# tangential (spectral) derivatives


def ddx(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    """First tangential derivative; identically zero in d = 1.

    Uses the Nyquist-zeroed wavenumbers so the operator is skew-adjoint
    on the real grid.
    """
    if grid.nx == 1:
        return np.zeros_like(f)
    fh = np.fft.rfft(f, axis=-2)
    fh *= 1j * grid.kx_first[:, None]
    return np.fft.irfft(fh, n=grid.nx, axis=-2)


def d2dx2(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    """Second tangential derivative; identically zero in d = 1."""
    if grid.nx == 1:
        return np.zeros_like(f)
    fh = np.fft.rfft(f, axis=-2)
    fh *= -(grid.kx[:, None] ** 2)
    return np.fft.irfft(fh, n=grid.nx, axis=-2)


# ---------------------------------------------------------------------------
# wall-normal (finite difference) derivatives


def ddy(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    """First wall-normal derivative, one-sided second order at the walls."""
    h = grid.hy
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * h)
    out[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * h)
    out[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * h)
    return out


def d2dy2(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    """Second wall-normal derivative, one-sided second order at the walls."""
    h2 = grid.hy ** 2
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / h2
    out[..., 0] = (2.0 * f[..., 0] - 5.0 * f[..., 1] + 4.0 * f[..., 2] - f[..., 3]) / h2
    out[..., -1] = (2.0 * f[..., -1] - 5.0 * f[..., -2] + 4.0 * f[..., -3] - f[..., -4]) / h2
    return out


def laplacian(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    return d2dx2(grid, f) + d2dy2(grid, f)


def grad(grid: ChannelGrid, f: np.ndarray) -> list[np.ndarray]:
    """Gradient components; [ddy] in d = 1, [ddx, ddy] in d = 2."""
    if grid.d == 1:
        return [ddy(grid, f)]
    return [ddx(grid, f), ddy(grid, f)]


def advect(grid: ChannelGrid, u: VelocityField, f: np.ndarray) -> np.ndarray:
    """Advective derivative u . grad f."""
    gf = grad(grid, f)
    out = np.zeros_like(f)
    for comp, df in zip(u.components, gf):
        out += comp * df
    return out


# ---------------------------------------------------------------------------
# quadrature and norms


@functools.lru_cache(maxsize=8)
def quad_weights(grid: ChannelGrid) -> np.ndarray:
    """Quadrature weights, trapezoid in y and uniform in x, shape (nx, ny).

    Computed once per grid; the returned array is shared and read-only.
    """
    wy = np.full(grid.ny, grid.hy)
    wy[0] *= 0.5
    wy[-1] *= 0.5
    wx = np.full(grid.nx, grid.hx)
    w = wx[:, None] * wy[None, :]
    w.flags.writeable = False
    return w


def integrate(grid: ChannelGrid, f: np.ndarray) -> float | np.ndarray:
    """Quadrature of f; a float for one (nx, ny) field, else one value per slice."""
    out = np.sum(quad_weights(grid) * f, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def _root(s) -> float | np.ndarray:
    # one float for one field, else one value per slice
    out = np.sqrt(np.maximum(s, 0.0))
    return float(out) if out.ndim == 0 else out


def norm_l2(grid: ChannelGrid, f: np.ndarray) -> float | np.ndarray:
    return _root(integrate(grid, f * f))


def norm_h1_semi(grid: ChannelGrid, f: np.ndarray) -> float | np.ndarray:
    s = 0.0
    for df in grad(grid, f):
        s += integrate(grid, df * df)
    return _root(s)


def norms_h1_semi_h2(grid: ChannelGrid, f: np.ndarray) -> tuple:
    """H^1 seminorm and full H^2 norm of f, each first derivative taken once.

    The H^1 seminorm is norm_h1_semi's value, bitwise.  The H^2 norm sums
    the squared L^2 norms of the function, its first derivatives, and its
    second derivatives; the mixed derivative, ddy of the x derivative
    already taken, is counted twice so the seminorm is symmetric in the
    two index orders.
    """
    h1 = 0.0
    h2 = integrate(grid, f * f)
    first = grad(grid, f)
    for df in first:
        sq = integrate(grid, df * df)
        h1 += sq
        h2 += sq
    fyy = d2dy2(grid, f)
    h2 += integrate(grid, fyy * fyy)
    if grid.d == 2:
        fxx = d2dx2(grid, f)
        fxy = ddy(grid, first[0])
        h2 += integrate(grid, fxx * fxx) + 2.0 * integrate(grid, fxy * fxy)
    return _root(h1), _root(h2)


# ---------------------------------------------------------------------------
# conservative variable-coefficient operators


def half_node_average_y(a: np.ndarray) -> np.ndarray:
    """Arithmetic average of a at the y half nodes, shape (nx, ny-1)."""
    return 0.5 * (a[:, 1:] + a[:, :-1])


def half_node_average_x(a: np.ndarray) -> np.ndarray:
    """Arithmetic average of a at the periodic x half nodes, shape (nx, ny);
    entry i sits between nodes i and i+1 (mod nx)."""
    return 0.5 * (a + np.roll(a, -1, axis=0))


def div_a_grad(grid: ChannelGrid, a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Conservative discretization of div(a grad f) on interior nodes.

    Fluxes live at half nodes with arithmetically averaged coefficients;
    the tangential part in d = 2 uses the same construction with periodic
    wraparound.  Wall rows are zero: the stencil is defined only where
    both neighboring fluxes exist, and callers impose wall conditions
    separately.
    """
    h = grid.hy
    out = np.zeros_like(f)
    ah = half_node_average_y(a)
    flux = ah * (f[:, 1:] - f[:, :-1]) / h
    out[:, 1:-1] = (flux[:, 1:] - flux[:, :-1]) / h
    if grid.d == 2 and grid.nx > 1:
        hx = grid.hx
        a_e = half_node_average_x(a)
        flux_x = a_e * (np.roll(f, -1, axis=0) - f) / hx
        out[:, 1:-1] += (flux_x[:, 1:-1] - np.roll(flux_x, 1, axis=0)[:, 1:-1]) / hx
    return out


@functools.lru_cache(maxsize=8)
def div_a_grad_pattern(grid: ChannelGrid) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries of div_a_grad(grid, a, .) as a matrix.

    Node (i, j) is row-major index i ny + j; wall rows hold no entry.
    Each interior node contributes its diagonal, then its y neighbours
    j-1 and j+1, then in d = 2 its x neighbours i+1 and i-1 (periodic);
    each group runs over the interior nodes in row-major order.  The
    arrays depend only on the grid and are cached, shared and read-only.
    """
    nx, ny = grid.shape
    ii, jj = np.meshgrid(np.arange(nx), np.arange(1, ny - 1), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    row = ii * ny + jj
    rows = [row, row, row]
    cols = [row, row - 1, row + 1]
    if grid.d == 2:
        rows += [row, row]
        cols += [(ii + 1) % nx * ny + jj, (ii - 1) % nx * ny + jj]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def div_a_grad_values(grid: ChannelGrid, a: np.ndarray) -> np.ndarray:
    """Entries of div_a_grad(grid, a, .) as a matrix, in div_a_grad_pattern order.

    With a = 1 they are the five-point Laplacian (periodic in x).
    """
    h2 = grid.hy ** 2
    ah = half_node_average_y(a) / h2
    a_lo = ah[:, :-1].ravel()
    a_hi = ah[:, 1:].ravel()
    vals = [-(a_lo + a_hi), a_lo, a_hi]
    if grid.d == 2:
        # the west coefficient of node i is the east one of node i-1
        a_e = half_node_average_x(a)[:, 1:-1] / grid.hx ** 2
        a_w = np.roll(a_e, 1, axis=0)
        vals[0] = vals[0] - (a_e + a_w).ravel()
        vals += [a_e.ravel(), a_w.ravel()]
    return np.concatenate(vals)


# ---------------------------------------------------------------------------
# bindings of scipy's compiled modules, and the banded matrix helper


def _load_compiled(name: str, fallback: str) -> ModuleType:
    """One of scipy's compiled extension modules, without running its package's __init__.

    name is the module's qualified name, e.g. "scipy.linalg._flapack".
    An already imported module of that name is returned as it is.
    Otherwise the extension file is found in the scipy directory, which
    find_spec locates without importing scipy, and executed under name,
    so the scipy package reuses it if it is imported later.  Without
    that file, the module fallback is imported the usual way.  A file
    that exists but fails to load raises.
    """
    if name in sys.modules:
        return sys.modules[name]
    _, *subpackages, leaf = name.split(".")
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *subpackages, leaf + suffix)
            if os.path.isfile(path):
                file_spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(file_spec)
                sys.modules[name] = module
                file_spec.loader.exec_module(module)
                return module
    return importlib.import_module(fallback)


lapack = _load_compiled("scipy.linalg._flapack", "scipy.linalg.lapack")


class BandedMatrix:
    """Real banded matrix in LAPACK's (l, u) band storage, and its band LU.

    Built from its band array ab, shape (l + u + 1, n), which holds
    entry (i, j) at ab[u + i - j, j]; the corners of ab outside the
    matrix are never read.  ab is kept, not copied, and may be rewritten
    in place between factorizations.  factor() writes the partial-pivoting
    LU of the current ab into a buffer allocated once, lu_solve reuses
    the last LU for a right side of shape (n,) or (n, k), and solve does
    both, so a matrix refilled and solved every step allocates no factor
    storage after its first.  No other code calls dgbtrf or dgbtrs.
    """

    def __init__(self, ab: np.ndarray, l: int):
        self.ab = ab
        self.l = l
        self.u = ab.shape[0] - l - 1
        self.n = ab.shape[1]
        self.lu = self.piv = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        # one diagonal at a time from offset +u down to -l, the order in
        # which scipy's dia_matrix product accumulates, so the sums agree
        # bitwise with that product
        n, u = self.n, self.u
        y = np.zeros(n)
        for k in range(u, -self.l - 1, -1):
            if k >= 0:
                y[: n - k] += self.ab[u - k, k:] * x[k:]
            else:
                y[-k:] += self.ab[u - k, : n + k] * x[: n + k]
        return y

    def factor(self) -> "BandedMatrix":
        """Band LU of the current ab; ab is left intact.  Returns self."""
        l, u = self.l, self.u
        if self.lu is None:
            # dgbtrf needs l extra rows above the band for the fill-in of
            # partial pivoting, and Fortran order to factor in place
            self.lu = np.empty((2 * l + u + 1, self.n), order="F")
        self.lu[:l] = 0.0
        self.lu[l:] = self.ab
        self.lu, self.piv, info = lapack.dgbtrf(self.lu, l, u, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix (dgbtrf info={info})")
        return self

    def lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs with the LU of the last factor()."""
        if len(rhs) != self.n:
            raise ValueError(f"right side has {len(rhs)} rows, matrix has n={self.n}")
        x, _ = lapack.dgbtrs(self.lu, self.l, self.u, rhs, self.piv)
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs by a fresh band LU of the current ab."""
        return self.factor().lu_solve(rhs)
