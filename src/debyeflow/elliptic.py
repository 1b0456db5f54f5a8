"""Direct elliptic solvers on the channel: Poisson, variable-coefficient
divergence form, harmonic extension of wall data, and the discrete
divergence-free projection.

Every solve has zero wall values except harmonic_extension, the one
solve that reads wall data: it hands its (2, nx) traces to
solve_shifted_poisson.

Every solve here is direct, with no tolerance to tune.  The
constant-coefficient Poisson problems take an rfft in x and stack every
mode's tridiagonal in y into one block-diagonal tridiagonal, factored
once per (grid, shift) and cached, so a call costs one triangular solve;
in d = 1 that solve runs on the real right side, skipping the FFTs.
The projection is one batched pentadiagonal solve over all modes, a
BandedMatrix factored once per grid and cached, and the divergence
form a tridiagonal solve (d = 1) or a banded Cholesky factorization
(d = 2): numbered x-fastest, the negated interior operator is a
symmetric positive definite band of half-width nx.  The
package's only iterative solve is the d = 2 coupled step in coupled2d.py.

Every other factorization and solve here calls LAPACK through
operators.lapack, scipy's compiled wrapper bound without the scipy.linalg
package, so this module loads nothing else from scipy.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import ChannelGrid, VelocityField
from .operators import BandedMatrix, half_node_average_x, half_node_average_y, lapack

__all__ = [
    "solve_shifted_poisson",
    "solve_poisson",
    "harmonic_extension",
    "solve_div_form",
    "project_div_free",
]


def _as_traces(grid: ChannelGrid, bc) -> tuple[np.ndarray, np.ndarray]:
    """The (nx,) wall values at y = 0 and y = 1 of None (zero) or a (2, nx) array."""
    if bc is None:
        z = np.zeros(grid.nx)
        return z, z
    bc = np.asarray(bc, dtype=float)
    if bc.shape != (2, grid.nx):
        raise ValueError(f"wall values must be None or (2, nx) = (2, {grid.nx}); got shape {bc.shape}")
    return bc[0], bc[1]


@functools.lru_cache(maxsize=16)
def _shifted_poisson_factors(grid: ChannelGrid, alpha: float) -> tuple[np.ndarray, ...]:
    """LU factors of (alpha - Lap) on the interior nodes, all rfft modes stacked.

    Mode k is the tridiagonal (-1, (alpha + kappa_k^2) h^2 + 2, -1) / h^2
    in y; the modes sit one after another in a single block-diagonal
    tridiagonal with zero couplings between blocks, which dgttrf factors
    in one call.  Cached per (grid, alpha); the arrays are read-only
    because every caller shares them.
    """
    h2 = grid.hy ** 2
    m = grid.ny - 2
    nk = len(grid.kx)
    diag = np.repeat(alpha + grid.kx ** 2 + 2.0 / h2, m)
    off = np.full(nk * m - 1, -1.0 / h2)
    off[m - 1 :: m] = 0.0
    factors = lapack.dgttrf(off, diag, off.copy())
    if factors[-1] != 0:
        raise np.linalg.LinAlgError(f"shifted Poisson matrix is singular (dgttrf info={factors[-1]})")
    for a in factors[:-1]:
        a.flags.writeable = False
    return factors[:-1]


def solve_shifted_poisson(
    grid: ChannelGrid,
    alpha: float,
    f: np.ndarray,
    bc=None,
) -> np.ndarray:
    """Solve (alpha - Lap) u = f with Dirichlet wall values.

    Parameters
    ----------
    alpha : float
        Non-negative zeroth-order shift; alpha = 0 gives the Poisson
        problem -Lap u = f.
    f : ndarray
        Right side, shape (nx, ny); wall rows are ignored.
    bc : None or (2, nx)
        Dirichlet values at y = 0 and y = 1.  None means homogeneous.

    The tangential directions are diagonalized by rfft; each mode is a
    real-shifted tridiagonal system in y.  All modes form one stacked
    tridiagonal, factored once per (grid, alpha) and solved here for
    the real and imaginary parts of every mode at once.  In d = 1 the
    single mode is real and is solved without the transforms.
    """
    if alpha < 0.0:
        raise ValueError(f"shift must be non-negative, got alpha={alpha}")
    h2 = grid.hy ** 2
    dl, d, du, du2, ipiv = _shifted_poisson_factors(grid, float(alpha))

    if grid.nx == 1:
        # a length-1 rfft/irfft is the identity, so solve the one real
        # mode directly; the wall terms repeat the real part of the
        # complex division below, which numpy computes as (b + 0) * (1/h2)
        # and which adds + 0.0 without wall data
        b0, b1 = (0.0, 0.0) if bc is None else (float(t[0]) for t in _as_traces(grid, bc))
        u = np.empty((1, grid.ny))
        u[0, 0] = b0
        u[0, -1] = b1
        b = np.array(f[0, 1:-1], dtype=float)
        b[0] += (b0 + 0.0) * (1.0 / h2)
        b[-1] += (b1 + 0.0) * (1.0 / h2)
        x, _ = lapack.dgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)
        u[0, 1:-1] = x
        return u

    b0, b1 = _as_traces(grid, bc)
    nk, m = len(grid.kx), grid.ny - 2
    fh = np.fft.rfft(f, axis=0)
    b0h = np.fft.rfft(b0)
    b1h = np.fft.rfft(b1)
    rhs = fh[:, 1:-1].copy()
    rhs[:, 0] += b0h / h2
    rhs[:, -1] += b1h / h2
    b = np.empty((nk * m, 2), order="F")
    b[:, 0] = rhs.real.ravel()
    b[:, 1] = rhs.imag.ravel()
    x, _ = lapack.dgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)

    uh = np.empty_like(fh)
    uh[:, 0] = b0h
    uh[:, -1] = b1h
    uh[:, 1:-1].real = x[:, 0].reshape(nk, m)
    uh[:, 1:-1].imag = x[:, 1].reshape(nk, m)
    return np.fft.irfft(uh, n=grid.nx, axis=0)


def solve_poisson(grid: ChannelGrid, f: np.ndarray, coeff: float = 1.0) -> np.ndarray:
    """Solve -coeff * Lap u = f with zero wall values; coeff must be positive."""
    if coeff <= 0.0:
        raise ValueError(f"Poisson coefficient must be positive, got coeff={coeff}")
    # dividing by 1.0 is exact, so coeff = 1 solves f itself
    return solve_shifted_poisson(grid, 0.0, np.asarray(f, dtype=float) / coeff)


def harmonic_extension(grid: ChannelGrid, trace) -> np.ndarray:
    """Extend wall data harmonically into the channel.

    trace is (2, nx).  The x-mean mode is written down directly as the
    linear interpolant (the discrete solution it equals in exact
    arithmetic) so constant data extends bitwise; only the oscillatory
    remainder goes through the tridiagonal solves.
    """
    b0, b1 = _as_traces(grid, trace)
    m0, m1 = float(np.mean(b0)), float(np.mean(b1))
    out = m0 + (m1 - m0) * grid.yy
    r0, r1 = b0 - m0, b1 - m1
    if np.any(r0 != 0.0) or np.any(r1 != 0.0):
        out = out + solve_shifted_poisson(grid, 0.0, grid.zeros(), np.stack([r0, r1]))
    return out


def solve_div_form(grid: ChannelGrid, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve div(a grad u) = rhs with zero wall values.

    The discretization matches div_a_grad: half-node arithmetic averages
    of the coefficient, periodic wraparound in x.  The coefficient must
    be strictly positive (the solve refuses sign-degenerate input so a
    silent loss of ellipticity cannot slip through).

    The solve is direct, with no tolerance: a tridiagonal solve in
    d = 1, and in d = 2 a banded Cholesky factorization (LAPACK
    dpbtrf/dpbtrs) of -div(a grad .) on the interior nodes, numbered
    x-fastest so the band has half-width nx.
    """
    a = np.asarray(a, dtype=float)
    if not (a > 0.0).all():
        raise ValueError("divergence-form coefficient must be strictly positive")
    h2 = grid.hy ** 2
    m = grid.ny - 2

    if grid.d == 1:
        ah = half_node_average_y(a)
        lo = ah[0, :-1]
        hi = ah[0, 1:]
        _, _, _, x, info = lapack.dgtsv(
            lo[1:] / h2, -(lo + hi) / h2, hi[:-1] / h2, rhs[0, 1:-1].copy(),
            overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
        )
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        u = grid.zeros()
        u[0, 1:-1] = x
        return u

    # d = 2: -div(a grad .) on the interior nodes, numbered x-fastest as
    # (j-1) nx + i, is symmetric positive definite with couplings at
    # offsets 1 (x neighbour), nx-1 (periodic wrap) and nx (y neighbour).
    # Upper band storage of half-width nx: entry (q-k, q) sits in row
    # nx-k, column q; band[j-1, i, nx-k] is that slot for q = (j-1) nx + i
    nx = grid.nx
    ay = half_node_average_y(a) / h2  # couples (i, j) and (i, j+1)
    ax = half_node_average_x(a) / grid.hx ** 2  # (i, j) and (i+1, j)
    band = np.zeros((m, nx, nx + 1))
    band[:, :, nx] = (ay[:, :-1] + ay[:, 1:] + ax[:, 1:-1] + np.roll(ax, 1, axis=0)[:, 1:-1]).T
    band[:, 1:, nx - 1] = -ax[:-1, 1:-1].T
    band[:, -1, 1] = -ax[-1, 1:-1]
    band[1:, :, 0] = -ay[:, 1:-1].T
    b = -rhs[:, 1:-1].T.copy()
    # band.reshape(m nx, nx+1).T is the Fortran-order band LAPACK factors in place
    chol, info = lapack.dpbtrf(band.reshape(m * nx, nx + 1).T, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"divergence-form matrix is not positive definite (dpbtrf info={info})")
    x, info = lapack.dpbtrs(chol, b.reshape(m * nx, 1), overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"divergence-form band solve failed (dpbtrs info={info})")
    u = grid.zeros()
    u[:, 1:-1] = x.reshape(m, nx).T
    return u


# ---------------------------------------------------------------------------
# discrete Leray projection


@functools.lru_cache(maxsize=8)
def _projection_factors(grid: ChannelGrid) -> tuple[BandedMatrix, np.ndarray]:
    """Band LU of the projection's normal equations, all rfft modes stacked.

    Per mode the matrix is T^T T + kappa^2 I (see project_div_free),
    pentadiagonal with offsets 0 and +-2; the modes sit one after
    another in a single block-diagonal band, factored in one call.
    Returns the factored BandedMatrix and the pinned-mode mask, cached
    per grid and read-only because every caller shares them.
    """
    m = grid.ny - 2
    c = 1.0 / (2.0 * grid.hy)
    kx = grid.kx_first
    nk = len(kx)
    j = np.arange(m)
    c2 = c * c
    diag = c2 * ((j >= 1).astype(float) + (j <= m - 2)) + kx[:, None] ** 2
    upper = np.tile(np.where(j >= 2, -c2, 0.0), (nk, 1))
    lower = np.where(j <= m - 3, -c2, 0.0)
    # kappa = 0 (the mean and the zeroed Nyquist mode) with odd m: T^T T
    # is singular with the even-index indicator as null vector, which the
    # right side is orthogonal to; pinning q_0 = 0 picks one solution and
    # leaves G q unchanged
    pinned = (kx == 0.0) & (m % 2 == 1)
    diag[pinned, 0] = 1.0
    upper[pinned, 2] = 0.0
    ab = np.zeros((5, nk * m))
    ab[0] = upper.ravel()
    ab[2] = diag.ravel()
    ab[4] = np.tile(lower, nk)
    normal = BandedMatrix(ab, 2).factor()
    for a in (normal.ab, normal.lu, normal.piv, pinned):
        a.flags.writeable = False
    return normal, pinned


def project_div_free(grid: ChannelGrid, u: VelocityField) -> VelocityField:
    """Project onto discretely divergence-free fields with no-slip walls.

    Wall rows are zeroed, then a potential correction is subtracted so
    the centered divergence vanishes at every interior node.  In d = 1
    the only admissible field is zero.  The correction solves the normal
    equations of the interior gradient per tangential mode, so the map
    is an orthogonal projection: idempotent and non-expansive in the
    trapezoid norm.
    """
    if grid.d == 1:
        return VelocityField.zero(grid)

    m = grid.ny - 2
    c = 1.0 / (2.0 * grid.hy)
    ux = u.components[0].copy()
    uy = u.components[1].copy()
    for comp in (ux, uy):
        comp[:, 0] = 0.0
        comp[:, -1] = 0.0

    uxh = np.fft.rfft(ux, axis=0)
    uyh = np.fft.rfft(uy, axis=0)
    kx = grid.kx_first
    nk = len(kx)

    # per mode: q minimizes |u - G q|^2 with G = (i kappa I; T), T the
    # centered y-difference on interior nodes with zero wall padding, so
    # T v is a slice difference of the wall-padded v and T^T = -T; kappa
    # comes from the first-derivative wavenumbers so G matches ddx.  The
    # normal equations (T^T T + kappa^2 I) q = g are factored once per grid
    g = -1j * kx[:, None] * uxh[:, 1:-1] - c * (uyh[:, 2:] - uyh[:, :-2])
    normal, pinned = _projection_factors(grid)
    g[pinned, 0] = 0.0
    # a non-finite velocity raises ValueError here rather than spreading
    sol = normal.lu_solve(np.asarray_chkfinite(np.stack([g.real.ravel(), g.imag.ravel()], axis=1)))

    q = np.zeros_like(uyh)
    q[:, 1:-1] = (sol[:, 0] + 1j * sol[:, 1]).reshape(nk, m)
    uxh[:, 1:-1] -= 1j * kx[:, None] * q[:, 1:-1]
    uyh[:, 1:-1] -= c * (q[:, 2:] - q[:, :-2])

    ux = np.fft.irfft(uxh, n=grid.nx, axis=0)
    uy = np.fft.irfft(uyh, n=grid.nx, axis=0)
    ux[:, 0] = 0.0
    ux[:, -1] = 0.0
    uy[:, 0] = 0.0
    uy[:, -1] = 0.0
    return VelocityField(grid, [ux, uy])
