"""Independent reference solvers used only by the test suite.

These deliberately avoid the library's own solve routines: dense
matrices are assembled by probing operators with unit fields, and the
mixed-layer reference integrates the untransformed equations on a
uniform grid.  Agreement between a library solver and its oracle is
then a genuine two-route check.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from debyeflow.grid import ChannelGrid
from debyeflow.limit import effective_diffusivity
from debyeflow.npns import _implicit_diffusion
from debyeflow.operators import BandedMatrix, advect, d2dx2, ddx, div_a_grad


def interior_laplacian_action(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    """Action of the solver's Laplacian on interior nodes.

    Spectral in x, centered in y; this is the exact operator the
    per-mode tridiagonal solves invert, so it is the right matrix to
    probe for dense-oracle comparisons.  Returns shape (nx, ny-2).
    """
    h2 = grid.hy ** 2
    lap_y = (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / h2
    return d2dx2(grid, f)[:, 1:-1] + lap_y


def dense_dirichlet_poisson(
    grid: ChannelGrid,
    rhs: np.ndarray,
    bc0: np.ndarray,
    bc1: np.ndarray,
) -> np.ndarray:
    """Solve -Lap u = rhs, u(x,0)=bc0, u(x,1)=bc1 by one dense solve.

    The matrix is assembled column by column from unit interior fields,
    so any mistake in the library's banded assembly would show up as a
    mismatch rather than being reproduced here.
    """
    nx, ny = grid.shape
    m = ny - 2
    n = nx * m
    A = np.zeros((n, n))
    for i in range(nx):
        for j in range(m):
            e = np.zeros((nx, ny))
            e[i, j + 1] = 1.0
            A[:, i * m + j] = -interior_laplacian_action(grid, e).reshape(n)
    # boundary values enter through the centred y-stencil at the first
    # and last interior rows
    h2 = grid.hy ** 2
    b = rhs[:, 1:-1].copy()
    b[:, 0] += np.asarray(bc0) / h2
    b[:, -1] += np.asarray(bc1) / h2
    sol = np.linalg.solve(A, b.reshape(n))
    u = np.zeros((nx, ny))
    u[:, 0] = bc0
    u[:, -1] = bc1
    u[:, 1:-1] = sol.reshape(nx, m)
    return u


def banded_to_sparse(B: BandedMatrix) -> scipy.sparse.dia_matrix:
    """The matrix held in B's (l, u) band storage, as a scipy dia_matrix."""
    offsets = np.arange(B.u, -B.l - 1, -1)
    data = np.zeros((len(offsets), B.n))
    for i, k in enumerate(offsets):
        if k >= 0:
            data[i, k:] = B.ab[B.u - k, k:]
        else:
            data[i, : B.n + k] = B.ab[B.u - k, : B.n + k]
    return scipy.sparse.dia_matrix((data, offsets), shape=(B.n, B.n))


def per_mode_shifted_poisson(grid: ChannelGrid, alpha: float, f: np.ndarray, bc=None) -> np.ndarray:
    """Solve (alpha - Lap) u = f with Dirichlet walls, one rfft mode at a time.

    Each mode's tridiagonal is assembled and solved on its own with
    scipy.linalg.solve_banded on the complex right side, in the same
    floating-point operations per mode as the stacked library solve.
    """
    bc = np.asarray(0.0 if bc is None else bc, dtype=float)
    b0, b1 = np.broadcast_to(bc if bc.ndim == 2 else bc.reshape(-1, 1), (2, grid.nx))
    h2 = grid.hy ** 2
    m = grid.ny - 2
    fh = np.fft.rfft(f, axis=0)
    b0h = np.fft.rfft(b0)
    b1h = np.fft.rfft(b1)
    uh = np.zeros_like(fh)
    uh[:, 0] = b0h
    uh[:, -1] = b1h
    for k, kappa in enumerate(grid.kx):
        ab = np.zeros((3, m))
        ab[0, 1:] = -1.0 / h2
        ab[1] = alpha + kappa ** 2 + 2.0 / h2
        ab[2, :-1] = -1.0 / h2
        rhs = fh[k, 1:-1].copy()
        rhs[0] += b0h[k] / h2
        rhs[-1] += b1h[k] / h2
        uh[k, 1:-1] = scipy.linalg.solve_banded((1, 1), ab, rhs)
    return np.fft.irfft(uh, n=grid.nx, axis=0)


def mixed_layer_direct(
    d1: float,
    d2: float,
    z1: float,
    z2: float,
    gamma1_wall: float,
    a1_of_tau,
    a2_of_tau,
    xi_max: float,
    n_xi: int,
    dtau: float,
    n_steps: int,
):
    """Integrate the corner-layer system without the shifted unknowns.

    Uniform grid on [0, xi_max], implicit Euler in tau with the charge
    coupling handled by solving the 2x2 block tridiagonal system for
    (c1, c2) jointly; the potential curvature is eliminated through
    -d^2_xi phi = rho.  Returns (xi, taus, c1_hist, c2_hist) with
    history arrays of shape (n_steps+1, n_xi).
    """
    import scipy.sparse
    import scipy.sparse.linalg

    xi = np.linspace(0.0, xi_max, n_xi)
    h = xi[1] - xi[0]
    g1 = gamma1_wall
    g2 = -z1 * g1 / z2

    m = n_xi - 2  # interior unknowns per species
    lap = scipy.sparse.diags(
        [np.full(m - 1, 1.0 / h ** 2), np.full(m, -2.0 / h ** 2), np.full(m - 1, 1.0 / h ** 2)],
        offsets=[-1, 0, 1],
        format="csr",
    )
    eye = scipy.sparse.identity(m, format="csr")
    # block system: (I - dtau*D_i lap) c_i + dtau*z_i*D_i*g_i*(z1 c1 + z2 c2) = old + bc flux
    A11 = eye - dtau * d1 * lap + dtau * z1 * d1 * g1 * z1 * eye
    A12 = dtau * z1 * d1 * g1 * z2 * eye
    A21 = dtau * z2 * d2 * g2 * z1 * eye
    A22 = eye - dtau * d2 * lap + dtau * z2 * d2 * g2 * z2 * eye
    A = scipy.sparse.bmat([[A11, A12], [A21, A22]], format="csc")
    lu = scipy.sparse.linalg.splu(A)

    c1 = np.zeros(n_xi)
    c2 = np.zeros(n_xi)
    c1[0] = a1_of_tau(0.0)
    c2[0] = a2_of_tau(0.0)
    c1_hist = [c1.copy()]
    c2_hist = [c2.copy()]
    taus = [0.0]
    for k in range(1, n_steps + 1):
        tau = k * dtau
        b1v = a1_of_tau(tau)
        b2v = a2_of_tau(tau)
        r1 = c1[1:-1].copy()
        r2 = c2[1:-1].copy()
        r1[0] += dtau * d1 * b1v / h ** 2
        r2[0] += dtau * d2 * b2v / h ** 2
        sol = lu.solve(np.concatenate([r1, r2]))
        c1 = np.zeros(n_xi)
        c2 = np.zeros(n_xi)
        c1[0], c2[0] = b1v, b2v
        c1[1:-1] = sol[:m]
        c2[1:-1] = sol[m:]
        c1_hist.append(c1.copy())
        c2_hist.append(c2.copy())
        taus.append(tau)
    return xi, np.array(taus), np.array(c1_hist), np.array(c2_hist)


def _interior_unit_fields(grid: ChannelGrid):
    """Yield (flat interior index, unit field) over interior nodes, row-major."""
    nx, ny = grid.shape
    for i in range(nx):
        for j in range(1, ny - 1):
            e = np.zeros((nx, ny))
            e[i, j] = 1.0
            yield i * (ny - 2) + j - 1, e


def dense_div_form(grid: ChannelGrid, a: np.ndarray, rhs: np.ndarray, bc0, bc1) -> np.ndarray:
    """Solve div(a grad u) = rhs, u = bc0 / bc1 on the walls, densely.

    Columns come from probing the library's div_a_grad with unit
    interior fields; the wall data enters as div_a_grad of the field
    that holds only the wall values.
    """
    nx, ny = grid.shape
    n = nx * (ny - 2)
    A = np.zeros((n, n))
    for col, e in _interior_unit_fields(grid):
        A[:, col] = div_a_grad(grid, a, e)[:, 1:-1].reshape(n)
    u = np.zeros((nx, ny))
    u[:, 0] = bc0
    u[:, -1] = bc1
    b = (rhs - div_a_grad(grid, a, u))[:, 1:-1].reshape(n)
    u[:, 1:-1] = np.linalg.solve(A, b).reshape(nx, ny - 2)
    return u


def dense_coupled_matrix(grid: ChannelGrid, p, dt: float, c1n: np.ndarray, c2n: np.ndarray) -> np.ndarray:
    """The implicit (c1, c2, psi) step matrix, probed column by column.

    Unknowns are the three fields one after the other, each row-major.
    Interior rows: (1/dt - D Lap) c + (-z D div(c_n grad psi)) for each
    species, -eps^2 Lap psi - z1 c1 - z2 c2 for the charge relation,
    with Lap = div_a_grad with a = 1.  Wall rows are identities.
    """
    nx, ny = grid.shape
    N = nx * ny
    ones = np.ones((nx, ny))
    interior = np.zeros((nx, ny))
    interior[:, 1:-1] = 1.0
    wall = 1.0 - interior
    M = np.zeros((3 * N, 3 * N))
    for col in range(3 * N):
        e = np.zeros(3 * N)
        e[col] = 1.0
        c1, c2, psi = (f.reshape(nx, ny) for f in np.split(e, 3))
        out = []
        for z, D, c, cn in ((p.z1, p.D1, c1, c1n), (p.z2, p.D2, c2, c2n)):
            diffusion = interior * c / dt - D * div_a_grad(grid, ones, c)
            out.append(diffusion - z * D * div_a_grad(grid, cn, psi) + wall * c)
        charge = interior * (p.z1 * c1 + p.z2 * c2)
        out.append(-p.eps ** 2 * div_a_grad(grid, ones, psi) - charge + wall * psi)
        M[:, col] = np.concatenate([f.ravel() for f in out])
    return M


def dense_projection(grid: ChannelGrid, u) -> list[np.ndarray]:
    """No-slip divergence-free projection by one dense least-squares solve.

    Wall values are zeroed, then the interior gradient G q = (ddx q,
    centered ddy q with zero wall padding) is probed from unit potentials
    and the component of u in its range removed by lstsq.
    """
    nx, ny = grid.shape
    n = nx * (ny - 2)
    h = grid.hy
    G = np.zeros((2 * n, n))
    for col, e in _interior_unit_fields(grid):
        gy = (e[:, 2:] - e[:, :-2]) / (2.0 * h)
        G[:, col] = np.concatenate([ddx(grid, e)[:, 1:-1].ravel(), gy.ravel()])
    v = np.concatenate([c[:, 1:-1].ravel() for c in u.components])
    q, *_ = np.linalg.lstsq(G, v, rcond=None)
    w = v - G @ q
    comps = []
    for part in np.split(w, 2):
        c = np.zeros((nx, ny))
        c[:, 1:-1] = part.reshape(nx, ny - 2)
        comps.append(c)
    return comps


def advected_limit_c1(s, cfg) -> np.ndarray:
    """c1 after one limit step with the advection term always evaluated.

    step_limit skips advect in d = 1, where the velocity is identically
    zero; this keeps the explicit -advect(u, c1) term in the library's
    transport step, as the step once did in every dimension.
    """
    g = cfg.grid
    deff = effective_diffusivity(cfg.params)
    c1 = _implicit_diffusion(g, s.c1, deff, cfg.dt, -advect(g, s.u, s.c1))
    c1[:, 0] = cfg.bdata.gamma1[0]
    c1[:, -1] = cfg.bdata.gamma1[1]
    return c1
