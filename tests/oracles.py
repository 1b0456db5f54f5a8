"""Independent reference solvers used only by the test suite.

These deliberately avoid the library's own solve routines: dense
matrices are assembled by probing operators with unit fields, and the
mixed-layer reference integrates the untransformed equations on a
uniform grid.  Agreement between a library solver and its oracle is
then a genuine two-route check.

The module also holds the diagnostics that only the tests read: the
divergence and max norm, the electrochemical potentials, the coercivity
bound on the dissipation and the residuals of the limit psi equation;
and the d = 1 step bodies in their full-size form, which the library's
lean d = 1 steps must reproduce byte for byte.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from debyeflow.diagnostics import MaxPrincipleReport, phi_entropy, wall_fields
from debyeflow.elliptic import solve_div_form, solve_poisson, solve_shifted_poisson
from debyeflow.grid import ChannelGrid, State, VelocityField
from debyeflow.layers import cutoff_left, cutoff_right, wall_layers
from debyeflow.limit import effective_diffusivity
from debyeflow.npns import _coupled_banded_1d, _implicit_diffusion
from debyeflow.operators import (
    BandedMatrix,
    advect,
    d2dx2,
    ddx,
    ddy,
    div_a_grad,
    div_a_grad_pattern,
    div_a_grad_values,
    grad,
    half_node_average_y,
    integrate,
    laplacian,
    norm_h1_semi,
    norm_l2,
    norms_h1_semi_h2,
)


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


def mixed_layer_sparse(a1, a2, gamma1: float, gamma2: float, p, xi, taus, alpha0=None):
    """The shifted corner unknowns of solve_mixed_layer, by block sparse LU.

    The same discretization as the library solver, assembled
    species-major as a 2x2 block matrix of sparse blocks and factored
    by scipy.sparse.linalg.splu, once per distinct step length.
    Returns the list of (alpha1, alpha2) at every tau node.
    """
    import scipy.sparse.linalg

    n = xi.size
    hm = xi[1:-1] - xi[:-2]
    hp = xi[2:] - xi[1:-1]
    lo = 2.0 / (hm * (hm + hp))
    hi = 2.0 / (hp * (hm + hp))
    rows = np.arange(1, n - 1)
    lap = scipy.sparse.csr_matrix(
        (np.concatenate([lo, -(lo + hi), hi]), (np.tile(rows, 3), np.concatenate([rows - 1, rows, rows + 1]))),
        shape=(n, n),
    )
    eye = scipy.sparse.identity(n, format="csr")
    # the mask keeps the pinned end rows pure identities
    mask = scipy.sparse.diags(np.r_[0.0, np.ones(n - 2), 0.0])
    decay = np.exp(-xi)
    al1, al2 = (np.zeros(n), np.zeros(n)) if alpha0 is None else np.array(alpha0, dtype=float)
    out = [(al1.copy(), al2.copy())]
    lus = {}
    for m in range(len(taus) - 1):
        dtau = float(taus[m + 1] - taus[m])
        if dtau not in lus:
            blocks = [
                [eye - dtau * p.D1 * lap + dtau * p.z1 * p.D1 * gamma1 * p.z1 * mask,
                 dtau * p.z1 * p.D1 * gamma1 * p.z2 * mask],
                [dtau * p.z2 * p.D2 * gamma2 * p.z1 * mask,
                 eye - dtau * p.D2 * lap + dtau * p.z2 * p.D2 * gamma2 * p.z2 * mask],
            ]
            lus[dtau] = scipy.sparse.linalg.splu(scipy.sparse.bmat(blocks, format="csc"))
        a1n, a2n = float(a1[m + 1]), float(a2[m + 1])
        r = p.z1 * a1n + p.z2 * a2n
        f1 = p.D1 * a1n - (a1n - float(a1[m])) / dtau - p.z1 * p.D1 * gamma1 * r
        f2 = p.D2 * a2n - (a2n - float(a2[m])) / dtau - p.z2 * p.D2 * gamma2 * r
        r1 = al1 + dtau * f1 * decay
        r2 = al2 + dtau * f2 * decay
        r1[0] = r1[-1] = r2[0] = r2[-1] = 0.0
        sol = lus[dtau].solve(np.concatenate([r1, r2]))
        al1, al2 = sol[:n], sol[n:]
        al1[0] = al1[-1] = al2[0] = al2[-1] = 0.0
        out.append((al1.copy(), al2.copy()))
    return out


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


def div_a_grad_matrix(grid: ChannelGrid, a: np.ndarray) -> scipy.sparse.csr_matrix:
    """Assembled div_a_grad(grid, a, .) over all nodes, row-major (i, j).

    Wall rows are zero, as in div_a_grad.  With a = 1 this is the
    five-point Laplacian (periodic in x).
    """
    N = grid.nx * grid.ny
    rows, cols = div_a_grad_pattern(grid)
    return scipy.sparse.csr_matrix((div_a_grad_values(grid, a), (rows, cols)), shape=(N, N))


def coupled_sparse_2d(grid: ChannelGrid, p, dt: float, c1n: np.ndarray, c2n: np.ndarray) -> scipy.sparse.csr_matrix:
    """The d = 2 step matrix of dense_coupled_matrix, assembled block by block with bmat.

    This is the reference coupled2d.CoupledMatrix must equal bitwise:
    the same indptr, indices and data, dtypes included.
    """
    nx, ny = grid.shape
    N = nx * ny
    ones = np.ones(grid.shape)
    lap = div_a_grad_matrix(grid, ones)

    int_mask = np.ones(grid.shape)
    int_mask[:, 0] = 0.0
    int_mask[:, -1] = 0.0
    I_int = scipy.sparse.diags(int_mask.ravel())
    I_wall = scipy.sparse.diags(1.0 - int_mask.ravel())

    Z = scipy.sparse.csr_matrix((N, N))
    blocks = []
    for z, D, a in ((p.z1, p.D1, c1n), (p.z2, p.D2, c2n)):
        diff = I_int / dt - D * lap + I_wall
        coup = -z * D * div_a_grad_matrix(grid, a)
        row = [Z, Z, coup]
        row[len(blocks)] = diff
        blocks.append(row)
    pois = -p.eps ** 2 * lap + I_wall
    blocks.append([-p.z1 * I_int, -p.z2 * I_int, pois])
    return scipy.sparse.bmat(blocks, format="csr")


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


# ---------------------------------------------------------------------------
# per-snapshot diagnostics: the library evaluates blocks of snapshots
# stacked along a leading time axis; these take one (nx, ny) snapshot at
# a time, in the same floating-point operations, so the two routes must
# agree bitwise


def _grad_sq(grid, f):
    out = np.zeros_like(f)
    for df in grad(grid, f):
        out += df * df
    return out


def per_snapshot_free_energy(grid, s, bdata, p) -> float:
    """Free energy of one snapshot, the integrals taken one by one."""
    if np.any(s.c1 <= 0.0) or np.any(s.c2 <= 0.0):
        raise ValueError("free energy undefined for non-positive concentrations")
    wall = wall_fields(grid, bdata)
    g1, g2 = wall.gamma1, wall.gamma2
    ent = integrate(grid, g1 * phi_entropy(s.c1 / g1) + g2 * phi_entropy(s.c2 / g2))
    elec = 0.5 * p.eps ** 2 * integrate(grid, _grad_sq(grid, s.psi))
    kin = 0.0
    for comp in s.u.components:
        kin += 0.5 * integrate(grid, comp * comp)
    return float(ent + elec + kin)


def per_snapshot_identity_residual(grid, snapshots, bdata, p) -> np.ndarray:
    """Energy-balance residual along a trajectory, one snapshot at a time."""
    wall = wall_fields(grid, bdata)
    times = np.array([s.t for s in snapshots])
    E = np.array([per_snapshot_free_energy(grid, s, bdata, p) for s in snapshots])
    dEdt = np.gradient(E, times, edge_order=2)
    res = np.empty(len(snapshots))
    for k, s in enumerate(snapshots):
        rho = s.rho(p)
        visc = 0.0
        for comp in s.u.components:
            visc += p.nu * integrate(grid, _grad_sq(grid, comp))
        diss = 0.0
        rhs = 0.0
        grad_total = grad(grid, s.psi + wall.phiw)
        for c, z, D, glog_gam in (
            (s.c1, p.z1, p.D1, wall.grad_log_gamma1),
            (s.c2, p.z2, p.D2, wall.grad_log_gamma2),
        ):
            gmu = [dc / c + z * dt for dc, dt in zip(grad(grid, c), grad_total)]
            gmu_star = [a + z * dw for a, dw in zip(glog_gam, wall.grad_phiw)]
            diss += D * integrate(grid, c * sum(a * a for a in gmu))
            rhs += D * integrate(grid, c * sum(a * b for a, b in zip(gmu, gmu_star)))
            rhs -= integrate(grid, c * sum(uc * a for uc, a in zip(s.u.components, glog_gam)))
        rhs -= integrate(grid, rho * sum(uc * dw for uc, dw in zip(s.u.components, wall.grad_phiw)))
        num = dEdt[k] + visc + diss - rhs
        den = max(abs(visc) + diss + abs(rhs), 1e-14)
        res[k] = num / den
    return res


def per_snapshot_modulated_energy(grid, s, p, c1_lim, u_lim, psi_lim) -> dict[str, float]:
    """H and Theta of one snapshot against one limit snapshot."""
    c2_lim = -p.z1 * c1_lim / p.z2
    H = integrate(grid, c1_lim * phi_entropy(s.c1 / c1_lim) + c2_lim * phi_entropy(s.c2 / c2_lim))
    H += 0.5 * p.eps ** 2 * integrate(grid, _grad_sq(grid, s.psi))
    for comp, comp_lim in zip(s.u.components, u_lim.components):
        H += 0.5 * integrate(grid, (comp - comp_lim) ** 2)
    theta = 0.0
    dpsi = grad(grid, s.psi)
    dpsil = grad(grid, psi_lim)
    for c, c_lim, D, z in ((s.c1, c1_lim, p.D1, p.z1), (s.c2, c2_lim, p.D2, p.z2)):
        dc = grad(grid, c)
        dcl = grad(grid, c_lim)
        theta += D * integrate(grid, sum((a - b) ** 2 for a, b in zip(dc, dcl)) / c)
        theta += z ** 2 * D * integrate(grid, c * sum((a - b) ** 2 for a, b in zip(dpsi, dpsil)))
    theta += p.D_star * integrate(grid, (s.rho(p) / p.eps) ** 2)
    for comp, comp_lim in zip(s.u.components, u_lim.components):
        theta += p.nu * integrate(grid, _grad_sq(grid, comp - comp_lim))
    return {"H": float(H), "Theta": float(theta)}


def per_snapshot_rate_metrics(fx, run, lrun, eps: float) -> dict[str, float]:
    """The error columns of one sweep member, one snapshot at a time.

    fx is the member's experiments.Fixture and run, lrun its finite-eps
    and limit runs.  Every norm takes one (nx, ny) field and the wall
    layers of the composite are built per snapshot; the library takes
    the same norms over blocks of snapshots, so the two must agree
    bitwise.
    """
    g, p = fx.run.grid, fx.run.params
    ratio = -p.z1 / p.z2
    e2 = eps * eps
    f = cutoff_left(g.y)[None, :]
    gc = cutoff_right(g.y)[None, :]
    err_c = err_u = err_h2 = err_cs = eps_gpsi = 0.0
    gpsi_sq, rho_sq, gc_sq = [], [], []
    for s, sl in zip(run, lrun):
        d1 = s.c1 - sl.c1
        d2 = s.c2 - ratio * sl.c1
        err_c = max(err_c, norm_l2(g, d1), norm_l2(g, d2))
        err_h2 = max(err_h2, norm_h2(g, d1), norm_h2(g, d2))
        du_sq = sum(norm_l2(g, a - b) ** 2 for a, b in zip(s.u.components, sl.u.components))
        err_u = max(err_u, math.sqrt(du_sq))
        gpsi_sq.append(norm_h1_semi(g, s.psi - sl.psi) ** 2)
        rho_sq.append((norm_l2(g, s.rho(p)) / eps) ** 2)
        gc_sq.append(max(norm_h1_semi(g, d1), norm_h1_semi(g, d2)) ** 2)
        eps_gpsi = max(eps_gpsi, eps * norm_h1_semi(g, s.psi))
        left, right = wall_layers(fx.run, sl.psi + fx.run.wall.phiw)
        model1 = sl.c1 + e2 * (f * left.c1(g.y / eps) + gc * right.c1((1.0 - g.y) / eps))
        model2 = ratio * sl.c1 + e2 * (f * left.c2(g.y / eps) + gc * right.c2((1.0 - g.y) / eps))
        err_cs = max(err_cs, norm_h1_semi(g, s.c1 - model1), norm_h1_semi(g, s.c2 - model2))
    times = np.array([s.t for s in run])
    trapz = getattr(np, "trapezoid", None) or np.trapz
    return {
        "err_c_LinfL2": err_c,
        "err_u_LinfL2": err_u,
        "err_grad_psi_L2L2": math.sqrt(trapz(gpsi_sq, times)),
        "err_rho_over_eps_L2L2": math.sqrt(trapz(rho_sq, times)),
        "err_cS_grad_LinfL2": err_cs,
        "err_c_LinfH2": err_h2,
        "err_grad_c_L2L2": math.sqrt(trapz(gc_sq, times)),
        "eps_grad_psi_LinfL2": eps_gpsi,
    }


def full_search_max_principle(c1, c2, bounds, tol) -> MaxPrincipleReport:
    """The band check by a worst-node search over both species, always.

    A NaN node counts as an infinite violation, and the first NaN node
    (species 1 before species 2, flat index order) is the worst.
    """
    lo1, hi1, lo2, hi2 = bounds
    worst = 0.0
    species = None
    index = None
    for i, (c, lo, hi) in enumerate(((c1, lo1, hi1), (c2, lo2, hi2)), start=1):
        viol = np.maximum((lo - tol) - c, c - (hi + tol))
        nan = np.isnan(viol)
        if nan.any():
            worst = math.inf
            species = i
            index = tuple(int(j) for j in np.unravel_index(np.argmax(nan), c.shape))
            break
        v = float(np.max(viol))
        if v > worst:
            worst = v
            species = i
            index = tuple(int(j) for j in np.unravel_index(np.argmax(viol), c.shape))
    return MaxPrincipleReport(
        ok=worst <= 0.0,
        min_c1=float(np.min(c1)),
        max_c1=float(np.max(c1)),
        min_c2=float(np.min(c2)),
        max_c2=float(np.max(c2)),
        worst_violation=worst,
        worst_species=species,
        worst_index=index,
    )


def solve_banded_projection(grid: ChannelGrid, u) -> list[np.ndarray]:
    """The library's projection with its pentadiagonal assembled and
    solved afresh by scipy.linalg.solve_banded on every call.

    The floating-point operations are the library's, so the two must
    agree bitwise; only the library caches the band factorization.
    """
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
    g = -1j * kx[:, None] * uxh[:, 1:-1] - c * (uyh[:, 2:] - uyh[:, :-2])
    j = np.arange(m)
    c2 = c * c
    diag = c2 * ((j >= 1).astype(float) + (j <= m - 2)) + kx[:, None] ** 2
    upper = np.tile(np.where(j >= 2, -c2, 0.0), (nk, 1))
    lower = np.where(j <= m - 3, -c2, 0.0)
    pinned = (kx == 0.0) & (m % 2 == 1)
    diag[pinned, 0] = 1.0
    upper[pinned, 2] = 0.0
    g[pinned, 0] = 0.0
    ab = np.zeros((5, nk * m))
    ab[0] = upper.ravel()
    ab[2] = diag.ravel()
    ab[4] = np.tile(lower, nk)
    sol = scipy.linalg.solve_banded((2, 2), ab, np.stack([g.real.ravel(), g.imag.ravel()], axis=1))
    q = np.zeros_like(uyh)
    q[:, 1:-1] = (sol[:, 0] + 1j * sol[:, 1]).reshape(nk, m)
    uxh[:, 1:-1] -= 1j * kx[:, None] * q[:, 1:-1]
    uyh[:, 1:-1] -= c * (q[:, 2:] - q[:, :-2])
    ux = np.fft.irfft(uxh, n=grid.nx, axis=0)
    uy = np.fft.irfft(uyh, n=grid.nx, axis=0)
    for comp in (ux, uy):
        comp[:, 0] = 0.0
        comp[:, -1] = 0.0
    return [ux, uy]


# ---------------------------------------------------------------------------
# diagnostics that only the tests read: no preset evaluates them, so they
# live here rather than in the library


def norm_linf(grid: ChannelGrid, f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def norm_h2(grid: ChannelGrid, f: np.ndarray) -> float | np.ndarray:
    """Full H^2 norm of f, as the rate reduction computes it."""
    return norms_h1_semi_h2(grid, f)[1]


def divergence(grid: ChannelGrid, components) -> np.ndarray:
    """Divergence of a vector sample (VelocityField or list of arrays)."""
    if isinstance(components, VelocityField):
        components = components.components
    if len(components) != grid.d:
        raise ValueError(f"need {grid.d} components, got {len(components)}")
    if grid.d == 1:
        return ddy(grid, components[0])
    return ddx(grid, components[0]) + ddy(grid, components[1])


def electrochemical_potentials(grid: ChannelGrid, s, wall, p) -> dict[str, np.ndarray]:
    """Potentials mu_i = log c_i + z_i(psi + phiW) and their wall-data
    counterparts mu_i_star = log Gamma_i + z_i phiW."""
    if np.any(s.c1 <= 0.0) or np.any(s.c2 <= 0.0):
        raise ValueError("potentials undefined for non-positive concentrations")
    phiw, g1, g2 = wall.phiw, wall.gamma1, wall.gamma2
    total = s.psi + phiw
    return {
        "mu1": np.log(s.c1) + p.z1 * total,
        "mu2": np.log(s.c2) + p.z2 * total,
        "mu1_star": np.log(g1) + p.z1 * phiw,
        "mu2_star": np.log(g2) + p.z2 * phiw,
    }


def dissipation_lower_bound(grid: ChannelGrid, s, wall, p, bounds: tuple[float, float]) -> dict[str, float]:
    """Both sides of the coercivity bound on the entropy dissipation.

    gradient terms + field term + charge term <= M * dissipation, with
    the explicit constant M = max(Lambda/D*, 1/((z1^2+z2^2) lambda D*),
    1/(2 D*)), where bounds = (lambda, Lambda) is the envelope of both
    concentrations.  Returns the sides and the constant; callers assert
    with an O(h^2) slack since the continuous proof integrates by parts
    once.
    """
    lam, Lam = bounds
    total = s.psi + wall.phiw
    rho = s.rho(p)

    diss = 0.0
    grad_c_sq = 0.0
    grad_total = grad(grid, total)
    for c, z, D in ((s.c1, p.z1, p.D1), (s.c2, p.z2, p.D2)):
        gmu = [dc / c + z * dt for dc, dt in zip(grad(grid, c), grad_total)]
        diss += D * integrate(grid, c * sum(a * a for a in gmu))
        grad_c_sq += integrate(grid, _grad_sq(grid, c))
    field_sq = integrate(grid, _grad_sq(grid, total))
    charge_sq = integrate(grid, (rho / p.eps) ** 2)

    zz = p.z1 ** 2 + p.z2 ** 2
    M = max(Lam / p.D_star, 1.0 / (zz * lam * p.D_star), 1.0 / (2.0 * p.D_star))
    return {
        "lhs": grad_c_sq + field_sq + charge_sq,
        "rhs": M * diss,
        "dissipation": diss,
        "constant": M,
    }


def limit_psi_residuals(grid: ChannelGrid, c1: np.ndarray, psi: np.ndarray, p, phiw: np.ndarray) -> dict:
    """Discrete residuals of both divergence forms of the limit psi equation.

    The charge-weighted form, with the second species eliminated by the
    constraint, is exactly z1 times the primary form, so its residual
    is tied to the first by linearity of the flux assembly.
    """
    ones = np.ones(grid.shape)
    a = (p.z1 * p.D1 - p.z2 * p.D2) * c1
    primary = ((p.D1 - p.D2) * div_a_grad(grid, ones, c1)
               + div_a_grad(grid, a, psi) + div_a_grad(grid, a, phiw))
    c2 = -(p.z1 / p.z2) * c1
    a2 = p.z1 ** 2 * p.D1 * c1 + p.z2 ** 2 * p.D2 * c2
    weighted = (p.z1 * p.D1 * div_a_grad(grid, ones, c1)
                + p.z2 * p.D2 * div_a_grad(grid, ones, c2)
                + div_a_grad(grid, a2, psi) + div_a_grad(grid, a2, phiw))
    return {
        "primary": norm_linf(grid, primary),
        "charge_weighted": norm_linf(grid, weighted),
    }


# ---------------------------------------------------------------------------
# the d = 1 step bodies in their full-size form: each drift is a whole
# div_a_grad field, the coupling entries average the concentrations
# again, the residual runs over the full band and every array has the
# grid's shape.  The library forms each half-node average once and its
# right sides on the interior rows only; the floating-point operations
# per entry are these, so both must give the same bytes


def _coupling_entries_1d(A: BandedMatrix, grid: ChannelGrid, p, c1n, c2n) -> None:
    """The electro-coupling entries of c1n and c2n, written into A as three separate products."""
    ny = grid.ny
    h2 = grid.hy ** 2
    ab, u = A.ab, A.u
    for v, (z, D, a) in enumerate(((p.z1, p.D1, c1n), (p.z2, p.D2, c2n))):
        ah = half_node_average_y(a)[0]
        lo = ah[:-1]
        hi = ah[1:]
        off = 2 - v
        ab[u - off + 3, 2 : 3 * ny - 6 : 3] = -z * D * lo / h2
        ab[u - off, 5 : 3 * ny - 3 : 3] = z * D * (lo + hi) / h2
        ab[u - off - 3, 8 : 3 * ny : 3] = -z * D * hi / h2


def step_npns_d1_reference(s: State, cfg) -> State:
    """One d = 1 finite-eps step: div_a_grad drifts, the full-band residual, solve_poisson."""
    g, p, dt = cfg.grid, cfg.params, cfg.dt
    phiw = cfg.wall.phiw
    A = _coupled_banded_1d(g, p, dt, g.zeros(), g.zeros())
    _coupling_entries_1d(A, g, p, s.c1, s.c2)
    # no advection in d = 1: the scalar 0.0 stands in for it
    b1 = s.c1 / dt - 0.0 + p.z1 * p.D1 * div_a_grad(g, s.c1, phiw)
    b2 = s.c2 / dt - 0.0 + p.z2 * p.D2 * div_a_grad(g, s.c2, phiw)
    x = np.empty(3 * g.ny)
    x[0::3] = s.c1[0]
    x[1::3] = s.c2[0]
    x[2::3] = s.psi[0]
    b = np.zeros_like(x)
    b[0::3] = b1[0]
    b[1::3] = b2[0]
    r = b - A.matvec(x)
    for idx in (0, 1, 2, -3, -2, -1):
        r[idx] = 0.0
    x = x + A.solve(r)
    c1 = x[0::3][None, :].copy()
    c2 = x[1::3][None, :].copy()
    c1[:, 0] = cfg.bdata.gamma1[0]
    c1[:, -1] = cfg.bdata.gamma1[1]
    c2[:, 0] = cfg.bdata.gamma2[0]
    c2[:, -1] = cfg.bdata.gamma2[1]
    psi = solve_poisson(g, p.z1 * c1 + p.z2 * c2, coeff=p.eps ** 2)
    return State(t=s.t + dt, c1=c1, c2=c2, u=s.u, psi=psi)


def limit_psi_d1_reference(grid: ChannelGrid, c1: np.ndarray, p, phiw: np.ndarray) -> np.ndarray:
    """The limit potential from full div_a_grad right sides and solve_div_form."""
    a = (p.z1 * p.D1 - p.z2 * p.D2) * c1
    ones = np.ones(grid.shape)
    rhs = -(p.D1 - p.D2) * div_a_grad(grid, ones, c1) - div_a_grad(grid, a, phiw)
    return solve_div_form(grid, a, rhs)


def step_limit_d1_reference(s: State, cfg) -> State:
    """One d = 1 limit step: the full laplacian plus a zero source, then solve_shifted_poisson.

    psi is solved by limit_psi_d1_reference when s carries one.
    """
    g, p, dt = cfg.grid, cfg.params, cfg.dt
    deff = effective_diffusivity(p)
    rhs = laplacian(g, s.c1) + 0.0 / deff
    c1 = s.c1 + solve_shifted_poisson(g, 1.0 / (dt * deff), rhs)
    c1[:, 0] = cfg.bdata.gamma1[0]
    c1[:, -1] = cfg.bdata.gamma1[1]
    psi = None if s.psi is None else limit_psi_d1_reference(g, c1, p, cfg.wall.phiw)
    return State(t=s.t + dt, c1=c1, c2=-(p.z1 / p.z2) * c1, u=s.u, psi=psi)
