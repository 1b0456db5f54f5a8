"""Time integration of the two-species electrokinetic system.

One step solves, in this order: a coupled implicit system for both
concentrations and the potential (the electro-coupling is the stiff
part, linearized around the concentrations at the previous level), then
the potential is recomputed from the charge so the Poisson relation
never drifts, then the fluid advances by explicit advection, implicit
viscosity, and a divergence-free projection.  Advection and the
wall-data drift are explicit.

Stepping is organized in delta form: we solve for the increment against
the residual of the previous state, so Dirichlet rows carry exact
zeros and exact equilibria are bitwise fixed points.

The quasi-neutral limit (limit.py) shares the run config NpnsConfig,
the time loop march, the velocity step and the delta-form diffusion.

A run is a stream of the States it saves, as the steps built them: each
step is taken when the caller asks for the next saved state, and no
step writes to a state it was given, so nothing is copied.  A caller
that reduces the stream as it reads it holds no trajectory; one that
needs a list writes list(run).  The solvers compute no diagnostics; a
caller that reads the energy balance builds it from the saved states as
they arrive (diagnostics.diagnostics_record).

The coupled system is banded in d = 1 and solved directly.  A run keeps
one band matrix and one LU buffer for it; each step rewrites only the
entries that depend on the concentrations and factors into the same
buffer, so the step allocates no factor storage.  In d = 2 a run
likewise assembles one CSR matrix, and each step refills only the data
slots of its two coupling blocks.  That system is solved by restarted
GMRES (Saad & Schultz 1986), preconditioned by the same operator with
x-mean coefficients, which the rfft in x splits into one banded matrix
per mode.  GMRES stops once the residual norm has
dropped by GMRES_RTOL = 1e-13, or to the rounding level of the residual
being solved for if that is larger; a step whose GMRES does not
converge raises StepError.  A zero residual gives an exact zero
increment, so the fixed-point property holds in d = 2 as well.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .diagnostics import MaxPrincipleReport, WallFields, max_principle_check, wall_fields
from .elliptic import project_div_free, solve_poisson, solve_shifted_poisson
from .grid import ChannelGrid, State, VelocityField
from .operators import (
    BandedMatrix,
    advect,
    div_a_grad,
    div_a_grad_matrix,
    div_a_grad_pattern,
    div_a_grad_values,
    grad,
    half_node_average_y,
    laplacian,
)
from .params import BoundaryData, Params

logger = logging.getLogger(__name__)

__all__ = [
    "NpnsConfig",
    "StepError",
    "MaxPrincipleViolation",
    "well_prepared_init",
    "step_npns",
    "run_npns",
    "march",
    "advance_velocity",
]

# d = 2 coupled solve: GMRES stops when |r - A delta| falls to GMRES_RTOL |r|
# or to the rounding level of r itself, whichever is larger; GMRES_MAXITER
# counts restart cycles of GMRES_RESTART iterations
GMRES_RTOL = 1e-13
GMRES_RESTART = 50
GMRES_MAXITER = 10


class StepError(RuntimeError):
    """A step failed: its linear solve did not converge, or it lost positivity or finiteness."""

    def __init__(self, t: float, message: str, extrema: dict[str, float], eps: float | None = None):
        super().__init__(f"t={t:.6g}: {message}; extrema={extrema}")
        self.t = t
        self.message = message
        self.extrema = extrema
        self.eps = eps

    def __reduce__(self):
        # pool workers send exceptions back pickled; rebuild from the
        # constructor arguments, not from the formatted message
        return (type(self), (self.t, self.message, self.extrema, self.eps))


class MaxPrincipleViolation(RuntimeError):
    """Blow-up guard: concentrations left the admissible band."""

    def __init__(self, t: float, report: MaxPrincipleReport, eps: float | None = None):
        super().__init__(
            f"t={t:.6g}: species {report.worst_species} violates the concentration band "
            f"by {report.worst_violation:.3e} at node {report.worst_index}"
        )
        self.t = t
        self.report = report
        self.eps = eps

    def __reduce__(self):
        return (type(self), (self.t, self.report, self.eps))


@dataclass(frozen=True)
class NpnsConfig:
    """One run of either stack; wall holds its WallFields, built once here (hence frozen)."""

    params: Params
    bdata: BoundaryData
    grid: ChannelGrid
    dt: float
    t_end: float
    wall: WallFields = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"time step must be positive, got dt={self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"final time must be nonnegative, got t_end={self.t_end}")
        if 0.0 < self.t_end < self.dt:
            raise ValueError(f"t_end={self.t_end} smaller than one step dt={self.dt}")
        if self.bdata.gamma1.shape[1] != self.grid.nx:
            raise ValueError(
                f"boundary traces sampled on {self.bdata.gamma1.shape[1]} nodes, grid has nx={self.grid.nx}"
            )
        object.__setattr__(self, "wall", wall_fields(self.grid, self.bdata))

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end={self.t_end} is not a whole number of steps of dt={self.dt}")
        return n


class _StepWorkspace:
    """Per-run state shared by every step.

    Holds the one coupled-step matrix of the run, which each step
    refills with the coupling entries of its concentrations: in d = 1 a
    band matrix with its LU buffer, in d = 2 a CSR matrix together with
    the positions of its two coupling blocks' entries in its data.
    """

    def __init__(self, cfg: NpnsConfig):
        g = cfg.grid
        self.coupling_slots = None
        # the coupling entries written here are overwritten by every step
        if g.d == 1:
            self.coupled = _coupled_banded_1d(g, cfg.params, cfg.dt, g.zeros(), g.zeros())
        else:
            ones = np.ones(g.shape)
            self.coupled = _coupled_sparse_2d(g, cfg.params, cfg.dt, ones, ones)
            self.coupling_slots = _coupling_slots_2d(self.coupled, g)


def well_prepared_init(
    grid: ChannelGrid,
    c1_0: np.ndarray,
    u_0: VelocityField,
    cfg: NpnsConfig,
) -> State:
    """Build a zero-charge initial state from the first concentration.

    c2 is set to -(z1/z2) c1 so the charge vanishes bitwise, which in
    turn forces the potential to zero.  The velocity is projected.
    """
    p = cfg.params
    c1_0, u = _initial_fields(grid, c1_0, u_0, cfg.bdata)
    return State(t=0.0, c1=c1_0, c2=-(p.z1 / p.z2) * c1_0, u=u, psi=grid.zeros())


def _initial_fields(grid: ChannelGrid, c1_0, u_0: VelocityField, bdata: BoundaryData):
    """Checked copy of c1_0 and the projected u_0, shared by both initial states."""
    c1_0 = np.array(c1_0, dtype=float)
    if c1_0.shape != grid.shape:
        raise ValueError(f"initial field shape {c1_0.shape} != grid {grid.shape}")
    if np.any(c1_0 <= 0.0):
        raise ValueError(f"initial concentration must be positive, min={np.min(c1_0)}")
    mismatch = max(
        float(np.max(np.abs(c1_0[:, 0] - bdata.gamma1[0]))),
        float(np.max(np.abs(c1_0[:, -1] - bdata.gamma1[1]))),
    )
    if mismatch > 1e-10:
        raise ValueError(f"initial trace differs from wall data by {mismatch:.3e}")
    for comp in u_0.components:
        wall = max(float(np.max(np.abs(comp[:, 0]))), float(np.max(np.abs(comp[:, -1]))))
        if wall > 1e-12:
            raise ValueError(f"initial velocity must vanish on the walls, got {wall:.3e}")
    return c1_0, project_div_free(grid, u_0)


# ---------------------------------------------------------------------------
# coupled implicit solve, d = 1 (banded) and d = 2 (sparse, GMRES)


def _coupled_banded_1d(grid: ChannelGrid, p: Params, dt: float, c1n, c2n) -> BandedMatrix:
    """Node-major banded matrix for the (c1, c2, psi) implicit system.

    Unknown layout [c1_j, c2_j, psi_j]; the electro-coupling column uses
    the half-node fluxes of the frozen concentrations, the psi row is
    the charge relation itself, wall rows are identities.  Only the
    coupling entries depend on the concentrations; _set_coupling_1d
    writes them, here and once per step into a run's shared matrix.
    """
    ny = grid.ny
    n = 3 * ny
    h2 = grid.hy ** 2
    eps2 = p.eps ** 2
    offs = (-3, -2, -1, 0, 1, 2, 3, 4, 5)
    d = {k: np.zeros(n) for k in offs}
    j = np.arange(1, ny - 1)

    for v, D in enumerate((p.D1, p.D2)):
        g = 3 * j + v
        d[0][g] = 1.0 / dt + 2.0 * D / h2
        d[-3][g] = -D / h2
        d[3][g] = -D / h2

    gp = 3 * j + 2
    d[0][gp] = 2.0 * eps2 / h2
    d[-3][gp] = -eps2 / h2
    d[3][gp] = -eps2 / h2
    d[-2][gp] = -p.z1
    d[-1][gp] = -p.z2

    for g in (0, 1, 2, n - 3, n - 2, n - 1):
        d[0][g] = 1.0
    A = BandedMatrix(n, d)
    _set_coupling_1d(A, grid, p, c1n, c2n)
    return A


def _set_coupling_1d(A: BandedMatrix, grid: ChannelGrid, p: Params, c1n, c2n) -> None:
    """Write the electro-coupling entries of the frozen concentrations into A.

    Species v's interior row 3j+v gets -z D div(c_n grad psi) on the psi
    unknowns 3(j-1)+2, 3j+2, 3(j+1)+2, at offsets 2-v-3, 2-v and 2-v+3.
    No other entry of A is touched.
    """
    ny = grid.ny
    h2 = grid.hy ** 2
    ab, u = A.ab, A.u
    for v, (z, D, a) in enumerate(((p.z1, p.D1, c1n), (p.z2, p.D2, c2n))):
        ah = half_node_average_y(a)[0]  # ah[j] = a at j+1/2
        lo = ah[:-1]
        hi = ah[1:]
        off = 2 - v
        # A[g, g+k] is stored at ab[u-k, g+k]; for the rows g = 3j+v,
        # j = 1..ny-2, the columns g+off-3, g+off, g+off+3 are the psi
        # unknowns of nodes j-1, j, j+1
        ab[u - off + 3, 2 : 3 * ny - 6 : 3] = -z * D * lo / h2
        ab[u - off, 5 : 3 * ny - 3 : 3] = z * D * (lo + hi) / h2
        ab[u - off - 3, 8 : 3 * ny : 3] = -z * D * hi / h2


def _coupled_sparse_2d(grid: ChannelGrid, p: Params, dt: float, c1n, c2n) -> scipy.sparse.csr_matrix:
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


def _coupling_slots_2d(A: scipy.sparse.csr_matrix, grid: ChannelGrid) -> np.ndarray:
    """Where the coupling entries of _coupled_sparse_2d sit in A.data.

    Row v holds, in div_a_grad_pattern order, the data positions of
    species v's block -z D div(c_n grad .), which spans rows v N to
    (v+1) N and the psi columns 2N to 3N.  Each entry's flat index
    row * 3N + column is looked up among A's stored entries, which
    increase strictly in a canonical CSR matrix; a non-canonical A or an
    entry A does not store raises ValueError.
    """
    N = grid.nx * grid.ny
    n_rows, n_cols = A.shape
    stored = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(A.indptr)) * n_cols + A.indices
    rows, cols = div_a_grad_pattern(grid)
    slots = np.empty((2, len(rows)), dtype=np.intp)
    for v in range(2):
        wanted = (v * N + rows.astype(np.int64)) * n_cols + 2 * N + cols
        slots[v] = np.searchsorted(stored, wanted)
        if not (A.has_canonical_format and np.array_equal(stored.take(slots[v], mode="clip"), wanted)):
            raise ValueError("matrix does not store every coupling entry in canonical order")
    return slots


def _set_coupling_2d(A: scipy.sparse.csr_matrix, slots: np.ndarray, grid: ChannelGrid, p: Params,
                     c1n, c2n) -> None:
    """Write the coupling entries of the frozen concentrations into A.data.

    The values are the div_a_grad_matrix entries scaled as in
    _coupled_sparse_2d, so A becomes bitwise the matrix it would build
    from c1n and c2n.  No other entry of A is touched.
    """
    for v, (z, D, a) in enumerate(((p.z1, p.D1, c1n), (p.z2, p.D2, c2n))):
        A.data[slots[v]] = -z * D * div_a_grad_values(grid, a)


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
    lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, l, u, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"mode preconditioner is singular (dgbtrf info={info})")

    def solve(r: np.ndarray) -> np.ndarray:
        # [c1, c2, psi] fields -> per-mode node-major [c1_j, c2_j, psi_j]
        rh = np.fft.rfft(r.reshape(3, nx, ny), axis=1).transpose(1, 2, 0).ravel()
        x, _ = scipy.linalg.lapack.dgbtrs(lu, l, u, np.stack([rh.real, rh.imag], axis=1), piv)
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


def _rounding_level(A: scipy.sparse.csr_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """Rounding level of the residual b - A x: machine eps times the norm of |A| |x| + |b|.

    |A| is built on A's own index arrays, so the matrix is not copied.
    """
    abs_A = scipy.sparse.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    return np.finfo(float).eps * np.linalg.norm(abs_A @ np.abs(x) + np.abs(b))


def advance_velocity(
    grid: ChannelGrid,
    u: VelocityField,
    dt: float,
    nu: float,
    advection: list[np.ndarray],
    force: list[np.ndarray],
) -> VelocityField:
    """Explicit u/dt - advection + force, implicit viscosity, projection, no-slip walls.

    advection and force hold one field per velocity component.  In d = 1
    the projection annihilates everything, so the velocity is returned
    as exactly zero without any solves.
    """
    if grid.d == 1:
        return VelocityField.zero(grid)
    alpha = 1.0 / (dt * nu)
    new_comps = [
        solve_shifted_poisson(grid, alpha, (comp / dt - a + f) / nu)
        for comp, a, f in zip(u.components, advection, force)
    ]
    return project_div_free(grid, VelocityField(grid, new_comps))


def _advect_vector(grid: ChannelGrid, a: VelocityField, b: VelocityField) -> list[np.ndarray]:
    """(a . grad) b, one field per component of b."""
    return [advect(grid, a, comp) for comp in b.components]


def _extrema(c1, c2) -> dict[str, float]:
    return {
        "min_c1": float(np.min(c1)),
        "max_c1": float(np.max(c1)),
        "min_c2": float(np.min(c2)),
        "max_c2": float(np.max(c2)),
    }


def step_npns(s: State, cfg: NpnsConfig, _ws: _StepWorkspace | None = None) -> State:
    """Advance one time step; see the module docstring for the scheme."""
    if _ws is None:
        _ws = _StepWorkspace(cfg)
    g = cfg.grid
    p = cfg.params
    dt = cfg.dt
    phiw = cfg.wall.phiw
    t_new = s.t + dt

    adv1 = advect(g, s.u, s.c1) if g.d == 2 else 0.0
    adv2 = advect(g, s.u, s.c2) if g.d == 2 else 0.0
    drift1 = p.z1 * p.D1 * div_a_grad(g, s.c1, phiw)
    drift2 = p.z2 * p.D2 * div_a_grad(g, s.c2, phiw)

    b1 = s.c1 / dt - adv1 + drift1
    b2 = s.c2 / dt - adv2 + drift2
    A = _ws.coupled
    if g.d == 1:
        _set_coupling_1d(A, g, p, s.c1, s.c2)
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
        delta = A.solve(r)
        x = x + delta
        c1 = x[0::3][None, :].copy()
        c2 = x[1::3][None, :].copy()
    else:
        _set_coupling_2d(A, _ws.coupling_slots, g, p, s.c1, s.c2)
        N = g.nx * g.ny
        x = np.concatenate([s.c1.ravel(), s.c2.ravel(), s.psi.ravel()])
        b = np.concatenate([b1.ravel(), b2.ravel(), np.zeros(N)])
        r = b - A @ x
        wall = np.zeros(g.shape, dtype=bool)
        wall[:, 0] = True
        wall[:, -1] = True
        r[np.concatenate([wall.ravel()] * 3)] = 0.0
        # r carries the rounding error of b - A x; on fine grids a
        # solve to GMRES_RTOL alone would chase that noise
        noise = _rounding_level(A, x, b)
        delta, info = _coupled_gmres(g, p, dt, s.c1, s.c2, A, r, noise)
        if info != 0:
            raise StepError(t_new, f"GMRES did not converge (info={info})", _extrema(s.c1, s.c2), p.eps)
        x = x + delta
        c1 = x[:N].reshape(g.shape)
        c2 = x[N : 2 * N].reshape(g.shape)

    if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
        raise StepError(t_new, "non-finite concentration after implicit solve", _extrema(s.c1, s.c2), p.eps)
    if np.min(c1) <= 0.0 or np.min(c2) <= 0.0:
        raise StepError(t_new, "concentration lost positivity", _extrema(c1, c2), p.eps)

    # exact wall reimposition, then the charge relation defines psi
    c1[:, 0] = cfg.bdata.gamma1[0]
    c1[:, -1] = cfg.bdata.gamma1[1]
    c2[:, 0] = cfg.bdata.gamma2[0]
    c2[:, -1] = cfg.bdata.gamma2[1]
    rho = p.z1 * c1 + p.z2 * c2
    psi = solve_poisson(g, rho, coeff=p.eps ** 2)

    if g.d == 1:
        u = s.u
    else:
        gpsi = grad(g, psi + phiw)
        force = [-rho * df for df in gpsi]
        u = advance_velocity(g, s.u, dt, p.nu, _advect_vector(g, s.u, s.u), force)
    return State(t=t_new, c1=c1, c2=c2, u=u, psi=psi)


def _implicit_diffusion(grid: ChannelGrid, c: np.ndarray, D: float, dt: float, explicit) -> np.ndarray:
    """c after one implicit diffusion step with explicit source terms.

    Delta form: the increment solves (1/(dt D) - Lap) delta = Lap c +
    explicit/D with zero wall values, so wall values and exact
    equilibria are bitwise fixed points of the solve.
    """
    rhs = laplacian(grid, c) + explicit / D
    return c + solve_shifted_poisson(grid, 1.0 / (dt * D), rhs)


def march(init: State, cfg: NpnsConfig, step, save_every: int, tol: float, label: str) -> Iterator[State]:
    """Stream of init, every save_every-th state and the last one, stepped to cfg.t_end.

    step maps a state to the next.  After each step the state's time is
    set to k dt, so repeated addition cannot drift, and its c1 and c2
    must stay in the band spanned by the wall data and init, widened by
    tol, or the march aborts through MaxPrincipleViolation while the
    stream is read.  save_every and cfg are checked here, before the
    first state is asked for; label names the run in the line logged
    when the stream ends.
    """
    if save_every < 1:
        raise ValueError(f"save_every must be >= 1, got {save_every}")
    n = cfg.n_steps
    bounds = (
        min(float(np.min(cfg.bdata.gamma1)), float(np.min(init.c1))),
        max(float(np.max(cfg.bdata.gamma1)), float(np.max(init.c1))),
        min(float(np.min(cfg.bdata.gamma2)), float(np.min(init.c2))),
        max(float(np.max(cfg.bdata.gamma2)), float(np.max(init.c2))),
    )
    return _saved_states(init, cfg, step, save_every, n, bounds, tol, label)


def _saved_states(init: State, cfg: NpnsConfig, step, save_every: int, n: int, bounds, tol: float,
                  label: str) -> Iterator[State]:
    yield init
    s = init
    saved = 1
    for k in range(1, n + 1):
        s = step(s)
        s.t = k * cfg.dt
        report = max_principle_check(s.c1, s.c2, bounds, tol=tol)
        if not report.ok:
            logger.error("max principle violated at t=%.6g: %s", s.t, report)
            raise MaxPrincipleViolation(s.t, report, cfg.params.eps)
        if k % save_every == 0 or k == n:
            saved += 1
            yield s
    logger.info("%s complete: %d steps, %d snapshots, t_end=%.6g", label, n, saved, s.t)


def run_npns(init: State, cfg: NpnsConfig, save_every: int = 1) -> Iterator[State]:
    """Stream of init, every save_every-th state and the last one, marched to t_end.

    The run's workspace is built here; each step is taken as the stream
    is read.  The run aborts through MaxPrincipleViolation when a
    concentration leaves the band implied by the wall data and the
    initial state by more than the blow-up guard of 1e-4.
    """
    ws = _StepWorkspace(cfg)
    return march(init, cfg, lambda s: step_npns(s, cfg, ws), save_every, tol=1e-4, label="run")
