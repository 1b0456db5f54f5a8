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
buffer, so the step allocates no factor storage.  The d = 1 run's
workspace (_StepWorkspace) also holds the wall-potential differences
and the node-major unknown and right-side buffers.  A d = 1 step takes
each species' half-node average once, for both its coupling entries and
its drift, and forms the right side on the interior rows only, since
the residual's wall rows are zeroed; the floating-point operations of
every entry are those of the full-size div_a_grad form, so the bytes
are too (tests/oracles.py keeps that form).  In d = 2 a run
likewise keeps one CSR matrix whose coupling entries each step refills,
and solves it by preconditioned GMRES.  That solve lives in coupled2d,
which multiplies by scipy's compiled CSR kernel, loaded alone, and runs
its own port of scipy's GMRES, so the d = 2 step loads no scipy.sparse.
NpnsConfig imports coupled2d when it is built with a d = 2 grid, so a
d = 1 run never loads it and a d = 2 run pays the import in its set-up.
A step whose GMRES does not converge raises StepError.  The d = 1 band
solve and the Poisson recompute reach LAPACK through operators.lapack,
scipy's compiled wrapper loaded alone, so a d = 1 run loads no other
part of scipy.
"""

from __future__ import annotations

import importlib
import logging
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import MaxPrincipleReport, WallFields, max_principle_check, wall_fields
from .elliptic import project_div_free, solve_poisson, solve_shifted_poisson
from .grid import ChannelGrid, State, VelocityField
from .operators import (
    BandedMatrix,
    advect,
    div_a_grad,
    grad,
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
        if self.grid.d == 2:
            # the d = 2 solve and its CSR kernel load here, in set-up,
            # and never in a d = 1 run
            importlib.import_module(".coupled2d", __package__)

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
    band matrix with its LU buffer, in d = 2 a coupled2d.CoupledMatrix.
    In d = 1 it also holds what every step reads or rewrites: the
    wall-potential differences dphi = phiw[1:] - phiw[:-1], and the
    node-major buffers x, the unknowns [c1_j, c2_j, psi_j] of the
    previous level, and b, the right side.  A step writes only the
    concentrations' interior rows of b, so its psi and wall entries
    stay zero.
    """

    def __init__(self, cfg: NpnsConfig):
        g = cfg.grid
        # the coupling entries written here are overwritten by every step
        if g.d == 1:
            self.coupled = _coupled_banded_1d(g, cfg.params, cfg.dt, g.zeros(), g.zeros())
            phiw = cfg.wall.phiw[0]
            self.dphi = phiw[1:] - phiw[:-1]
            self.x = np.empty(3 * g.ny)
            self.b = np.zeros(3 * g.ny)
        else:
            from .coupled2d import CoupledMatrix

            ones = np.ones(g.shape)
            self.coupled = CoupledMatrix(g, cfg.params, cfg.dt, ones, ones)


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
# coupled implicit solve, d = 1 (banded; d = 2 in coupled2d)


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
    # band storage with l = 3, u = 5: A[g, g+k] sits at ab[5-k, g+k]; the
    # interior rows of unknown v are g = 3j+v, j = 1..ny-2
    ab = np.zeros((9, n))
    for v, (diag, D) in enumerate(((1.0 / dt, p.D1), (1.0 / dt, p.D2), (0.0, p.eps ** 2))):
        ab[5, 3 + v : n - 3 : 3] = diag + 2.0 * D / h2
        ab[8, v : n - 6 : 3] = -D / h2
        ab[2, 6 + v : n : 3] = -D / h2
    # the psi row's charge relation reads c1 and c2 of its own node
    ab[7, 3 : n - 3 : 3] = -p.z1
    ab[6, 4 : n - 3 : 3] = -p.z2
    ab[5, :3] = ab[5, -3:] = 1.0
    A = BandedMatrix(ab, 3)
    _set_coupling_1d(A, grid, p, c1n, c2n)
    return A


def _set_coupling_1d(A: BandedMatrix, grid: ChannelGrid, p: Params, c1n, c2n) -> list[np.ndarray]:
    """Write the electro-coupling entries of the frozen concentrations into A.

    Species v's interior row 3j+v gets -z D div(c_n grad psi) on the psi
    unknowns 3(j-1)+2, 3j+2, 3(j+1)+2, at offsets 2-v-3, 2-v and 2-v+3.
    No other entry of A is touched.  Returns each species' half-node
    average, shape (ny-1,), which the step's drift reads too.
    """
    ny = grid.ny
    h2 = grid.hy ** 2
    ab, u = A.ab, A.u
    averages = []
    for v, (z, D, a) in enumerate(((p.z1, p.D1, c1n), (p.z2, p.D2, c2n))):
        ah = 0.5 * (a[0, 1:] + a[0, :-1])  # ah[j] = a at j+1/2
        # the entries of the lower and upper neighbour, -z D ah / h^2, at
        # j-1/2 and j+1/2
        side = -z * D * ah / h2
        off = 2 - v
        # A[g, g+k] is stored at ab[u-k, g+k]; for the rows g = 3j+v,
        # j = 1..ny-2, the columns g+off-3, g+off, g+off+3 are the psi
        # unknowns of nodes j-1, j, j+1
        ab[u - off + 3, 2 : 3 * ny - 6 : 3] = side[:-1]
        np.divide(z * D * (ah[:-1] + ah[1:]), h2, out=ab[u - off, 5 : 3 * ny - 3 : 3])
        ab[u - off - 3, 8 : 3 * ny : 3] = side[1:]
        averages.append(ah)
    return averages


def advance_velocity(
    grid: ChannelGrid,
    u: VelocityField,
    dt: float,
    nu: float,
    advection: list[np.ndarray],
    force: list[np.ndarray],
) -> VelocityField:
    """Explicit u/dt - advection + force, implicit viscosity, projection, no-slip walls.

    advection and force hold one field per velocity component.  Only d = 2
    has a velocity to advance: in d = 1 it is identically zero, and the
    callers keep the one they have.
    """
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
    t_new = s.t + dt
    A = _ws.coupled

    if g.d == 1:
        # each species' half-node average serves its coupling entries and
        # its drift z D div(c grad Phi_W); the right side c/dt + drift is
        # formed on the interior rows only, as the residual's wall rows
        # are zeroed below
        ah1, ah2 = _set_coupling_1d(A, g, p, s.c1, s.c2)
        h = g.hy
        x, b = _ws.x, _ws.b
        x[0::3] = s.c1[0]
        x[1::3] = s.c2[0]
        x[2::3] = s.psi[0]
        for v, (z, D, c, ah) in enumerate(((p.z1, p.D1, s.c1, ah1), (p.z2, p.D2, s.c2, ah2))):
            flux = ah * _ws.dphi / h
            np.add(c[0, 1:-1] / dt, z * D * ((flux[1:] - flux[:-1]) / h), out=b[3 + v : -3 : 3])
        r = b - A.matvec(x)
        r[:3] = 0.0
        r[-3:] = 0.0
        delta = A.solve(r)
        c1 = s.c1 + delta[0::3]
        c2 = s.c2 + delta[1::3]
    else:
        phiw = cfg.wall.phiw
        b1 = s.c1 / dt - advect(g, s.u, s.c1) + p.z1 * p.D1 * div_a_grad(g, s.c1, phiw)
        b2 = s.c2 / dt - advect(g, s.u, s.c2) + p.z2 * p.D2 * div_a_grad(g, s.c2, phiw)
        N = g.nx * g.ny
        x = np.concatenate([s.c1.ravel(), s.c2.ravel(), s.psi.ravel()])
        b = np.concatenate([b1.ravel(), b2.ravel(), np.zeros(N)])
        delta, info = A.delta(s.c1, s.c2, x, b)
        if info != 0:
            raise StepError(t_new, f"GMRES did not converge (info={info})", _extrema(s.c1, s.c2), p.eps)
        x = x + delta
        c1 = x[:N].reshape(g.shape)
        c2 = x[N : 2 * N].reshape(g.shape)

    if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
        raise StepError(t_new, "non-finite concentration after implicit solve", _extrema(s.c1, s.c2), p.eps)
    if c1.min() <= 0.0 or c2.min() <= 0.0:
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
        gpsi = grad(g, psi + cfg.wall.phiw)
        force = [-rho * df for df in gpsi]
        u = advance_velocity(g, s.u, dt, p.nu, _advect_vector(g, s.u, s.u), force)
    return State(t=t_new, c1=c1, c2=c2, u=u, psi=psi)


def _implicit_diffusion(grid: ChannelGrid, c: np.ndarray, D: float, dt: float, explicit=None) -> np.ndarray:
    """c after one implicit diffusion step with explicit source terms.

    Delta form: the increment solves (1/(dt D) - Lap) delta = Lap c +
    explicit/D with zero wall values, so wall values and exact
    equilibria are bitwise fixed points of the solve.  explicit is None
    in d = 1, which has no source: the right side is then formed on the
    interior rows the solve reads, with the bits explicit = 0.0 gives.
    """
    alpha = 1.0 / (dt * D)
    if explicit is None:
        # laplacian's x part (zero in d = 1) and the zero source both add
        # + 0.0, which turns a -0.0 into +0.0
        f = c[0]
        rhs = np.empty_like(c)
        lap = rhs[0, 1:-1]
        np.divide(f[2:] - 2.0 * f[1:-1] + f[:-2], grid.hy ** 2, out=lap)
        lap += 0.0
        return c + solve_shifted_poisson(grid, alpha, rhs)
    rhs = laplacian(grid, c) + explicit / D
    return c + solve_shifted_poisson(grid, alpha, rhs)


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


def saved_steps(n: int, save_every: int) -> list[int]:
    """The steps a march of n steps saves: 0, every save_every-th one and n."""
    return [*range(0, n, save_every), n]


def _saved_states(init: State, cfg: NpnsConfig, step, save_every: int, n: int, bounds, tol: float,
                  label: str) -> Iterator[State]:
    saved = set(saved_steps(n, save_every))
    yield init
    s = init
    for k in range(1, n + 1):
        s = step(s)
        s.t = k * cfg.dt
        report = max_principle_check(s.c1, s.c2, bounds, tol=tol)
        if not report.ok:
            logger.error("max principle violated at t=%.6g: %s", s.t, report)
            raise MaxPrincipleViolation(s.t, report, cfg.params.eps)
        if k in saved:
            yield s
    logger.info("%s complete: %d steps, %d snapshots, t_end=%.6g", label, n, len(saved), s.t)


def run_npns(init: State, cfg: NpnsConfig, save_every: int = 1) -> Iterator[State]:
    """Stream of init, every save_every-th state and the last one, marched to t_end.

    The run's workspace is built here; each step is taken as the stream
    is read.  The run aborts through MaxPrincipleViolation when a
    concentration leaves the band implied by the wall data and the
    initial state by more than the blow-up guard of 1e-4.
    """
    ws = _StepWorkspace(cfg)
    return march(init, cfg, lambda s: step_npns(s, cfg, ws), save_every, tol=1e-4, label="run")
