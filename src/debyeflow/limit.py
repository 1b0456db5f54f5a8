"""Quasi-neutral limit solver.

The neutral concentration is marched with the ambipolar diffusivity,
the potential is recovered from its variable-coefficient elliptic
problem for every saved state, and the velocity sees no electric
force.  The second species is not marched: every state sets
c2 = -(z1/z2) c1 from the charge constraint, so its charge is zero
bitwise and the constraint cannot drift.  This limit run is the order-zero inner term of the
composite approximation (layers.composite); no higher inner order is
computed.

A limit run reads the finite-eps run config npns.NpnsConfig, is
marched by npns.march with the same diffusion and velocity steps, and
is a stream of the saved grid.States, as run_npns is.  Nothing in the
march reads psi, so the march carries none, and the stream solves it
only for the states it yields.

A d = 1 limit run needs no workspace beyond the cached factors of its
solves.  Its step and its psi solve form their right sides on the
interior rows only, the rows the tridiagonal solves read: the step's
laplacian without the d2dx2 field that is zero in d = 1, psi's two
div_a_grad terms without their zero wall rows.  Each entry keeps the
floating-point operations of the full-size form, so the bytes are the
same (tests/oracles.py keeps that form).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from .elliptic import solve_div_form
from .grid import ChannelGrid, State, VelocityField
from .npns import (
    NpnsConfig,
    StepError,
    _advect_vector,
    _extrema,
    _implicit_diffusion,
    _initial_fields,
    advance_velocity,
    march,
)
from .operators import advect, div_a_grad
from .params import Params

__all__ = [
    "effective_diffusivity",
    "solve_limit_psi",
    "step_limit",
    "run_limit",
]


def effective_diffusivity(p: Params) -> float:
    """Ambipolar diffusivity (z1-z2) D1 D2 / (z1 D1 - z2 D2).

    Always lies between D2 and D1; the denominator is positive because
    the valences have opposite signs.
    """
    return (p.z1 - p.z2) * p.D1 * p.D2 / (p.z1 * p.D1 - p.z2 * p.D2)


def solve_limit_psi(grid: ChannelGrid, c1: np.ndarray, p: Params, phiw: np.ndarray) -> np.ndarray:
    """Potential of the limit system from its divergence-form equation.

    Solves div((D1-D2) grad c1 + (z1 D1 - z2 D2) c1 (grad psi + grad
    Phi_W)) = 0 with zero trace.  The right-hand side is assembled with
    the same conservative stencils the direct solve inverts, so the
    discrete residual of this form is at the solver-roundoff level.
    """
    c1 = np.asarray(c1, dtype=float)
    cmin = float(c1.min())
    if cmin <= 0.0:
        raise ValueError(f"ellipticity lost: min c1 = {cmin} <= 0")
    a = (p.z1 * p.D1 - p.z2 * p.D2) * c1
    if grid.d == 1:
        # the two div_a_grad terms on the interior rows, the only ones
        # solve_div_form reads; the flux of a = 1 is the difference / h,
        # since 1.0 * x is x
        h = grid.hy
        f = c1[0]
        flux = (f[1:] - f[:-1]) / h
        flux_w = 0.5 * (a[0, 1:] + a[0, :-1]) * (phiw[0, 1:] - phiw[0, :-1]) / h
        rhs = np.empty_like(c1)
        np.subtract(-(p.D1 - p.D2) * ((flux[1:] - flux[:-1]) / h), (flux_w[1:] - flux_w[:-1]) / h,
                    out=rhs[0, 1:-1])
        return solve_div_form(grid, a, rhs)
    ones = np.ones(grid.shape)
    rhs = -(p.D1 - p.D2) * div_a_grad(grid, ones, c1) - div_a_grad(grid, a, phiw)
    return solve_div_form(grid, a, rhs)


def initial_limit_state(grid: ChannelGrid, c1_0: np.ndarray, u_0: VelocityField,
                        cfg: NpnsConfig) -> State:
    """Validated zero-charge initial state with the potential already solved."""
    p = cfg.params
    c1_0, u = _initial_fields(grid, c1_0, u_0, cfg.bdata)
    return State(t=0.0, c1=c1_0, c2=-(p.z1 / p.z2) * c1_0, u=u,
                 psi=solve_limit_psi(grid, c1_0, p, cfg.wall.phiw))


def step_limit(s: State, cfg: NpnsConfig) -> State:
    """One step: explicit advection, implicit ambipolar diffusion.

    The velocity uses the same scheme as the full solver minus the
    electric force.  psi is a diagnostic and does not feed back into the
    concentration: it is solved from the elliptic problem when s carries
    one, and left None when s has none, which is how run_limit marches
    the steps it does not save.  As in step_npns, a non-finite or
    non-positive concentration raises StepError before that solve.
    """
    g, p = cfg.grid, cfg.params
    t_new = s.t + cfg.dt
    explicit = -advect(g, s.u, s.c1) if g.d == 2 else None
    c1 = _implicit_diffusion(g, s.c1, effective_diffusivity(p), cfg.dt, explicit)
    if not np.isfinite(c1).all():
        raise StepError(t_new, "non-finite concentration after implicit solve", _extrema(s.c1, s.c2), p.eps)
    if c1.min() <= 0.0:
        raise StepError(t_new, "concentration lost positivity", _extrema(c1, -(p.z1 / p.z2) * c1), p.eps)
    c1[:, 0] = cfg.bdata.gamma1[0]
    c1[:, -1] = cfg.bdata.gamma1[1]
    if g.d == 1:
        u = s.u
    else:
        zero_force = [np.zeros(g.shape)] * g.d
        u = advance_velocity(g, s.u, cfg.dt, p.nu, _advect_vector(g, s.u, s.u), zero_force)
    psi = None if s.psi is None else solve_limit_psi(g, c1, p, cfg.wall.phiw)
    return State(t=t_new, c1=c1, c2=-(p.z1 / p.z2) * c1, u=u, psi=psi)


def run_limit(init: State, cfg: NpnsConfig, save_every: int = 1) -> Iterator[State]:
    """Stream of the limit run's saved states, as run_npns saves them, enforcing the maximum principle.

    The march steps states without psi; psi is solved only for the
    states the stream yields, with the values step_limit would give.
    """
    # scheme slack: implicit diffusion will not overshoot by more than
    # one step's worth of change plus spatial truncation
    hi1 = max(float(np.max(cfg.bdata.gamma1)), float(np.max(init.c1)))
    tol = 1e-6 + hi1 * (cfg.dt + cfg.grid.hy ** 2)
    states = march(replace(init, psi=None), cfg, lambda s: step_limit(s, cfg), save_every, tol,
                   label="limit run")
    return _with_psi(states, init, cfg)


def _with_psi(states: Iterator[State], init: State, cfg: NpnsConfig) -> Iterator[State]:
    """The marched states with their psi solved; init, which has one, replaces the march's copy.

    Each yielded State is a new one on the march's arrays: the march
    keeps stepping its own psi-less state.
    """
    next(states)
    yield init
    for s in states:
        yield replace(s, psi=solve_limit_psi(cfg.grid, s.c1, cfg.params, cfg.wall.phiw))
