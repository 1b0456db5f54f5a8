"""Quasi-neutral limit solver and the inner expansion hierarchy.

The neutral concentration is marched with the ambipolar diffusivity,
the potential is recovered from its variable-coefficient elliptic
problem each step, and the velocity sees no electric force.  Orders 1
and 2 of the inner expansion reuse the same transport machinery with
source terms built from the lower orders; at every order the second
species is represented through the charge constraint instead of being
marched, so the constraint cannot drift.

A limit run reads the finite-eps run config npns.NpnsConfig and is
marched by npns.march, with the same diffusion and velocity steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .elliptic import solve_div_form
from .grid import ChannelGrid, VelocityField
from .npns import (
    NpnsConfig,
    StepError,
    Trajectory,
    _advect_vector,
    _extrema,
    _implicit_diffusion,
    _initial_fields,
    advance_velocity,
    march,
)
from .operators import advect, div_a_grad, grad, laplacian, norm_linf
from .params import BoundaryData, Params

logger = logging.getLogger(__name__)

__all__ = [
    "LimitState",
    "InnerExpansion",
    "effective_diffusivity",
    "solve_limit_psi",
    "limit_psi_residuals",
    "step_limit",
    "run_limit",
    "solve_inner_hierarchy",
]


def effective_diffusivity(p: Params) -> float:
    """Ambipolar diffusivity (z1-z2) D1 D2 / (z1 D1 - z2 D2).

    Always lies between D2 and D1; the denominator is positive because
    the valences have opposite signs.
    """
    return (p.z1 - p.z2) * p.D1 * p.D2 / (p.z1 * p.D1 - p.z2 * p.D2)


@dataclass
class LimitState:
    """Neutral state: c2 is implied by the constraint, never stored."""

    t: float
    c1: np.ndarray
    u: VelocityField
    psi: np.ndarray

    def c2(self, params: Params) -> np.ndarray:
        return -(params.z1 / params.z2) * self.c1

    def copy(self) -> "LimitState":
        return LimitState(
            t=self.t,
            c1=self.c1.copy(),
            u=self.u.copy(),
            psi=self.psi.copy(),
        )


def solve_limit_psi(grid: ChannelGrid, c1: np.ndarray, p: Params, phiw: np.ndarray) -> np.ndarray:
    """Potential of the limit system from its divergence-form equation.

    Solves div((D1-D2) grad c1 + (z1 D1 - z2 D2) c1 (grad psi + grad
    Phi_W)) = 0 with zero trace.  The right-hand side is assembled with
    the same conservative stencils the direct solve inverts, so the
    discrete residual of this form is at the solver-roundoff level.
    """
    c1 = np.asarray(c1, dtype=float)
    cmin = float(np.min(c1))
    if cmin <= 0.0:
        raise ValueError(f"ellipticity lost: min c1 = {cmin} <= 0")
    a = (p.z1 * p.D1 - p.z2 * p.D2) * c1
    ones = np.ones(grid.shape)
    rhs = -(p.D1 - p.D2) * div_a_grad(grid, ones, c1) - div_a_grad(grid, a, phiw)
    return solve_div_form(grid, a, rhs, bc=None)


def limit_psi_residuals(grid: ChannelGrid, c1: np.ndarray, psi: np.ndarray,
                        p: Params, phiw: np.ndarray) -> dict:
    """Discrete residuals of both divergence forms of the psi equation.

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


def initial_limit_state(grid: ChannelGrid, c1_0: np.ndarray, u_0: VelocityField,
                        cfg: NpnsConfig) -> LimitState:
    """Validated initial state with the potential already solved."""
    c1_0, u = _initial_fields(grid, c1_0, u_0, cfg.bdata)
    return LimitState(t=0.0, c1=c1_0, u=u, psi=solve_limit_psi(grid, c1_0, cfg.params, cfg.wall.phiw))


def step_limit(s: LimitState, cfg: NpnsConfig) -> LimitState:
    """One step: explicit advection, implicit ambipolar diffusion.

    The velocity uses the same scheme as the full solver minus the
    electric force.  psi is recomputed from the elliptic problem; it is
    a diagnostic and does not feed back into the concentration.  As in
    step_npns, a non-finite or non-positive concentration raises
    StepError before that solve.
    """
    g, p = cfg.grid, cfg.params
    t_new = s.t + cfg.dt
    explicit = -advect(g, s.u, s.c1) if g.d == 2 else 0.0
    c1 = _implicit_diffusion(g, s.c1, effective_diffusivity(p), cfg.dt, explicit)
    if not np.all(np.isfinite(c1)):
        raise StepError(t_new, "non-finite concentration after implicit solve", _extrema(s.c1, s.c2(p)), p.eps)
    if np.min(c1) <= 0.0:
        raise StepError(t_new, "concentration lost positivity", _extrema(c1, -(p.z1 / p.z2) * c1), p.eps)
    c1[:, 0] = cfg.bdata.gamma1[0]
    c1[:, -1] = cfg.bdata.gamma1[1]
    if g.d == 1:
        u = VelocityField.zero(g)
    else:
        zero_force = [np.zeros(g.shape)] * g.d
        u = advance_velocity(g, s.u, cfg.dt, p.nu, _advect_vector(g, s.u, s.u), zero_force)
    psi = solve_limit_psi(g, c1, p, cfg.wall.phiw)
    return LimitState(t=t_new, c1=c1, u=u, psi=psi)


def run_limit(init: LimitState, cfg: NpnsConfig, save_every: int = 1) -> Trajectory:
    """March the limit system, saving as run_npns does and enforcing the maximum principle."""
    p = cfg.params
    # scheme slack: implicit diffusion will not overshoot by more than
    # one step's worth of change plus spatial truncation
    hi1 = max(float(np.max(cfg.bdata.gamma1)), float(np.max(init.c1)))
    tol = 1e-6 + hi1 * (cfg.dt + cfg.grid.hy ** 2)
    traj = Trajectory()
    s = march(init, cfg, lambda s: step_limit(s, cfg), lambda s: traj.snapshots.append(s.copy()),
              save_every, tol, species=lambda s: (s.c1, s.c2(p)))
    logger.info("limit run: %d steps to t=%g, %d snapshots", cfg.n_steps, s.t, len(traj))
    return traj


@dataclass
class InnerExpansion:
    """Per-order inner terms, one snapshot per time step.

    phi[0] is the full zeroth-order potential (limit psi plus the wall
    extension); higher orders hold the corrections with their own
    boundary data.  c2 entries are reconstructed from the charge
    constraint of each order.
    """

    grid: ChannelGrid
    params: Params
    bdata: BoundaryData
    phiw: np.ndarray
    times: list[float] = field(default_factory=list)
    c1: dict = field(default_factory=dict)
    c2: dict = field(default_factory=dict)
    u: dict = field(default_factory=dict)
    phi: dict = field(default_factory=dict)

    @property
    def orders(self) -> list[int]:
        return sorted(self.c1.keys())


def _hierarchy_coefficient(grid: ChannelGrid, p: Params, c1_0: np.ndarray) -> np.ndarray:
    # sum_i z_i^2 D_i c_i^(0) with the second species eliminated
    return (p.z1 ** 2 * p.D1 - p.z1 * p.z2 * p.D2) * c1_0


def _solve_order0(cfg: NpnsConfig, c1_0, u_0) -> InnerExpansion:
    g, p = cfg.grid, cfg.params
    if u_0 is None:
        u_0 = VelocityField.zero(g)
    snaps = run_limit(initial_limit_state(g, c1_0, u_0, cfg), cfg, save_every=1).snapshots
    phiw = cfg.wall.phiw
    return InnerExpansion(
        grid=g, params=p, bdata=cfg.bdata, phiw=phiw, times=[s.t for s in snaps],
        c1={0: [s.c1 for s in snaps]}, c2={0: [s.c2(p) for s in snaps]},
        u={0: [s.u for s in snaps]}, phi={0: [s.psi + phiw for s in snaps]},
    )


def _solve_order1(cfg: NpnsConfig, exp: InnerExpansion) -> InnerExpansion:
    g, p = cfg.grid, cfg.params
    deff = effective_diffusivity(p)
    zr = -p.z1 / p.z2
    n = cfg.n_steps

    c1k = np.zeros(g.shape)
    uk = VelocityField.zero(g)
    exp.c1[1] = [c1k.copy()]
    exp.c2[1] = [zr * c1k]
    exp.u[1] = [uk.copy()]
    exp.phi[1] = [_order1_potential(g, p, exp, c1k, 0)]
    for k in range(1, n + 1):
        u0 = exp.u[0][k - 1]
        c10 = exp.c1[0][k - 1]
        explicit = -advect(g, u0, c1k) - advect(g, uk, c10)
        c1k = _implicit_diffusion(g, c1k, deff, cfg.dt, explicit)
        c1k[:, 0] = 0.0
        c1k[:, -1] = 0.0
        adv = [a + b for a, b in zip(_advect_vector(g, uk, u0), _advect_vector(g, u0, uk))]
        uk = advance_velocity(g, uk, cfg.dt, p.nu, adv, [np.zeros(g.shape)] * g.d)
        exp.c1[1].append(c1k.copy())
        exp.c2[1].append(zr * c1k)
        exp.u[1].append(uk.copy())
        exp.phi[1].append(_order1_potential(g, p, exp, c1k, k))
    return exp


def _order1_potential(g, p, exp, c1k, k):
    # div(a0 grad Phi1) = -div(sum z_i D_i grad c_i^(1) + (sum z_i^2 D_i c_i^(1)) grad Phi0)
    ones = np.ones(g.shape)
    c2k = -(p.z1 / p.z2) * c1k
    a1 = p.z1 ** 2 * p.D1 * c1k + p.z2 ** 2 * p.D2 * c2k
    rhs = -(p.z1 * p.D1 * div_a_grad(g, ones, c1k)
            + p.z2 * p.D2 * div_a_grad(g, ones, c2k)
            + div_a_grad(g, a1, exp.phi[0][k]))
    a0 = _hierarchy_coefficient(g, p, exp.c1[0][k])
    return solve_div_form(g, a0, rhs, bc=None)


def _solve_order2(cfg: NpnsConfig, exp: InnerExpansion) -> InnerExpansion:
    g, p = cfg.grid, cfg.params
    deff = effective_diffusivity(p)
    denom = p.z1 * p.D1 - p.z2 * p.D2
    n = cfg.n_steps
    dt = cfg.dt

    lap_phi0 = [laplacian(g, f) for f in exp.phi[0]]

    def wall_traces(k):
        # concentration and potential wall values from the layer profiles
        aL, aR = lap_phi0[k][:, 0], lap_phi0[k][:, -1]
        cw = np.stack([-aL / (p.z1 - p.z2), -aR / (p.z1 - p.z2)])
        g1L, g1R = cfg.bdata.gamma1[0], cfg.bdata.gamma1[1]
        pw = np.stack([
            aL / (p.z1 * (p.z1 - p.z2) * g1L),
            aR / (p.z1 * (p.z1 - p.z2) * g1R),
        ])
        return cw, pw

    c1k = np.zeros(g.shape)
    # generic initial data is incompatible with the layer trace at t=0;
    # the marched boundary values take over from the first step
    uk = VelocityField.zero(g)
    c2k = (-lap_phi0[0] - p.z1 * c1k) / p.z2
    _, pw0 = wall_traces(0)
    exp.c1[2] = [c1k.copy()]
    exp.c2[2] = [c2k.copy()]
    exp.u[2] = [uk.copy()]
    exp.phi[2] = [_order2_potential(g, p, exp, lap_phi0, c1k, c2k, pw0, 0, dt)]

    for k in range(1, n + 1):
        u0, u1 = exp.u[0][k - 1], exp.u[1][k - 1]
        c10, c11 = exp.c1[0][k - 1], exp.c1[1][k - 1]
        phi0 = exp.phi[0][k - 1]
        lap_n, lap_np1 = lap_phi0[k - 1], lap_phi0[k]
        transported = (lap_np1 - lap_n) / dt + advect(g, u0, lap_n)
        source1 = (-p.D1 / denom * transported
                   + p.D1 * p.D2 / denom * laplacian(g, lap_n)
                   + p.z2 * p.D1 * p.D2 / denom * div_a_grad(g, lap_n, phi0))
        explicit = -advect(g, u0, c1k) - advect(g, u1, c11) - advect(g, uk, c10) + source1

        cw_new, pw_new = wall_traces(k)
        cw_now = np.stack([c1k[:, 0], c1k[:, -1]])
        c1k = _implicit_diffusion(g, c1k, deff, dt, explicit, bc_delta=cw_new - cw_now)
        c1k[:, 0] = cw_new[0]
        c1k[:, -1] = cw_new[1]
        c2k = (-lap_np1 - p.z1 * c1k) / p.z2

        force = [lap_n * df for df in grad(g, phi0)]
        adv = [a + b + c for a, b, c in zip(
            _advect_vector(g, uk, exp.u[0][k - 1]),
            _advect_vector(g, u1, u1),
            _advect_vector(g, u0, uk),
        )]
        uk = advance_velocity(g, uk, dt, p.nu, adv, force)

        exp.c1[2].append(c1k.copy())
        exp.c2[2].append(c2k.copy())
        exp.u[2].append(uk.copy())
        exp.phi[2].append(_order2_potential(g, p, exp, lap_phi0, c1k, c2k, pw_new, k, dt))
    return exp


def _order2_potential(g, p, exp, lap_phi0, c1k, c2k, pw, k, dt):
    ones = np.ones(g.shape)
    if k == 0:
        transported = np.zeros(g.shape)
    else:
        transported = ((lap_phi0[k] - lap_phi0[k - 1]) / dt
                       + advect(g, exp.u[0][k], lap_phi0[k]))
    a2 = p.z1 ** 2 * p.D1 * c1k + p.z2 ** 2 * p.D2 * c2k
    c11, c21 = exp.c1[1][k], exp.c2[1][k]
    a1 = p.z1 ** 2 * p.D1 * c11 + p.z2 ** 2 * p.D2 * c21
    rhs = (-transported
           - p.z1 * p.D1 * div_a_grad(g, ones, c1k)
           - p.z2 * p.D2 * div_a_grad(g, ones, c2k)
           - div_a_grad(g, a2, exp.phi[0][k])
           - div_a_grad(g, a1, exp.phi[1][k]))
    a0 = _hierarchy_coefficient(g, p, exp.c1[0][k])
    return solve_div_form(g, a0, rhs, bc=pw)


def solve_inner_hierarchy(order: int, base: InnerExpansion | None, cfg: NpnsConfig,
                          c1_0: np.ndarray | None = None,
                          u_0: VelocityField | None = None) -> InnerExpansion:
    """Compute inner terms at the given order on top of the lower ones.

    Order 0 is the limit march itself and needs initial data.  Orders 1
    and 2 start from zero (well-prepared data) and consume the base
    trajectory, which must contain every preceding order stored at
    every time step of the configuration.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"hierarchy order must be 0, 1 or 2, got {order}")
    if order == 0:
        if c1_0 is None:
            raise ValueError("order 0 needs initial concentration data")
        return _solve_order0(cfg, c1_0, u_0)
    if base is None or (order - 1) not in base.c1:
        raise ValueError(f"order {order} requested but order {order - 1} is missing from the base")
    if len(base.times) != cfg.n_steps + 1:
        raise ValueError("base trajectory was not stored at every step of this configuration")
    if order == 1:
        return _solve_order1(cfg, base)
    return _solve_order2(cfg, base)
