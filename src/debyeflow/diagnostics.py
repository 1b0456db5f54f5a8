"""Energy functionals, identity residuals, and rate fitting.

Everything in here is evaluated with the same quadrature and stencils
as the solvers, so discrete identities close as far as the time
discretization allows; nothing is re-derived with an independent
scheme (the tests do that instead).

The wall data is fixed for a run, so its harmonic extensions and their
gradients are built once per run (wall_fields) and every functional
that reads the wall data takes that WallFields bundle.  The solvers
compute none of this while they march: a caller that reads the energy
balance of a run builds its rows (diagnostics_record) from the run's
stream of saved States as it is marched.

free_energy and modulated_energy take one snapshot, a State whose
fields are (nx, ny), or a block of snapshots, a State whose fields
stack them along a leading time axis; they return a float for a
snapshot and one value per snapshot for a block, through the same
code.  A trajectory is evaluated block by block (snapshot_blocks), so
numpy's per-call overhead is paid once per block, not once per
snapshot, and a streamed run is held one block at a time.
dissipation_identity_residual reads the blocks once and evaluates each
block's free energy and spatial terms as it arrives; diagnostics_record
feeds it the blocks and reads the extrema, H and Theta off each block
on the way, so each block is stacked once.  Each snapshot's value in a
block is bitwise the value it has on its own.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .elliptic import harmonic_extension
from .grid import ChannelGrid, State, VelocityField
from .operators import grad, integrate
from .params import BoundaryData, Params

__all__ = [
    "WallFields",
    "wall_fields",
    "snapshot_blocks",
    "phi_entropy",
    "free_energy",
    "dissipation_identity_residual",
    "modulated_energy",
    "max_principle_check",
    "MaxPrincipleReport",
    "line_fit",
    "rate_fit",
    "diagnostics_record",
]


# A block stacks at most this many values of each field, and at least one
# snapshot: 31 snapshots at ny = 257, 4 at ny = 2048, one at 32x129.  On
# the energy_identity preset this size ran fastest: 2**10 and 2**12 left
# more per-call overhead, 2**14 doubled the minor page faults (its 128 KB
# temporaries reach the allocator's mmap threshold) and 2**16 added 5 MB
# to the peak memory.
BLOCK_ELEMENTS = 2 ** 13


def snapshot_blocks(grid: ChannelGrid, states: Iterable[State]) -> Iterator[State]:
    """The States in order, in blocks of consecutive snapshots.

    Each block is one State whose arrays stack the snapshots' along a
    leading time axis and whose t holds their times.  states may be a
    run's stream: a block's snapshots are read just before it is built
    and released once it is, so a reader that keeps no block holds one
    block's snapshots at a time.
    """
    size = max(1, BLOCK_ELEMENTS // (grid.nx * grid.ny))
    states = iter(states)
    for first in states:
        yield _stacked(grid, [first, *islice(states, size - 1)])


def _stacked(grid: ChannelGrid, chunk: list[State]) -> State:
    fields = {}
    for f in dataclasses.fields(chunk[0]):
        values = [getattr(s, f.name) for s in chunk]
        if isinstance(values[0], VelocityField):
            comps = [np.stack(c) for c in zip(*(v.components for v in values))]
            fields[f.name] = VelocityField(grid, comps)
        else:
            fields[f.name] = np.stack(values)
    return State(**fields)


def phi_entropy(s):
    """Entropy density s log s - s + 1, nonnegative, zero only at s = 1.

    Accepts scalars or arrays; rejects non-positive input because the
    callers feed concentrations whose positivity is an invariant, and a
    silent nan here would surface far from the real bug.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError(f"entropy argument must be positive, min={np.min(s)}")
    # near s = 1 the naive form cancels catastrophically; writing it in
    # x = s - 1 keeps the absolute error at the x * ulp scale
    x = s - 1.0
    out = np.where(np.abs(x) < 0.5, (1.0 + x) * np.log1p(x) - x, s * np.log(s) - s + 1.0)
    return float(out) if out.ndim == 0 else out


def _grad_sq(grid: ChannelGrid, f: np.ndarray) -> np.ndarray:
    out = np.zeros_like(f)
    for df in grad(grid, f):
        out += df * df
    return out


@dataclass(frozen=True, eq=False)
class WallFields:
    """Harmonic extensions of one run's wall data and their gradients.

    phiw, gamma1 and gamma2 extend bdata.w, bdata.gamma1 and
    bdata.gamma2; grad_phiw is grad(phiw) and grad_log_gamma1/2 are
    grad(Gamma_i) / Gamma_i, one array per direction.  Every array is
    read-only, since one bundle serves all snapshots of a run.
    """

    phiw: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    grad_phiw: tuple[np.ndarray, ...]
    grad_log_gamma1: tuple[np.ndarray, ...]
    grad_log_gamma2: tuple[np.ndarray, ...]


def wall_fields(grid: ChannelGrid, bdata: BoundaryData) -> WallFields:
    """Extend the wall data once and take the gradients the energy balance uses."""
    phiw = harmonic_extension(grid, bdata.w)
    g1 = harmonic_extension(grid, bdata.gamma1)
    g2 = harmonic_extension(grid, bdata.gamma2)
    wall = WallFields(
        phiw=phiw,
        gamma1=g1,
        gamma2=g2,
        grad_phiw=tuple(grad(grid, phiw)),
        grad_log_gamma1=tuple(dg / g1 for dg in grad(grid, g1)),
        grad_log_gamma2=tuple(dg / g2 for dg in grad(grid, g2)),
    )
    for a in (phiw, g1, g2, *wall.grad_phiw, *wall.grad_log_gamma1, *wall.grad_log_gamma2):
        a.flags.writeable = False
    return wall


def free_energy(grid: ChannelGrid, s: State, wall: WallFields, p: Params) -> float | np.ndarray:
    """Free energy: wall-relative entropy + electric field + kinetic energy.

    One float for a snapshot, one value per snapshot for a block.
    """
    if np.any(s.c1 <= 0.0) or np.any(s.c2 <= 0.0):
        raise ValueError("free energy undefined for non-positive concentrations")
    g1, g2 = wall.gamma1, wall.gamma2
    ent = integrate(grid, g1 * phi_entropy(s.c1 / g1) + g2 * phi_entropy(s.c2 / g2))
    elec = 0.5 * p.eps ** 2 * integrate(grid, _grad_sq(grid, s.psi))
    kin = 0.0
    for comp in s.u.components:
        kin += 0.5 * integrate(grid, comp * comp)
    return ent + elec + kin


def _identity_sides(grid, s: State, wall: WallFields, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatial terms of the energy balance, one value per snapshot of a block.

    Returns (dissipation, right_side, visc) where the balance reads
    dE/dt + visc + dissipation = right_side.
    """
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
        # transport against the wall-data gradients; no diffusivity factor
        rhs -= integrate(grid, c * sum(uc * a for uc, a in zip(s.u.components, glog_gam)))
    rhs -= integrate(grid, rho * sum(uc * dw for uc, dw in zip(s.u.components, wall.grad_phiw)))
    return diss, rhs, visc


def dissipation_identity_residual(
    grid: ChannelGrid, blocks: Iterable[State], wall: WallFields, p: Params
) -> tuple[np.ndarray, np.ndarray]:
    """Free energies and normalized residuals of the energy balance along a trajectory.

    blocks are the trajectory's snapshot blocks (snapshot_blocks), read
    once: each block's free energy and spatial terms are evaluated as it
    arrives.  dE/dt is then a centered difference of the free energy on
    the snapshot times (one-sided second order at the ends), and the
    mismatch is normalized by the size of the dissipation plus the right
    side so the result is a relative quantity comparable across runs.
    Returns one energy and one residual per snapshot; with fewer than
    three snapshots, too few for the difference, every residual is NaN.
    """
    times, energies, sides = [], [], []
    for blk in blocks:
        times.append(blk.t)
        energies.append(free_energy(grid, blk, wall, p))
        sides.append(_identity_sides(grid, blk, wall, p))
    E = np.concatenate(energies)
    if len(E) < 3:
        return E, np.full(len(E), math.nan)
    dEdt = np.gradient(E, np.concatenate(times), edge_order=2)
    diss, rhs, visc = (np.concatenate(side) for side in zip(*sides))
    num = dEdt + visc + diss - rhs
    den = np.maximum(np.abs(visc) + diss + np.abs(rhs), 1e-14)
    return E, num / den


def modulated_energy(grid: ChannelGrid, s: State, lim: State, p: Params) -> dict[str, float | np.ndarray]:
    """Relative energy H and dissipation distance Theta of s against the limit state lim.

    For a block of snapshots lim is a block of the same length, and H
    and Theta hold one value per snapshot.
    """
    c1_lim, c2_lim, u_lim = lim.c1, lim.c2, lim.u
    for c in (s.c1, s.c2):
        if np.any(c <= 0.0):
            raise ValueError("modulated energy undefined for non-positive concentrations")
    if np.any(c1_lim <= 0.0) or np.any(c2_lim <= 0.0):
        raise ValueError("limit concentration must be positive")

    H = integrate(grid, c1_lim * phi_entropy(s.c1 / c1_lim) + c2_lim * phi_entropy(s.c2 / c2_lim))
    H += 0.5 * p.eps ** 2 * integrate(grid, _grad_sq(grid, s.psi))
    for comp, comp_lim in zip(s.u.components, u_lim.components):
        H += 0.5 * integrate(grid, (comp - comp_lim) ** 2)

    theta = 0.0
    dpsi = grad(grid, s.psi)
    dpsil = grad(grid, lim.psi)
    for c, c_lim, D, z in ((s.c1, c1_lim, p.D1, p.z1), (s.c2, c2_lim, p.D2, p.z2)):
        dc = grad(grid, c)
        dcl = grad(grid, c_lim)
        theta += D * integrate(grid, sum((a - b) ** 2 for a, b in zip(dc, dcl)) / c)
        theta += z ** 2 * D * integrate(grid, c * sum((a - b) ** 2 for a, b in zip(dpsi, dpsil)))
    theta += p.D_star * integrate(grid, (s.rho(p) / p.eps) ** 2)
    for comp, comp_lim in zip(s.u.components, u_lim.components):
        theta += p.nu * integrate(grid, _grad_sq(grid, comp - comp_lim))
    return {"H": H, "Theta": theta}


@dataclass
class MaxPrincipleReport:
    ok: bool
    min_c1: float
    max_c1: float
    min_c2: float
    max_c2: float
    worst_violation: float
    worst_species: int | None
    worst_index: tuple[int, int] | None


def max_principle_check(
    c1: np.ndarray,
    c2: np.ndarray,
    bounds: tuple[float, float, float, float],
    tol: float,
) -> MaxPrincipleReport:
    """Check lambda_i - tol <= c_i <= Lambda_i + tol.

    bounds = (lambda1, Lambda1, lambda2, Lambda2).  On failure the
    report carries the worst offending node so run logs are actionable.
    The extrema decide whether any node is out of band; only then, or
    when one of them is NaN, are the nodes searched.  A NaN node is in
    no band: it is the worst violation (inf), and the first one, species
    1 before species 2, is reported.
    """
    lo1, hi1, lo2, hi2 = bounds
    mn1, mx1, mn2, mx2 = float(c1.min()), float(c1.max()), float(c2.min()), float(c2.max())
    if mn1 >= lo1 - tol and mx1 <= hi1 + tol and mn2 >= lo2 - tol and mx2 <= hi2 + tol:
        return MaxPrincipleReport(True, mn1, mx1, mn2, mx2, 0.0, None, None)
    for i, c in enumerate((c1, c2), start=1):
        nan = np.isnan(c)
        if nan.any():
            index = tuple(int(j) for j in np.unravel_index(np.argmax(nan), c.shape))
            return MaxPrincipleReport(False, mn1, mx1, mn2, mx2, math.inf, i, index)
    worst = 0.0
    species = None
    index = None
    for i, (c, lo, hi) in enumerate(((c1, lo1, hi1), (c2, lo2, hi2)), start=1):
        under = (lo - tol) - c
        over = c - (hi + tol)
        viol = np.maximum(under, over)
        v = float(np.max(viol))
        if v > worst:
            worst = v
            species = i
            index = tuple(int(j) for j in np.unravel_index(np.argmax(viol), c.shape))
    return MaxPrincipleReport(worst <= 0.0, mn1, mx1, mn2, mx2, worst, species, index)


def rate_fit(pairs) -> dict[str, float]:
    """Least-squares slope of log(error) against log(eps).

    Needs at least three strictly positive pairs; returns slope,
    intercept (natural log), and r^2 of the fit.
    """
    pairs = [(float(e), float(err)) for e, err in pairs]
    if len(pairs) < 3:
        raise ValueError(f"rate fit needs at least 3 points, got {len(pairs)}")
    if any(e <= 0.0 or err <= 0.0 for e, err in pairs):
        raise ValueError("rate fit requires positive eps and error values")
    return line_fit(np.log([e for e, _ in pairs]), np.log([err for _, err in pairs]))


def line_fit(x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Least-squares line y = slope x + intercept and the r^2 of the fit.

    With constant y, r^2 is 1 for an exact fit and 0 otherwise.
    """
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-28 else 0.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def diagnostics_record(
    grid: ChannelGrid, snapshots: Iterable[State], wall: WallFields, p: Params,
    limit: Iterable[State] | None = None,
) -> list[dict[str, float]]:
    """One diag.csv row per snapshot: t, E, the species extrema, the
    energy residual and, against the limit run's states limit, H and Theta.

    snapshots and limit are read once, in lockstep, block by block
    (snapshot_blocks).  The blocks go through
    dissipation_identity_residual, which gives E and the residual; the
    extrema, H and Theta are read off each block on its way there.  With
    fewer than three snapshots the residual is NaN.
    """
    rows = []
    limit_blocks = None if limit is None else snapshot_blocks(grid, limit)

    def recorded(blocks):
        for blk in blocks:
            mn1, mx1, mn2, mx2 = (f(c, axis=(-2, -1)).tolist()
                                  for c in (blk.c1, blk.c2) for f in (np.min, np.max))
            cols = {"min_c1": mn1, "max_c1": mx1, "min_c2": mn2, "max_c2": mx2}
            if limit_blocks is not None:
                lim = next(limit_blocks, None)
                if lim is None:
                    raise ValueError("the limit run has fewer states than the snapshots")
                me = modulated_energy(grid, blk, lim, p)
                cols.update(H=me["H"].tolist(), Theta=me["Theta"].tolist())
            for k, t in enumerate(blk.t.tolist()):
                rows.append({"t": t, **{name: v[k] for name, v in cols.items()}})
            yield blk

    E, residual = dissipation_identity_residual(grid, recorded(snapshot_blocks(grid, snapshots)), wall, p)
    # runs the limit stream to its end, so a longer one shows
    if limit_blocks is not None and next(limit_blocks, None) is not None:
        raise ValueError("the limit run has more states than the snapshots")
    for row, e, r in zip(rows, E.tolist(), residual.tolist()):
        row["E"] = e
        row["dissipation_residual"] = r
    return rows
