"""The shared time loop: both stacks save the same times and reject the same input."""

import numpy as np
import pytest

from debyeflow import BoundaryData, ChannelGrid, Params, State, VelocityField
from debyeflow.limit import initial_limit_state, run_limit
from debyeflow.npns import NpnsConfig, run_npns, well_prepared_init


def make_run(t_end, dt=1e-3):
    p = Params(z1=1.0, z2=-1.0, D1=2.0, D2=1.0, nu=1.0, eps=0.25)
    g = ChannelGrid(d=1, nx=1, ny=33)
    bdata = BoundaryData.electroneutral(np.array([[2.0], [2.0]]), w=np.array([[0.0], [0.5]]), params=p)
    cfg = NpnsConfig(params=p, bdata=bdata, grid=g, dt=dt, t_end=t_end)
    c1 = 2.0 + 0.5 * np.sin(np.pi * g.yy)
    return cfg, c1


def start_npns(cfg, c1):
    return run_npns, well_prepared_init(cfg.grid, c1, VelocityField.zero(cfg.grid), cfg)


def start_limit(cfg, c1):
    return run_limit, initial_limit_state(cfg.grid, c1, VelocityField.zero(cfg.grid), cfg)


@pytest.mark.parametrize("start", [start_npns, start_limit], ids=["npns", "limit"])
@pytest.mark.parametrize("save_every", [0, -1])
def test_save_every_below_one_is_rejected(start, save_every):
    cfg, c1 = make_run(4e-3)
    run, init = start(cfg, c1)
    with pytest.raises(ValueError, match="save_every"):
        run(init, cfg, save_every=save_every)


@pytest.mark.parametrize(
    "t_end, save_every, saved_steps",
    [(4e-3, 1, [0, 1, 2, 3, 4]), (1.2e-2, 2, [0, 2, 4, 6, 8, 10, 12]), (1e-2, 3, [0, 3, 6, 9, 10])],
)
def test_both_stacks_save_the_same_times(t_end, save_every, saved_steps):
    # the final step is saved even when it is not a multiple of save_every;
    # both runs are plain lists of States, and every limit State carries the
    # zero-charge c2 = -(z1/z2) c1
    cfg, c1 = make_run(t_end)
    p = cfg.params
    runs = []
    for start in (start_npns, start_limit):
        run, init = start(cfg, c1)
        runs.append(list(run(init, cfg, save_every=save_every)))
    want = np.array([k * cfg.dt for k in saved_steps])
    for name, saved in zip(("finite-eps", "limit"), runs):
        assert type(saved) is list and all(type(s) is State for s in saved), name
        times = np.array([s.t for s in saved])
        assert times.tobytes() == want.tobytes(), f"{name} times {times}"
    for s in runs[1]:
        assert s.c2.tobytes() == (-(p.z1 / p.z2) * s.c1).tobytes(), f"limit c2 at t={s.t}"
