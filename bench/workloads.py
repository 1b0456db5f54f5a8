"""Workload definitions and the seed -> config generator.

A workload is one serial ``run_experiment`` call on a generated config
file.  Seed 0 is the shipped configuration exactly; any other seed
scales ``ic_bump`` and every wall-trace amplitude by a factor drawn
uniformly from ``SCALE_RANGE``.  The inputs repeat with period
``SEEDS``, the seeds bench/reference.json records, so every seed is
checked against a reference.  The solver only ever sees the config
text written here, never the seed (the dead ``seed`` config key is left
at its default).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# every drawn field is the seed-0 value times a factor from this range
SCALE_RANGE = (0.8, 1.2)
# distinct inputs; seed n draws the inputs of seed n % SEEDS
SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    # (section, key) -> seed-0 value; numbers and (const, amp, kind) traces
    fields: dict
    # operations per run: eps members, or dt levels plus the equilibrium run
    ops: int


def _trace(const: float, amp: float = 0.0, kind: str = "") -> tuple[float, float, str]:
    return (const, amp, kind)


WORKLOADS = {
    "rate_1d": Workload(
        name="rate_1d",
        preset="thm1_rate",
        fields={
            ("params", "ic_bump"): 0.5,
            ("boundary", "w_upper"): _trace(0.5),
        },
        ops=5,
    ),
    "energy_1d": Workload(
        name="energy_1d",
        preset="energy_identity",
        fields={
            ("params", "ic_bump"): 0.5,
            ("boundary", "w_upper"): _trace(0.5),
        },
        ops=4,
    ),
    "flow_2d": Workload(
        name="flow_2d",
        preset="custom",
        fields={
            ("params", "ic_bump"): 0.5,
            ("boundary", "gamma1_lower"): _trace(2.0, 0.5, "cos"),
            ("boundary", "gamma1_upper"): _trace(2.0),
            ("boundary", "w_lower"): _trace(0.0),
            ("boundary", "w_upper"): _trace(0.5, 0.25, "sin"),
            ("grid", "d"): 2,
            ("grid", "nx"): 32,
            ("grid", "ny"): 129,
            ("time", "dt"): 1e-3,
            ("time", "t_end"): 0.01,
            ("time", "save_every"): 2,
            ("sweep", "eps_list"): (0.25, 0.125, 0.0625),
        },
        ops=3,
    ),
}


def _is_trace(value) -> bool:
    return isinstance(value, tuple) and len(value) == 3 and isinstance(value[2], str)


def _scaled(key: tuple[str, str], value, rng: random.Random):
    """The value with its drawn part scaled, or unchanged if nothing is drawn.

    Drawn are ic_bump and the amplitude of every Fourier wall trace; a
    constant wall potential w_upper counts as its own amplitude.
    """
    lo, hi = SCALE_RANGE
    if key == ("params", "ic_bump"):
        return round(value * rng.uniform(lo, hi), 6)
    if key[0] != "boundary":
        return value
    const, amp, kind = value
    if kind:
        return (const, round(amp * rng.uniform(lo, hi), 6), kind)
    if key[1] == "w_upper":
        return (round(const * rng.uniform(lo, hi), 6), amp, kind)
    return value


def _format(value) -> str:
    if _is_trace(value):
        const, amp, kind = value
        if not kind:
            return repr(float(const))
        return f"{float(const)!r} + {float(amp)!r}*{kind}(2*pi*x)"
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return repr(value)


def input_seed(seed: int) -> int:
    """The seed in range(SEEDS) whose inputs ``seed`` reuses."""
    return seed % SEEDS


def generated_fields(workload: Workload, seed: int) -> dict:
    """The (section, key) -> value map a seed produces."""
    seed = input_seed(seed)
    if seed == 0:
        return dict(workload.fields)
    rng = random.Random(seed)
    return {key: _scaled(key, value, rng) for key, value in sorted(workload.fields.items())}


def config_text(workload: Workload, seed: int) -> str:
    """Config file text for one workload at one seed."""
    sections: dict[str, list[str]] = {"sweep": [f"preset = {workload.preset}"]}
    for (section, key), value in sorted(generated_fields(workload, seed).items()):
        sections.setdefault(section, []).append(f"{key} = {_format(value)}")
    lines = []
    for section, body in sections.items():
        lines.append(f"[{section}]")
        lines.extend(body)
        lines.append("")
    return "\n".join(lines)
