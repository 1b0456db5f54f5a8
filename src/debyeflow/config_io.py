"""Experiment configuration: file format, presets, checks, hashing.

An ``ExperimentConfig`` checks itself when it is built, so an invalid
one never exists.  The on-disk format is plain ``key = value`` lines
under ``[section]`` headers.  Every key is the ``ExperimentConfig`` field
of that name, and the type of the field's default fixes how its value
is read and written.  Parsing is strict: unknown sections or keys are
errors, and a malformed value reports the key, the line number, and the
expected type.  Serialization emits every field in a fixed order so
that the canonical text (and hence the config hash) is reproducible.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .grid import ChannelGrid
from .params import BoundaryData, Params

logger = logging.getLogger(__name__)

# preset -> the fields it sets over the ExperimentConfig defaults; the
# order is the CLI's and the artifact digests'
_PRESETS: dict[str, dict] = {
    "thm1_rate": dict(
        ny=2048, dt=5e-4, t_end=0.1, save_every=4,
        gamma1_lower="2.0", gamma1_upper="2.0", w_lower="0.0", w_upper="0.5",
        ic_bump=0.5, ic_eps_amp=0.25,
        eps_list=(0.125, 0.0625, 0.03125, 0.015625, 0.0078125),
    ),
    "thm51_rate": dict(
        ny=0, dt=5e-4, t_end=0.05, save_every=2,
        gamma1_lower="2.0", gamma1_upper="4.0", w_lower="0.0", w_upper="0.5",
        ic_bump=0.0, ic_eps_amp=0.0,
        eps_list=(0.125, 0.0625, 0.03125, 0.015625),
    ),
    "energy_identity": dict(
        ny=257, dt=1e-3, t_end=0.2, save_every=1, eps=0.125,
        gamma1_lower="2.0", gamma1_upper="2.0", w_lower="0.0", w_upper="0.5",
        ic_bump=0.5, ic_eps_amp=0.0, eps_list=(0.125,),
    ),
    "layer_profile": dict(
        ny=0, dt=5e-4, t_end=0.02, save_every=8,
        gamma1_lower="2.0", gamma1_upper="4.0", w_lower="0.0", w_upper="0.5",
        ic_bump=0.0, ic_eps_amp=0.0,
        eps_list=(0.0625, 0.03125, 0.015625),
    ),
    "initial_layer_decay": dict(
        ny=257, dt=0.0025, t_end=4.0, save_every=4, eps=0.125,
        gamma1_lower="2.0", gamma1_upper="2.0", w_lower="0.0", w_upper="0.0",
        ic_bump=0.5, rho0_amp=1.0, eps_list=(0.125,),
    ),
    "custom": {},
}
PRESET_NAMES = tuple(_PRESETS)

# presets whose grids must resolve the O(eps) wall layer
LAYER_PRESETS = ("thm51_rate", "layer_profile")

# presets that sweep eps and write sweep.csv / report.json
RATE_PRESETS = ("thm1_rate", "thm51_rate", "custom")

# presets a config holds to one eps, cfg.eps, with eps_list = (eps,); --eps sets both
SINGLE_EPS_PRESETS = ("energy_identity", "initial_layer_decay")


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent experiment configs."""


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TRACE_RE = re.compile(
    rf"^\s*({_NUM})\s*(?:\+\s*({_NUM})\s*\*\s*(cos|sin)\s*\(\s*(\d+)\s*\*\s*pi\s*\*\s*x\s*\)\s*)?$"
)


def parse_trace(text: str) -> tuple[float, float, str, int]:
    """Parse a wall-trace expression into (const, amplitude, kind, mode).

    Accepted forms are a bare constant like ``2.0`` or a single low
    Fourier mode like ``2.0 + 0.5*cos(2*pi*x)``.  The mode multiplier
    must be even so the trace is periodic on the unit torus.
    """
    m = _TRACE_RE.match(text)
    if m is None:
        raise ConfigError(
            f"expected a constant or 'C + A*cos(k*pi*x)' trace, got {text!r}"
        )
    const = float(m.group(1))
    if m.group(2) is None:
        return const, 0.0, "", 0
    amp = float(m.group(2))
    kind = m.group(3)
    mode = int(m.group(4))
    if mode % 2 != 0:
        raise ConfigError(
            f"trace mode {mode} is odd; only even multiples of pi are periodic on the torus"
        )
    return const, amp, kind, mode


def format_trace(spec: tuple[float, float, str, int]) -> str:
    const, amp, kind, mode = spec
    if kind == "":
        return repr(float(const))
    return f"{float(const)!r} + {float(amp)!r}*{kind}({int(mode)}*pi*x)"


def evaluate_trace(text: str, x: np.ndarray) -> np.ndarray:
    """Evaluate a trace expression on the periodic x nodes."""
    const, amp, kind, mode = parse_trace(text)
    if kind == "" or amp == 0.0:
        return np.full_like(np.asarray(x, dtype=float), const)
    fn = np.cos if kind == "cos" else np.sin
    return const + amp * fn(mode * math.pi * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, picklable description of one experiment.

    Everything a run needs is in here: physical parameters, wall data
    as trace expressions, grid and time discretization, the eps sweep,
    and output plumbing.  The run at one eps, a member, gets its ny and
    dt from resolve and its inputs from member: the limit initial
    concentration is the linear interpolant of the wall values plus
    ``ic_bump * sin(pi y)``, and the finite-eps run starts from that plus
    ``ic_eps_amp * eps * sin(pi y)`` (charge-paired, so rho(0) = 0
    bitwise).  A config checks itself when it is built, ``replace``
    included: it builds every member, so a rule of Params, ChannelGrid or
    BoundaryData is a ConfigError naming the eps, and requires both
    initial concentrations positive.  ``rho0_amp`` scales the seed charge
    of the initial-layer preset and is ignored elsewhere.
    """

    preset: str = "custom"
    # [params]
    z1: float = 1.0
    z2: float = -1.0
    D1: float = 2.0
    D2: float = 1.0
    nu: float = 1.0
    eps: float = 0.125
    ic_bump: float = 0.5
    ic_eps_amp: float = 0.25
    rho0_amp: float = 1.0
    # [boundary] wall traces, row order (y=0, y=1)
    gamma1_lower: str = "2.0"
    gamma1_upper: str = "2.0"
    w_lower: str = "0.0"
    w_upper: str = "0.25"
    # [grid]
    d: int = 1
    nx: int = 1
    ny: int = 129
    # [time]
    dt: float = 1e-3
    t_end: float = 0.02
    save_every: int = 2
    # [sweep]
    eps_list: tuple[float, ...] = (0.125, 0.0625, 0.03125)
    # [output]
    output_dir: str = "out"
    strict: bool = False

    def __post_init__(self) -> None:
        if self.preset not in PRESET_NAMES:
            raise ConfigError(
                f"unknown preset {self.preset!r}; valid presets: {', '.join(PRESET_NAMES)}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            numbers = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.ny == 0 and self.preset not in LAYER_PRESETS:
            raise ConfigError(f"ny = 0 (auto grading) is only valid for presets {LAYER_PRESETS}")
        if self.dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end <= 0.0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.save_every < 1:
            raise ConfigError(f"save_every must be >= 1, got {self.save_every}")
        if len(self.eps_list) == 0:
            raise ConfigError("eps_list must not be empty")
        if any(e <= 0.0 for e in self.eps_list):
            raise ConfigError(f"eps_list entries must be positive, got {self.eps_list}")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError(f"eps_list must be strictly decreasing, got {self.eps_list}")
        if self.preset in SINGLE_EPS_PRESETS and self.eps_list != (self.eps,):
            raise ConfigError(f"preset {self.preset} runs at a single eps, got eps = {self.eps} "
                              f"and eps_list = {', '.join(map(str, self.eps_list))}")
        if self.preset == "energy_identity" and self.save_every != 1:
            raise ConfigError(f"preset energy_identity saves every step, got save_every = {self.save_every}")
        need = 8.0 / min(self.eps_list)
        if self.preset in LAYER_PRESETS and self.ny != 0 and self.ny < need:
            raise ConfigError(f"layer presets require ny >= 8/eps_min = {need:.0f}, got ny={self.ny}")
        for key in _SECTIONS["boundary"]:
            text = getattr(self, key)
            try:
                const, amp, kind, mode = parse_trace(text)
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if self.d == 1 and kind != "":
                raise ConfigError(f"{key}: boundary traces must be constant when d = 1")
            if key.startswith("gamma") and const - abs(amp) <= 0.0:
                raise ConfigError(f"{key}: concentration trace must stay positive, got {text!r}")
        for e in self.eps_list:
            try:
                *_, c1_lim0, c1_eps0 = self.member(e)
            except ValueError as exc:  # the rules of Params, ChannelGrid (the ny floor) and BoundaryData
                raise ConfigError(f"at eps={e}: {exc}") from None
            for name, c1 in (("c1_lim0", c1_lim0), ("c1_eps0", c1_eps0)):
                if c1.min() <= 0.0:
                    raise ConfigError(f"initial concentration {name} must be positive, got min {c1.min():.6g} "
                                      f"at eps={e}; see ic_bump and ic_eps_amp")

    def resolve(self, eps: float) -> tuple[int, float]:
        """Wall-normal nodes and step of the run at eps.

        ny = 0 grades ny = ceil(8/eps) + 1, eight nodes in the O(eps) wall
        layer, and the layer presets cap dt at eps^2/8 to track the fast
        charge relaxation; dt then snaps so t_end is a whole number of steps.
        """
        ny = self.ny if self.ny != 0 else int(math.ceil(8.0 / eps)) + 1
        dt = min(self.dt, eps * eps / 8.0) if self.preset in LAYER_PRESETS else self.dt
        return ny, self.t_end / max(1, int(math.ceil(self.t_end / dt - 1e-12)))

    def member(self, eps: float) -> tuple[ChannelGrid, Params, BoundaryData, float, np.ndarray, np.ndarray]:
        """The inputs of the run at eps: its grid, Params, wall data, step
        (resolve), and the limit and finite-eps initial concentrations
        c1_lim0 and c1_eps0."""
        ny, dt = self.resolve(eps)
        grid = ChannelGrid(d=self.d, nx=self.nx, ny=ny)
        p = Params(z1=self.z1, z2=self.z2, D1=self.D1, D2=self.D2, nu=self.nu, eps=eps)
        x, y = grid.x, grid.y
        g1, w = (np.stack([evaluate_trace(lower, x), evaluate_trace(upper, x)])
                 for lower, upper in ((self.gamma1_lower, self.gamma1_upper), (self.w_lower, self.w_upper)))
        bump = self.ic_bump * np.sin(math.pi * y)
        c1_lim0 = g1[0][:, None] * (1.0 - y)[None, :] + g1[1][:, None] * y[None, :] + bump[None, :]
        c1_eps0 = c1_lim0 + self.ic_eps_amp * eps * np.sin(math.pi * y)[None, :]
        return grid, p, BoundaryData.electroneutral(gamma1=g1, w=w, params=p), dt, c1_lim0, c1_eps0

    def hash(self) -> str:
        # output_dir is plumbing, not identity: the same experiment written
        # to two directories must carry the same hash; the fields are read
        # as they are, without building (and checking) a second config
        fixed = SimpleNamespace(**{**vars(self), "output_dir": "out"})
        return hashlib.sha256(serialize_config(fixed).encode()).hexdigest()[:12]


# section -> its keys in serialization order; each key is the field of that name
_SECTIONS: dict[str, tuple[str, ...]] = {
    "params": ("z1", "z2", "D1", "D2", "nu", "eps", "ic_bump", "ic_eps_amp", "rho0_amp"),
    "boundary": ("gamma1_lower", "gamma1_upper", "w_lower", "w_upper"),
    "grid": ("d", "nx", "ny"),
    "time": ("dt", "t_end", "save_every"),
    "sweep": ("preset", "eps_list"),
    "output": ("output_dir", "strict"),
}


def _int(v: str) -> int:
    if not re.fullmatch(r"[+-]?\d+", v):
        raise ValueError(v)
    return int(v)


def _bool(v: str) -> bool:
    if v not in ("true", "false"):
        raise ValueError(v)
    return v == "true"


def _float_list(v: str) -> tuple[float, ...]:
    parts = [p.strip() for p in v.split(",") if p.strip()]
    if not parts:
        raise ValueError(v)
    return tuple(float(p) for p in parts)


def _trace(v: str) -> str:
    return format_trace(parse_trace(v))  # canonicalize early, errors surface here


def _preset(v: str) -> str:
    if v not in PRESET_NAMES:
        raise ValueError(v)
    return v


# type of a field's default -> (expected text, reader, writer)
_TYPES = {
    float: ("float", float, lambda v: repr(float(v))),
    int: ("int", _int, str),
    bool: ("bool (true|false)", _bool, lambda v: "true" if v else "false"),
    tuple: ("comma-separated floats", _float_list, lambda v: ", ".join(repr(float(e)) for e in v)),
    str: ("string", str, str),
}


def _kind(key: str):
    """(expected text, reader, writer) of a key; traces and preset read strictly."""
    tag, read, write = _TYPES[type(getattr(ExperimentConfig, key))]
    if key in _SECTIONS["boundary"]:
        return "trace expression", _trace, write
    if key == "preset":
        return f"one of {PRESET_NAMES}", _preset, write
    return tag, read, write


def preset_defaults(preset: str) -> ExperimentConfig:
    """The full fixture each preset runs when the file sets nothing else."""
    return ExperimentConfig(preset=preset, **_PRESETS.get(preset, {}))


def _scan_lines(text: str):
    """Yield (line_number, section, key, value) for every assignment."""
    section = None
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        hash_at = line.find(" #")
        if hash_at >= 0:
            line = line[:hash_at].rstrip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"line {n}: unknown section [{section}]; valid: {', '.join(_SECTIONS)}"
                )
            continue
        if "=" not in line:
            raise ConfigError(f"line {n}: expected 'key = value', got {raw.rstrip()!r}")
        if section is None:
            raise ConfigError(f"line {n}: key before any [section] header")
        key, _, value = line.partition("=")
        yield n, section, key.strip(), value.strip()


def parse_config_text(text: str) -> ExperimentConfig:
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    for n, sec, key, value in _scan_lines(text):
        if key not in _SECTIONS[sec]:
            raise ConfigError(f"line {n}: unknown key {key!r} in section [{sec}]")
        if key in seen:
            raise ConfigError(f"line {n}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = n
        tag, read, _ = _kind(key)
        try:
            values[key] = read(value)
        except (ValueError, ConfigError):
            raise ConfigError(f"line {n}: {key}: expected {tag}, got {value!r}") from None
    if values.get("preset") in SINGLE_EPS_PRESETS and ("eps" in values) != ("eps_list" in values):
        # the one eps is set by either key, and the other follows it
        values["eps_list"] = (values["eps"],) if "eps" in values else values["eps_list"]
        values["eps"] = values["eps_list"][0]
    try:
        return ExperimentConfig(**{**_PRESETS[values.get("preset", "custom")], **values})
    except ConfigError as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Parse an experiment config file; the config checks itself."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_config_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def serialize_config(cfg: ExperimentConfig) -> str:
    """Emit the full config in section order; parses back to an equal config."""
    out = []
    for section, keys in _SECTIONS.items():
        out += [f"[{section}]", *(f"{key} = {_kind(key)[2](getattr(cfg, key))}" for key in keys), ""]
    return "\n".join(out)
