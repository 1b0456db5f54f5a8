#!/usr/bin/env python3
"""Print the sha256 digest of every artifact of the five shipped presets.

Each preset runs twice, serial and through the worker pool, into a
temporary directory, and so does one small d = 2 sweep of the custom
preset, labelled custom_2d, after them: 8x17 nodes, x-varying gamma1
and w, three eps values of four steps each, so the bytes of the d = 2
coupled solve are covered too.  One line per artifact: case, mode, file
name and digest.  sweep.csv's wall_clock_s column is measured time, so
it is blanked before hashing; every other byte is part of the
determinism contract.  Each rate preset's sweep.csv is also refit through
refit_report, outside the hashed directory, and must rebuild the run's
report.json byte for byte.  The script exits 1, naming each case whose
serial and pooled digests differ or whose refit differs from its report,
after printing every line.  Two source trees give the same bytes when
this prints the same lines for both; run one copy of this script
against both, so that both print the same cases, e.g.

    PYTHONPATH=src python3 scripts/preset_digests.py > new.txt
    PYTHONPATH=../old/src python3 scripts/preset_digests.py > old.txt
    diff old.txt new.txt
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import debyeflow
from debyeflow.config_io import PRESET_NAMES, RATE_PRESETS, ExperimentConfig, preset_defaults
from debyeflow.experiments import refit_report, run_experiment

PRESETS = tuple(p for p in PRESET_NAMES if p != "custom")
# label -> config: the shipped presets, then the d = 2 custom sweep
CASES = {p: preset_defaults(p) for p in PRESETS}
CASES["custom_2d"] = ExperimentConfig(
    preset="custom", d=2, nx=8, ny=17, dt=1e-3, t_end=4e-3, save_every=2,
    eps_list=(0.25, 0.125, 0.0625),
    gamma1_lower="2.0 + 0.5*cos(2*pi*x)", w_upper="0.5 + 0.25*sin(2*pi*x)",
)


def _blank_column(text: str, column: str) -> str:
    lines = text.split("\n")
    header = lines[0].split(",")
    if column not in header:
        return text
    k = header.index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) == len(header):
            cells[k] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of each file in out, sweep.csv with wall_clock_s blanked."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "sweep.csv":
            data = _blank_column(data.decode("utf-8"), "wall_clock_s").encode("utf-8")
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def main() -> int:
    print(f"# debyeflow from {Path(debyeflow.__file__).parent}", file=sys.stderr)
    differing, refit_differs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for case, cfg in CASES.items():
            by_mode = {}
            for mode in ("serial", "pooled"):
                out = Path(tmp) / case / mode
                run_experiment(cfg, out_dir=str(out), parallel=(mode == "pooled"))
                by_mode[mode] = artifact_digests(out)
                for name, digest in by_mode[mode].items():
                    print(f"{case} {mode} {name} {digest}", flush=True)
                if cfg.preset in RATE_PRESETS:
                    refit = Path(tmp) / case / f"{mode}-refit.json"
                    refit_report(cfg, out / "sweep.csv", refit)
                    if refit.read_bytes() != (out / "report.json").read_bytes():
                        refit_differs.append(f"{case} ({mode})")
            if by_mode["serial"] != by_mode["pooled"]:
                differing.append(case)
    for case in differing:
        print(f"error: {case}: serial and pooled artifacts differ", file=sys.stderr)
    for name in refit_differs:
        print(f"error: {name}: refit of sweep.csv differs from report.json", file=sys.stderr)
    return 1 if differing or refit_differs else 0


if __name__ == "__main__":
    sys.exit(main())
