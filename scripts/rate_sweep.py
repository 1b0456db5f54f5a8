#!/usr/bin/env python3
"""Run one of the eps-sweep presets and print the fitted slope.

Examples
--------
    python3 scripts/rate_sweep.py --preset thm1_rate --out out/thm1
    python3 scripts/rate_sweep.py --preset thm51_rate --eps 0.125,0.0625,0.03125
"""

import argparse
import logging
import sys

from debyeflow.cli import _parse_eps
from debyeflow.config_io import RATE_PRESETS, ConfigError, apply_overrides, preset_defaults
from debyeflow.experiments import ExperimentError, run_experiment


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="thm1_rate", choices=RATE_PRESETS)
    ap.add_argument("--eps", help="comma list overriding the preset eps sweep")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--serial", action="store_true", help="no worker pool")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    try:
        eps = _parse_eps(args.eps) if args.eps else None
        cfg = apply_overrides(preset_defaults(args.preset), eps_list=eps, output_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg, parallel=not args.serial)
    except ExperimentError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    slope, r2 = report["slope"], report["r2"]
    slope_txt = "n/a" if slope is None else f"{slope:.4f}"
    r2_txt = "n/a" if r2 is None else f"{r2:.6f}"
    print(f"{args.preset}: slope={slope_txt} r2={r2_txt} window={report['window']} pass={report['pass']}")
    for entry in report["per_epsilon"]:
        print(f"  eps={entry['epsilon']:.6f}: ny={entry['ny']:.0f} dt={entry['dt']:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
