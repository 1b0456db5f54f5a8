"""Command line entry point.

Subcommands:

* ``run``    -- execute a preset at a single eps (quick check; rate
  presets emit a one-row sweep.csv and a structured "insufficient
  points for fit" warning).
* ``sweep``  -- execute the full eps list of a preset.
* ``report`` -- refit report.json from an existing sweep.csv without
  re-running any solver.

``sweep`` and ``report`` print one line per graded claim of a rate
preset, and one line for any other preset.

Exit codes: 0 artifacts written, 2 configuration or usage error,
3 solver abort (diagnostic payload in error.json).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config_io import (
    ConfigError,
    ExperimentConfig,
    PRESET_NAMES,
    SINGLE_EPS_PRESETS,
    _float_list,
    parse_config,
    preset_defaults,
)
from .experiments import ExperimentError, refit_report, run_experiment

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The file or preset, with the command line's --eps, --out and --strict over it."""
    if (args.config is None) == (args.preset is None):
        raise ConfigError("exactly one of --config or --preset is required")
    cfg = parse_config(args.config) if args.config is not None else preset_defaults(args.preset)
    changes: dict[str, object] = {}
    if args.eps is not None:
        try:
            eps_list = _float_list(args.eps)
        except ValueError:
            raise ConfigError(f"--eps: expected a comma list of floats, got {args.eps!r}") from None
        changes["eps_list"] = eps_list
        if cfg.preset in SINGLE_EPS_PRESETS:
            changes["eps"] = eps_list[0]
    if args.out is not None:
        changes["output_dir"] = args.out
    if args.strict:
        changes["strict"] = True
    return replace(cfg, **changes).validate()


def _add_command(subs, name: str, text: str) -> argparse.ArgumentParser:
    """A subcommand with the options every command takes."""
    sub = subs.add_parser(name, help=text)
    sub.add_argument("--config", metavar="PATH", help="experiment config file")
    sub.add_argument("--preset", metavar="NAME", choices=PRESET_NAMES,
                     help="preset name; cannot be combined with --config")
    sub.add_argument("--eps", metavar="LIST",
                     help="comma list of eps values, overrides the config")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--strict", action="store_true",
                     help="treat soft rate-window misses as failures")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debyeflow",
        description="Electro-diffusion channel experiments: runs, sweeps, reports.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "run", "single-eps run of a preset")
    _add_command(subs, "sweep", "full eps sweep of a preset").add_argument(
        "--serial", action="store_true", help="disable the worker pool of the multi-run presets")
    _add_command(subs, "report", "refit report.json from an existing sweep.csv")
    return parser


def _print_verdicts(preset: str, report: dict) -> None:
    """One line per graded claim of a rate report; one for any other report."""
    for row in report.get("claims", [report]):
        slope = row.get("slope")
        slope_txt = f"{slope:.3f}" if isinstance(slope, float) else "n/a"
        claim = f"  ({row['claim']}, {row['metric']})" if "claim" in row else ""
        print(f"{preset}: slope={slope_txt}  window={row.get('window')}  pass={row['pass']}{claim}")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    # single-run semantics: the first eps of the list, a single-eps preset's one eps
    e0 = cfg.eps_list[0]
    cfg = replace(cfg, eps=e0, eps_list=(e0,)).validate()
    report = run_experiment(cfg, parallel=False)
    print(f"{cfg.preset}: pass={report['pass']}  artifacts: {report['paths']}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _print_verdicts(cfg.preset, run_experiment(cfg, parallel=not args.serial))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = Path(args.out if args.out is not None else cfg.output_dir)
    sweep_path = out / "sweep.csv"
    if not sweep_path.exists():
        raise ConfigError(f"{sweep_path}: no sweep.csv to refit; run `sweep` first")
    _print_verdicts(cfg.preset, refit_report(cfg, sweep_path, out / "report.json"))
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        if exc.payload:
            print(f"diagnostic payload: {exc.payload}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
