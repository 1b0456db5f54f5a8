"""Record bench/reference.json: ``python3 bench/make_reference.py``.

Runs every workload serially at seeds 0..SEEDS-1 (bench/workloads.py)
from the checkout's ``src/`` tree, with BLAS pinned to one thread as in
the timed runs, and stores the per-operation metrics of each report.
Re-record only for a deliberate change of the numbers, and say so where
the change is described.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from checks import REFERENCE_PATH, REFERENCE_RTOL, report_members  # noqa: E402
from debyeflow.config_io import parse_config_text  # noqa: E402
from debyeflow.experiments import run_experiment  # noqa: E402
from workloads import SEEDS, WORKLOADS, config_text  # noqa: E402


def main() -> None:
    out = ROOT / ".bench_work" / "reference"
    table = {"rtol": REFERENCE_RTOL, "workloads": {}}
    try:
        for name, workload in WORKLOADS.items():
            per_seed = table["workloads"][name] = {}
            for seed in range(SEEDS):
                cfg = parse_config_text(config_text(workload, seed))
                report = run_experiment(cfg, out_dir=str(out), parallel=False)
                per_seed[str(seed)] = report_members(name, report)
                print(f"{name} seed {seed}: slope {report['slope']:.4f} pass {report['pass']}",
                      flush=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    REFERENCE_PATH.write_text(_dump(table), encoding="utf-8")


def _dump(table: dict) -> str:
    """JSON with one line per operation record."""
    lines = ["{", f' "rtol": {json.dumps(table["rtol"])},', ' "workloads": {']
    names = sorted(table["workloads"])
    for i, name in enumerate(names):
        lines.append(f"  {json.dumps(name)}: {{")
        seeds = table["workloads"][name]
        for j, seed in enumerate(sorted(seeds, key=int)):
            records = ",\n".join(f"    {json.dumps(m, sort_keys=True)}" for m in seeds[seed])
            lines.append(f"   {json.dumps(seed)}: [\n{records}\n   ]" + ("," if j < len(seeds) - 1 else ""))
        lines.append("  }" + ("," if i < len(names) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    main()
