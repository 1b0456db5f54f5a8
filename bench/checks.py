"""Output checks on one workload run's artifacts.

Every check maps to failed operations (an operation is one eps member
or one dt level; the energy preset's equilibrium run is one more):

* report-level -- ``pass`` is true, the slope lies in the report's
  window, and on ``energy_1d`` the equilibrium residual is exactly 0.0.
  A miss fails every operation of the run.
* per member -- the metrics match ``reference.json`` for this seed to
  ``REFERENCE_RTOL``, and on ``flow_2d`` ``err_u_LinfL2 > 0``.  A miss
  fails that member; a missing reference fails every operation.
* determinism -- ``artifact_digest`` must be the same for every run of
  one invocation, serial, pooled and traced alike (checked by run.py).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

# Relative tolerance of the reference comparison; see reference_close.
REFERENCE_RTOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# sweep.csv's measured-time column is exempt from the determinism contract
_TIMING_COLUMN = "wall_clock_s"


def reference_close(got, want) -> bool:
    """Equal within REFERENCE_RTOL of the larger magnitude; zeros and None exactly.

    The tolerance sits between two measured effects.  Scaling the result
    of every linear solve by an independent random factor
    1 + 1e-10 N(0, 1) moves no reference metric by more than 3e-7 (the
    curvature-based
    err_cS_grad_LinfL2 and err_c_LinfH2 move most).  Making the wall
    rows of ddy first order instead of second order moves the largest
    metric of every workload by 4e-5 (rate_1d), 1.5e-4 (energy_1d) and
    6e-3 (flow_2d).  A geometric instead of arithmetic half-node average
    is caught only on flow_2d (3e-5); on the 1-D workloads it moves the
    metrics by less than 1e-7, below what the noisy solver does.
    """
    if want is None or got is None or want == 0.0 or got == 0.0:
        return got == want
    return abs(got - want) <= REFERENCE_RTOL * max(abs(got), abs(want))


def report_members(workload: str, report: dict) -> list[dict]:
    """The per-operation records of a report, in operation order."""
    members = [dict(m) for m in report["per_epsilon"]]
    if workload == "energy_1d":
        members.append({"equilibrium_residual": report["equilibrium_residual"]})
    return members


def check_report(workload: str, report: dict, reference: list[dict] | None,
                 ops: int) -> tuple[int, list[str]]:
    """Number of failed operations and the reasons, for one run."""
    problems = []
    if reference is None or len(reference) != ops:
        problems.append("no reference recorded for this workload and seed")
    if report.get("pass") is not True:
        problems.append("report pass is not true")
    slope, window = report.get("slope"), report.get("window")
    if not (isinstance(slope, float) and math.isfinite(slope)
            and window[0] <= slope <= window[1]):
        problems.append(f"slope {slope} outside window {window}")
    if workload == "energy_1d" and report.get("equilibrium_residual") != 0.0:
        problems.append(f"equilibrium_residual {report.get('equilibrium_residual')!r} != 0.0")
    members = report_members(workload, report)
    if len(members) != ops:
        problems.append(f"{len(members)} operations reported, expected {ops}")
    if problems:
        return ops, problems

    failed = 0
    for k, member in enumerate(members):
        bad = []
        if workload == "flow_2d" and not member["err_u_LinfL2"] > 0.0:
            bad.append(f"err_u_LinfL2 = {member['err_u_LinfL2']!r}, flow coupling did not run")
        want = reference[k]
        bad += [f"{key} = {member.get(key)!r}, reference {want[key]!r}"
                for key in sorted(want) if not reference_close(member.get(key), want[key])]
        if bad:
            failed += 1
            problems.append(f"operation {k}: " + "; ".join(bad))
    return failed, problems


def _strip_timing(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    if rows and _TIMING_COLUMN in rows[0]:
        col = rows[0].index(_TIMING_COLUMN)
        rows = [r[:col] + r[col + 1:] for r in rows]
    return "\n".join(",".join(r) for r in rows)


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """Hash and size of the deterministic artifact bytes.

    report.json counts byte for byte; the CSV files count without the
    measured wall_clock_s column, which the README exempts.
    """
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = _strip_timing(data.decode("utf-8")).encode("utf-8")
        h.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
    return h.hexdigest(), size


def load_reference(workload: str, seed: int) -> list[dict] | None:
    """Recorded per-operation metrics of this workload and seed, if any."""
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table["workloads"].get(workload, {}).get(str(seed))
