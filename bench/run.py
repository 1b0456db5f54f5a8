"""debyeflow benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  Every timed run is a fresh
interpreter (bench/child.py) with BLAS and OpenMP pinned to one thread.
For about S seconds the benchmark repeats rounds of

* ``--trace 0``: two set-up-only processes, one serial and one pooled
  ``run_experiment`` of the workload, and prints the end-to-end metrics
  (medians over the rounds; every process contributes a set-up time);
* ``--trace 1``: one untraced serial run and one run under the span
  tracer, and prints the per-layer metrics (medians of times, exact
  counts) plus the tracer's own checks and overhead.

Every workload run is checked (bench/checks.py): report verdict and
slope window, reference metrics, the workload's own invariant, and
identical artifact bytes across all runs of the invocation.  The line
before the last holds the environment, the raw samples and any failed
check; the last line is the result object, whose ``ok_frac`` is
1 - failed/attempted operations.  Without a debyeflow source tree under
``src/`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from analysis import COUNT_METRICS, ROOT_SPAN, layer_metrics, load_spans, unit_of  # noqa: E402
from checks import artifact_digest, check_report, load_reference  # noqa: E402
from workloads import WORKLOADS, config_text, input_seed  # noqa: E402

ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# every process times its own set-up; set-up is short and noisier than a
# run, so trace 0 adds two set-up-only processes a round
ROUNDS = {0: ("setup", "setup", "serial", "pooled"), 1: ("serial", "traced")}
MIN_ROUNDS = {0: 3, 1: 2}
# no round starts once this much time has gone, and every child is killed
# at the deadline, so the benchmark ends within three minutes
HARD_STOP_S = 120.0
DEADLINE_S = 165.0
# the traced functions must cover the traced run: run_experiment's own
# self time (experiments.reduce_ms) stays below this share of it; it was
# 0.4-0.5% on energy_1d and flow_2d and 5.5-6.4% on rate_1d (2-core EPYC)
ROOT_SELF_SHARE = 0.10


class ChildFailed(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


class Invocation:
    """All processes of one benchmark invocation and their checks."""

    def __init__(self, workload: str, seed: int, trace: int, work: Path):
        self.workload = WORKLOADS[workload]
        self.trace = trace
        self.work = work
        self.config = work / "experiment.cfg"
        self.config.write_text(config_text(self.workload, seed), encoding="utf-8")
        self.reference = load_reference(workload, input_seed(seed))
        self.env = dict(os.environ, DEBYEFLOW_SRC=str(ROOT / "src"),
                        **{var: "1" for var in THREAD_VARS})
        self.samples: dict[str, list[dict]] = defaultdict(list)
        self.layers: list[dict[str, float]] = []
        self.self_ms: list[dict[str, float]] = []
        self.counts: dict | None = None
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0
        self._deadline = time.perf_counter() + DEADLINE_S

    # -- processes ---------------------------------------------------------

    def child(self, mode: str) -> tuple[dict, Path]:
        self._n += 1
        run_dir = self.work / f"{self._n:03d}-{mode}"
        run_dir.mkdir()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(self.config), str(run_dir)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self._deadline - time.perf_counter()))
        except BaseException as exc:
            # the child's process group holds its pool workers too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise ChildFailed(f"{mode} run killed at the {DEADLINE_S:.0f} s deadline") from None
            raise
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            raise ChildFailed(f"{mode} run exited {proc.returncode}: {tail[0]}")
        return json.loads(out.strip().splitlines()[-1]), run_dir

    def setup_run(self) -> None:
        result, run_dir = self.child("setup")
        shutil.rmtree(run_dir)
        self.samples["setup"].append(result)

    def workload_run(self, mode: str) -> None:
        ops = self.workload.ops
        self.attempted += ops
        try:
            result, run_dir = self.child(mode)
        except ChildFailed as exc:
            self.fail(ops, str(exc))
            return
        out = run_dir / "out"
        failed, problems = check_report(
            self.workload.name, json.loads((out / "report.json").read_text()),
            self.reference, ops)
        if result["tracer_loaded"] != (mode == "traced"):
            failed, problems = ops, problems + [f"tracer loaded = {result['tracer_loaded']}"]
        digest, nbytes = artifact_digest(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failed, problems = ops, problems + ["artifact bytes differ from the first run"]
        if mode == "traced":
            trace_failed, trace_problems = self.traced(result, run_dir, nbytes)
            failed = max(failed, ops if trace_failed else 0)
            problems += trace_problems
        self.fail(failed, *(f"{mode} run: {p}" for p in problems))
        self.samples[mode].append(result)
        shutil.rmtree(run_dir)

    def traced(self, result: dict, run_dir: Path, nbytes: int) -> tuple[bool, list[str]]:
        metrics, book = layer_metrics(load_spans(run_dir / "spans.jsonl"))
        metrics["experiments.bytes_written"] = nbytes
        problems = []
        if book["roots"] != [ROOT_SPAN]:
            problems.append(f"root spans {book['roots']}")
        problems += [f"children outlast their parent: {o}" for o in book["overrun"][:5]]
        root_self_s = book["self_ms"].get(ROOT_SPAN, 0.0) / 1000.0
        if root_self_s > ROOT_SELF_SHARE * result["wall_s"]:
            problems.append(f"{ROOT_SPAN} self time {root_self_s:.4f} s is more than "
                            f"{ROOT_SELF_SHARE:.0%} of the traced {result['wall_s']:.4f} s")
        counts = {"calls": book["calls"], "rebound_bindings": result["rebound"],
                  "step_tail_percentile": book["step_tail_percentile"],
                  **{k: metrics[k] for k in COUNT_METRICS}}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            diff = sorted(k for k in counts if counts[k] != self.counts.get(k))
            problems.append(f"counts differ between traced runs: {diff}")
        self.layers.append(metrics)
        self.self_ms.append(book["self_ms"])
        return bool(problems), problems

    def fail(self, ops: int, *problems: str) -> None:
        self.failed += ops
        self.problems.extend(problems)

    # -- schedule ----------------------------------------------------------

    def measure(self, seconds: float) -> None:
        begin = time.perf_counter()
        longest = 0.0
        rounds = 0
        while True:
            start = time.perf_counter()
            for mode in ROUNDS[self.trace]:
                if mode == "setup":
                    self.setup_run()
                else:
                    self.workload_run(mode)
            rounds += 1
            longest = max(longest, time.perf_counter() - start)
            ends_at = time.perf_counter() - begin + longest
            if ends_at > HARD_STOP_S or (rounds >= MIN_ROUNDS[self.trace] and ends_at > seconds):
                return

    # -- results -----------------------------------------------------------

    def _times(self, mode: str, key: str) -> list[float]:
        values = [r[key] for r in self.samples[mode]]
        if not values:
            raise ChildFailed(f"no successful {mode} run to measure")
        return values

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "wall_s": (_median(self._times("serial", "wall_s")), "s"),
            "pooled_wall_s": (_median(self._times("pooled", "wall_s")), "s"),
            "setup_s": (_median([r["setup_s"] for rs in self.samples.values() for r in rs]), "s"),
            "peak_rss_mb": (_median(self._times("serial", "peak_rss_mb")), "MB"),
            "ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        if not self.layers:
            raise ChildFailed("no successful traced run to measure")
        traced = _median(self._times("traced", "wall_s"))
        untraced = _median(self._times("serial", "wall_s"))
        out = {}
        for name in sorted(self.layers[0]):
            values = [m[name] for m in self.layers]
            if name in COUNT_METRICS:
                value = values[0]  # equal in every traced run, or a failed check
            else:
                value = _median(values)
            out[name] = (value, unit_of(name))
        # untraced: the tracer's own allocations change the heap's behaviour
        out["process.minor_faults"] = (_median(self._times("serial", "minor_faults")), "count")
        out["trace.total_ms"] = (1000.0 * traced, "ms")
        out["trace.overhead_ms"] = (1000.0 * (traced - untraced), "ms")
        return out


def _environment(inv: Invocation, setup: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "pool_cpus": setup["pool_cpus"],
        "cpu_model": _cpu_model(),
        **setup["versions"],
        "threads": {var: inv.env[var] for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "debyeflow" / "experiments.py").is_file():
        print(f"error: no debyeflow source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inv = Invocation(args.workload, args.seed, args.trace, work)
        # untimed: byte-compiles the package and records the versions
        warm, warm_dir = inv.child("setup")
        shutil.rmtree(warm_dir)
        env = _environment(inv, warm)
        inv.measure(args.seconds)
        metrics = inv.end_to_end() if args.trace == 0 else inv.per_layer()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation's work directory is still there

    for problem in inv.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "samples": {mode: [{k: v for k, v in r.items() if k != "versions"} for r in rs]
                    for mode, rs in inv.samples.items()},
        "counts": inv.counts,
        "self_ms": {name: _median([run.get(name, 0.0) for run in inv.self_ms])
                    for name in (inv.self_ms[0] if inv.self_ms else {})},
        "problems": inv.problems[:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": inv.failed == 0 and not inv.problems,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
