"""One timed benchmark process: ``python3 bench/child.py MODE CONFIG RUN_DIR``.

MODE is one of

* ``setup``  -- only the set-up every mode starts with: import
  debyeflow.experiments, parse and validate CONFIG, and build the
  fixture of every eps member;
* ``serial`` -- one ``run_experiment(parallel=False)`` into RUN_DIR/out;
* ``pooled`` -- one ``run_experiment(parallel=True)`` into RUN_DIR/out;
* ``traced`` -- ``serial`` under the span tracer; the spans go to
  RUN_DIR/spans.jsonl, tagged with the run id RUN_DIR's name.

The source tree is taken from the ``DEBYEFLOW_SRC`` environment
variable.  The process prints one JSON line with its timings, peak RSS,
the run's minor page faults, whether the tracer module was loaded and,
for ``setup``, the library versions.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _pin_cpu_count() -> None:
    # the worker pool sizes itself from os.cpu_count(); cap it at the CPUs
    # this process may run on
    allowed = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > allowed:
        os.cpu_count = lambda: allowed


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(mode: str, config_path: str, run_dir: str) -> dict:
    src = os.environ["DEBYEFLOW_SRC"]
    sys.path.insert(0, src)
    _pin_cpu_count()
    tracer = None
    if mode == "traced":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(run_id=os.path.basename(run_dir))

    from debyeflow import experiments
    from debyeflow.config_io import parse_config

    if not os.path.abspath(experiments.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"debyeflow imported from {experiments.__file__}, not {src}")
    cfg = parse_config(config_path)
    for eps in cfg.eps_list:
        experiments.build_fixture(cfg, eps)
    result = {"mode": mode, "pool_cpus": os.cpu_count(), "setup_s": time.perf_counter() - T_START}
    if mode == "setup":
        result["versions"] = _versions()
        return result

    rebound = 0
    if tracer is not None:
        tracer.install()
        rebound = tracer.rebound_count
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    try:
        experiments.run_experiment(cfg, out_dir=os.path.join(run_dir, "out"),
                                   parallel=(mode == "pooled"))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt - faults0,
        "tracer_loaded": "tracer" in sys.modules,
        "rebound": rebound,
    })
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
