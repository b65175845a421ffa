"""One benchmark repetition: cold truth generation, then a warm-cache run.

perfbench/run.py starts each repetition as a fresh process,

    python -m perfbench.repetition --workload W --seed S --trace 0|1 --work-dir D --result R.json

so its peak RSS belongs to that repetition alone and its truth cache
starts empty.  The repetition writes its figures, output-check problems
and (traced) spans to ``R.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from .checks import check_outputs, posterior_rel_err
from .tracing import LAYERS, TRUTH_LAYERS, Tracer, installed, layer_metrics, self_times, truth_hit_ratio
from .workloads import make_config

# Untraced repetitions repeat the set-up and the run until about this much
# time is spent on each, so short phases get several samples.
SETUP_SAMPLING_S = 1.0
RUN_SAMPLING_S = 4.0


def _blas():
    """(name and version, thread count) of the OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode().strip(), get_threads()
    return "unknown", -1


def environment() -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _repeat(samples: list, budget_s: float, call) -> None:
    while sum(samples) < budget_s:
        start = perf_counter()
        call(len(samples))
        samples.append(perf_counter() - start)


def run_repetition(cfg, trace: bool) -> dict:
    """Time set-up and run for ``cfg``, then check what the run wrote."""
    from shockda.harness import experiments

    tracer = Tracer()
    with installed(tracer, LAYERS if trace else TRUTH_LAYERS):
        start = perf_counter()
        experiments.generate_truth(cfg, cache_dir=cfg.cache_dir)
        setup_end = perf_counter()
        experiments.run_experiment(cfg)
        end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The repeats come after the RSS reading and outside the tracer, so they
    # touch neither.  Set-ups go to fresh empty caches; runs reuse the warm one.
    setup_samples = [setup_end - start]
    run_samples = [end - setup_end]
    if not trace:
        _repeat(setup_samples, SETUP_SAMPLING_S, lambda i: experiments.generate_truth(
            cfg, cache_dir=Path(cfg.cache_dir).with_name(f"setup_sample_{i}")))
        _repeat(run_samples, RUN_SAMPLING_S, lambda i: experiments.run_experiment(cfg))

    problems = check_outputs(cfg)
    hit_ratio = truth_hit_ratio(tracer.spans)
    if hit_ratio != 0.5:
        problems.append(f"truth cache hit ratio is {hit_ratio}, expected 0.5 (one cold set-up, one warm run)")
    result = {
        "setup_samples_s": setup_samples,
        "run_samples_s": run_samples,
        "peak_rss_mb": peak_rss_mb,
        "posterior_rel_err": posterior_rel_err(cfg) if not problems else float("nan"),
        "problems": problems,
    }
    if trace:
        result["layers"] = {name: value for name, (value, _) in layer_metrics(tracer.spans).items()}
        result["unaccounted_s"] = (end - start) - sum(self_times(tracer.spans))
        result["spans"] = [asdict(span) for span in tracer.spans]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import shockda

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(shockda.__file__).resolve().parents:
        print(f"shockda imported from {shockda.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = make_config(args.workload, args.seed, args.work_dir)
    result = run_repetition(cfg, bool(args.trace))
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
