"""Twin-experiment benchmark for shockda, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: repetitions run one after another, each in a
fresh process (perfbench/repetition.py) with its own empty truth cache
and output directory under .bench_work/.  A repetition is a cold
``generate_truth`` (set-up) followed by ``run_experiment`` against the
now-warm cache.  Repetitions start while the next one is expected to end
within ``--seconds``; at least one always runs.  With ``--trace 1`` each
loop runs an untraced and a traced repetition, and the difference of
their run times is the tracing overhead.

Prints the environment, every metric with its unit, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1
if any repetition failed, 2 if the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import reference_problem  # noqa: E402
from perfbench.tracing import layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "posterior_rel_err": "ratio"}
# a repetition that is still running this long after the benchmark started is killed
TIME_LIMIT_S = 170.0


def run_one(workload: str, seed: int, traced: bool, time_left: float):
    """Run one repetition process; return (figures or None, problem or None)."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    result_path = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, "-m", "perfbench.repetition", "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--work-dir", str(work), "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(time_left, 1.0))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            return None, f"repetition exited with {proc.returncode}: {tail[0]}"
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        return None, f"repetition still running after {time_left:.0f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, "; ".join(result["problems"]) or None


def samples(results: list) -> dict:
    """End-to-end samples over repetitions: {name: [values]}."""
    return {
        "setup_s": [s for r in results for s in r["setup_samples_s"]],
        "run_s": [s for r in results for s in r["run_samples_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "posterior_rel_err": [r["posterior_rel_err"] for r in results],
    }


def summarize(untraced: list, traced: list) -> dict:
    """Medians over repetitions: end-to-end metrics, plus per-layer ones when traced."""
    metrics = {name: (statistics.median(values), END_TO_END_UNITS[name]) for name, values in samples(untraced).items()}
    if traced:
        for name, (_, unit) in layer_metrics([]).items():
            metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit)
        metrics["tracing.overhead_s"] = (statistics.median(r["run_samples_s"][0] for r in traced) - metrics["run_s"][0], "s")
        metrics["tracing.unaccounted_s"] = (statistics.median(r["unaccounted_s"] for r in traced), "s")
    return metrics


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shockda twin-experiment benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "shockda" / "__init__.py").is_file():
        print(f"error: no shockda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    kinds = (False, True) if args.trace else (False,)
    results = {kind: [] for kind in kinds}
    problems = []
    attempted = 0
    start = perf_counter()
    longest = 0.0
    first_err = None
    while True:
        loop_start = perf_counter()
        for traced in kinds:
            attempted += 1
            result, problem = run_one(args.workload, args.seed, traced, TIME_LIMIT_S - (perf_counter() - start))
            if problem is None:
                err = result["posterior_rel_err"]
                first_err = err if first_err is None else first_err
                if err != first_err:
                    problem = f"posterior_rel_err {err!r} differs from the first repetition's {first_err!r}"
                else:
                    problem = reference_problem(args.workload, args.seed, err)
            if problem is None:
                results[traced].append(result)
            else:
                problems.append(problem)
        longest = max(longest, perf_counter() - loop_start)
        if problems or perf_counter() - start + longest > args.seconds:
            break

    failed = len(problems)
    for problem in problems:
        print(f"FAILED: {problem}")
    done = [r for kind in kinds for r in results[kind]]
    metrics = summarize(results[False], results.get(True, [])) if all(results.values()) else {}

    env = done[0]["env"] if done else {}
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, 1 repetition process at a time")
    print("env " + "  ".join(f"{k}={v}" for k, v in {**env, "seed": args.seed}.items()))
    print(f"repetitions {len(results[False])} untraced" + (f", {len(results[True])} traced" if args.trace else ""))
    spread = {
        name: f"  (median of {len(v)}, min {_fmt(min(v))}, max {_fmt(max(v))})"
        for name, v in samples(results[False]).items()
        if v
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {_fmt(value):>14s} {unit}{spread.get(name, '')}")
    print(f"  {'failed_frac':48s} {_fmt(failed / attempted):>14s} ratio ({failed} of {attempted})")

    if results.get(True):
        trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"env": env, "seed": args.seed, "spans": [r["spans"] for r in results[True]]}))
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    wanted = END_TO_END_UNITS if not args.trace else {k: v for k, v in metrics.items() if k not in END_TO_END_UNITS}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items() if name in wanted},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
