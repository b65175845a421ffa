"""End-to-end twin experiments: truth, observations, filtering, artifacts.

The truth pipeline runs the coupled shallow-water solver once per
experiment geometry and caches its velocity history (the assimilation
dynamics) plus the reference depth rows, so repeated runs across variants
and seeds reuse the expensive part.  Artifacts are CSV files with
full-precision floats and a ``key = value`` manifest that regenerates the
run bit-identically.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import mmap
import os
import signal
import tempfile
import zipfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__, solver
from ..errors import ConfigError
from ..solver import Grid1D, SolverConfig, solve_coupled_swe, transport_step
from ..stoker import stoker_evaluate, stoker_solve, synthesize_observations
from ..assimilation.ensemble import ensemble_moments, gradient_second_moment, sample_variance_diag
from ..assimilation.filters import run_baseline_filter, run_weighted_filter
from ..metrics import in_window, pointwise_error, relative_error
from .config import ExperimentConfig, read_text
from .._csvio import fmt17, write_csv

# fixed smooth-region window for the restricted error curve
SMOOTH_WINDOW = (-0.39, 0.39)

_OSC_AMPLITUDE = 0.03
_OSC_WAVENUMBER = 30.0


def initial_condition(config: ExperimentConfig, grid: Grid1D) -> np.ndarray:
    """Case initial depth, at rest: dam-break step, or the oscillatory profile."""
    x = grid.points
    h = np.where(x < config.x_dam, config.h0, config.h1)
    if config.case == "oscillatory":
        h = np.where(x < -0.5, config.h0 + _OSC_AMPLITUDE * np.sin(_OSC_WAVENUMBER * x), h)
    return h


@dataclass
class TruthBundle:
    """Velocity history for the dynamics plus reference depth/velocity rows.

    Row s of ``velocity`` is the coarse run's velocity at step s.  Row 0 of
    ``truth_h``/``truth_u`` is the initial condition; row j >= 1 belongs to
    the config's observation time ``obs_times[j-1]``.
    """

    velocity: np.ndarray
    truth_h: np.ndarray
    truth_u: np.ndarray


def _truth_fingerprint(config: ExperimentConfig) -> str:
    keys = ("case", "n", "cfl", "t_end", "obs_stride_steps", "h0", "h1", "g", "x_dam", "fine_refine")
    parts = [f"version={__version__}"]
    for k in keys:
        v = getattr(config, k)
        parts.append(f"{k}={fmt17(v) if isinstance(v, float) else v}")
    return ";".join(parts)


def generate_truth(config: ExperimentConfig, cache_dir: Path) -> TruthBundle:
    """Coupled run for the velocity, plus the reference depth rows.

    Dense/sparse cases evaluate the analytic dam-break solution at the
    observation times; the oscillatory case runs a ``fine_refine``-times
    finer reference and subsamples it by exact index mapping.  Results are
    cached under ``cache_dir``, one file per geometry fingerprint.
    """
    grid = config.grid()
    obs_steps = config.obs_step_indices

    fingerprint = _truth_fingerprint(config)
    entry = Path(cache_dir) / f"truth_{hashlib.sha256(fingerprint.encode()).hexdigest()[:16]}.npz"
    cached = _load_truth_cache(entry, fingerprint, config)
    if cached is not None:
        return cached

    velocity = solve_coupled_swe(initial_condition(config, grid), grid, config.solver_config(), config.t_end).velocity

    if config.case == "oscillatory":
        refine = config.fine_refine
        fine_grid = Grid1D(refine * (grid.n - 1) + 1)
        fine_run = solve_coupled_swe(
            initial_condition(config, fine_grid),
            fine_grid,
            config.solver_config(),
            config.t_end,
            record=np.concatenate(([0], obs_steps * refine)),
            store_velocity=False,
        )
        truth_h = fine_run.h[:, ::refine]
        truth_u = velocity[np.concatenate(([0], obs_steps))]
    else:
        params = config.dam_params()
        inter = stoker_solve(params)
        rows_h, rows_u = [], []
        for t in np.concatenate(([0.0], config.obs_times)):
            h_row, u_row = stoker_evaluate(params, inter, grid.points, float(t))
            rows_h.append(h_row)
            rows_u.append(u_row)
        truth_h = np.asarray(rows_h)
        truth_u = np.asarray(rows_u)

    bundle = TruthBundle(velocity, truth_h, truth_u)
    _save_truth_cache(entry, fingerprint, bundle)
    return bundle


def _save_truth_cache(entry: Path, fingerprint: str, bundle: TruthBundle) -> None:
    """Write a unique temporary file beside ``entry``, then rename it into place,
    so concurrent writers and readers see one whole entry or another, never a mix."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=entry.parent, prefix=entry.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, u=bundle.velocity, h=bundle.truth_h, tu=bundle.truth_u,
                     fingerprint=np.array(fingerprint))
        os.replace(tmp, entry)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _load_truth_cache(entry: Path, fingerprint: str, config: ExperimentConfig) -> TruthBundle | None:
    """The cached bundle, or None on a miss: a missing, unreadable or truncated
    file, another fingerprint inside it, or a misshapen array."""
    try:  # np.load given a path leaks the file when it rejects a truncated archive
        with open(entry, "rb") as f, np.load(f) as stored:
            if str(stored["fingerprint"]) != fingerprint:
                return None
            u, h, tu = stored["u"], stored["h"], stored["tu"]
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    rows = (config.obs_times.size + 1, config.n)
    if u.shape != (config.n_steps + 1, config.n) or h.shape != rows or tu.shape != rows:
        return None
    return TruthBundle(u, h, tu)


@dataclass
class RunArtifacts:
    """Paths of the per-run CSV artifacts, plus in-memory results.

    Only the files a command actually writes are set; the rest stay None.
    """

    manifest: Path
    solution_csv: Path | None = None
    error_csv: Path | None = None
    moments_csv: Path | None = None
    summary_csv: Path | None = None
    truth_csv: Path | None = None
    posterior_mean: np.ndarray | None = None  # (cycles, n), row j for analysis j
    relative_errors: np.ndarray | None = None  # (2, cycles): full domain, then SMOOTH_WINDOW
    truth: TruthBundle | None = None
    # how the run was executed, recorded in the manifest and ignored by config_from_manifest
    environment: dict = field(default_factory=dict)

    def written(self) -> list[Path]:
        paths = [self.solution_csv, self.error_csv, self.moments_csv, self.summary_csv, self.truth_csv, self.manifest]
        return [p for p in paths if p is not None]


def build_initial_ensemble(config: ExperimentConfig, grid: Grid1D, seed: int) -> np.ndarray:
    """Case initial depth plus i.i.d. Gaussian point noise, seeded.

    The generator is keyed on (seed, 1) so the ensemble stream stays
    independent of the observation noise stream keyed on seed alone.  The
    (K, n) member stack is F-ordered, the layout of every analysed stack,
    so each cycle's member reductions sum in one order.
    """
    base = initial_condition(config, grid)
    rng = np.random.default_rng([seed, 1])
    members = base + config.ic_perturb_std * rng.standard_normal((config.ensemble_size, grid.n))
    return np.asfortranarray(members)


def write_manifest(path: Path, config: ExperimentConfig, status: str, environment: dict,
                   error: str | None = None) -> None:
    lines = [f"shockda_version = {__version__}"]
    lines += [f"{k} = {v}" for k, v in config.to_items()]
    lines += [f"{k} = {v}" for k, v in environment.items()]
    lines.append(f"status = {status}")
    if error is not None:
        lines.append(f"error = {error.splitlines()[0]}")
    path.write_text("\n".join(lines) + "\n")


# OpenBLAS names its thread-count functions <prefix>get_num_threads<suffix> and
# <prefix>set_num_threads<suffix>: numpy's wheel build (64-bit integers) with
# scipy_openblas_ and 64_; builds with 32-bit integers drop the suffix, and
# other distributions use openblas_
_OPENBLAS_AFFIXES = [(prefix, suffix) for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]


@contextmanager
def _one_blas_thread():
    """Run every OpenBLAS in the process on one thread; yield 1, or ``"unpinned"`` if none was found.

    Each library mapped into the process is set through its
    set_num_threads function and gets its previous count back on exit; a
    run loads no other.  One thread makes the bytes independent of the
    machine's BLAS default, and leaves the other CPUs to the forecast
    workers: an idle OpenBLAS thread spin-waits on its core after every
    call.
    """
    try:
        with open("/proc/self/maps") as maps:  # the libraries mapped into this process
            # the path is the sixth field onward, so a path with a space stays whole
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    restore = []
    for lib in map(ctypes.CDLL, paths):
        for prefix, suffix in _OPENBLAS_AFFIXES:
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                restore.append((set_threads, get_threads()))
                set_threads(1)
                break
    try:
        yield 1 if restore else "unpinned"
    finally:
        for set_threads, threads in restore:
            set_threads(threads)


@contextmanager
def _run(config: ExperimentConfig, *names: str):
    """Yield the RunArtifacts of a run writing ``<name>.csv`` per name; record how it ended.

    The output directory is made inside the guard, and the run goes on one
    BLAS thread (``_one_blas_thread``).  On success the manifest says
    ``status = completed``; any exception writes ``status = failed`` (an
    OSError from that write is suppressed) and propagates.  Either way the
    manifest also records ``paths.environment``.
    """
    out = config.output_dir
    paths = RunArtifacts(out / "manifest.txt", **{f"{name}_csv": out / f"{name}.csv" for name in names})
    try:
        with _one_blas_thread() as threads:
            paths.environment["blas_threads"] = threads
            out.mkdir(parents=True, exist_ok=True)
            yield paths
        write_manifest(paths.manifest, config, status="completed", environment=paths.environment)
    except BaseException as exc:
        with suppress(OSError):
            write_manifest(paths.manifest, config, status="failed", environment=paths.environment,
                           error=str(exc) or type(exc).__name__)
        raise


def _forecast_worker(conn, parent_ends, block, velocity: np.ndarray, grid: Grid1D, solver_cfg: SolverConfig) -> None:
    """Advance the members the parent puts in ``block``, a view of shared memory, by the step each
    message names, in place, and answer None or the exception raised; stop when the parent closes the pipe.

    ``parent_ends`` are the parent's pipe ends this fork inherited; they are
    closed first, so the parent's close reads as EOF here."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    for end in parent_ends:
        end.close()
    workspace = solver.Workspace()
    with suppress(EOFError, BrokenPipeError):
        while True:
            step = conn.recv()
            try:
                block[...] = transport_step(block, velocity, step, grid, solver_cfg, workspace=workspace)
            except Exception as exc:
                conn.send(exc)
            else:
                conn.send(None)


@contextmanager
def _forecast(velocity: np.ndarray, grid: Grid1D, solver_cfg: SolverConfig, rows: int):
    """Yield ``dynamics(members, step)``, one ``transport_step`` of a (rows, n) stack, and its process count.

    The count is w = min(CPUs this process may run on, rows, rows (n + 1) //
    ``solver._FACE_BLOCK``): a process gets at least one face block of work.
    At w <= 1 the step runs here.  Otherwise w - 1 workers are forked once
    (they inherit the velocity history) with an F-ordered view of a
    shared-memory block each.  Each step copies each worker's member rows
    into its block and sends it the step number, advances the first rows
    here meanwhile, and assembles an F-ordered result, as the in-process
    step returns.  Each row sees the same operations whatever the
    block (the splitting speed is per row, and ``weno5_derivative`` does
    not depend on its block size), so the bytes do not depend on w.  A
    worker's exception is raised here with its type; a worker that dies
    raises ChildProcessError.  Every worker is joined on exit.  Each process
    keeps one ``solver.Workspace``, sized to its rows.  The workers are
    forked, not spawned, to inherit the history without a copy; the run has
    put OpenBLAS on one thread by then, and OpenBLAS stops its thread pool
    before a fork.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, rows, rows * (grid.n + 1) // solver._FACE_BLOCK)
    workspace = solver.Workspace()  # the workers build their own

    def step_rows(members, step):
        return transport_step(members, velocity, step, grid, solver_cfg, workspace=workspace)

    if workers <= 1:
        yield step_rows, 1
        return
    import multiprocessing  # 0.7 MB of modules that an in-process forecast does without

    bounds = [rows * i // workers for i in range(workers + 1)]
    context = multiprocessing.get_context("fork")
    procs, conns, blocks = [], [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            buffer = mmap.mmap(-1, (hi - lo) * grid.n * np.dtype(float).itemsize)
            blocks.append(np.ndarray((hi - lo, grid.n), buffer=buffer, order="F"))
            conn, child_conn = context.Pipe()
            conns.append(conn)
            procs.append(context.Process(target=_forecast_worker, daemon=True,
                                         args=(child_conn, conns, blocks[-1], velocity, grid, solver_cfg)))
            procs[-1].start()
            child_conn.close()  # the worker holds the only other end, so its death reads as EOF here

        def died(proc):
            proc.join()
            return ChildProcessError(f"forecast worker {proc.pid} died (exit code {proc.exitcode})")

        def dynamics(members, step):
            out = np.empty((rows, grid.n), order="F")
            for lo, hi, block, conn, proc in zip(bounds[1:-1], bounds[2:], blocks, conns, procs):
                block[...] = members[lo:hi]
                try:
                    conn.send(step)
                except BrokenPipeError:
                    raise died(proc) from None
            # stepping a contiguous copy of these rows measured faster than stepping the strided view
            out[: bounds[1]] = step_rows(np.array(members[: bounds[1]], order="F"), step)
            for lo, hi, block, conn, proc in zip(bounds[1:-1], bounds[2:], blocks, conns, procs):
                try:
                    reply = conn.recv()
                except EOFError:
                    raise died(proc) from None
                if reply is not None:
                    raise reply
                out[lo:hi] = block
            return out

        yield dynamics, workers
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def read_manifest(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    mapping = {}
    for line in read_text(path).splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def require_completed(path) -> None:
    """Reject a file whose sibling ``manifest.txt`` exists and does not say ``status = completed``:
    it is left over from an earlier run.  A file with no manifest beside it passes."""
    manifest = Path(path).parent / "manifest.txt"
    if manifest.exists() and (status := read_manifest(manifest).get("status")) != "completed":
        raise ConfigError(f"{path}: the run beside it did not complete ({manifest} says status = {status})")


def config_from_manifest(path) -> ExperimentConfig:
    mapping = read_manifest(path)
    run_keys = ("shockda_version", "status", "error", "blas_threads", "forecast_workers")
    mapping = {k: v for k, v in mapping.items() if k not in run_keys}
    return ExperimentConfig.for_case(mapping.pop("case", "dense"), **mapping)


def run_experiment(config: ExperimentConfig) -> RunArtifacts:
    """Run one filter variant end to end and write all artifacts.

    Any failure, an I/O error included, writes ``status = failed`` and the
    first line of its message to the manifest before the error propagates.
    """
    with _run(config, "solution", "error", "moments", "summary") as paths:
        # moments.csv takes its rows from analyses; times after t_end are ignored
        near = np.abs(np.subtract.outer(config.obs_times, config.snapshot_times)) <= 1e-9  # (cycles, snapshots)
        for t, hit in zip(config.snapshot_times, near.any(axis=0)):
            if t <= config.t_end and not hit:
                raise ConfigError(f"snapshot time {t} is not an observation time (every {config.obs_times[0]:g})")
        grid = config.grid()
        bundle = generate_truth(config, cache_dir=config.resolved_cache_dir())
        H = config.observation_operator()
        truth_rows = bundle.truth_h[1:]
        observations = synthesize_observations(truth_rows, config.obs_times, H, config.gamma, config.seed)
        members = build_initial_ensemble(config, grid, config.seed)
        runner = run_baseline_filter if config.variant == "etkf_baseline" else run_weighted_filter
        with _forecast(bundle.velocity, grid, config.solver_config(), config.ensemble_size) as (dynamics, workers):
            paths.environment["forecast_workers"] = workers
            prior_mean, posterior_mean, prior_variance, prior_gsm = runner(
                members, dynamics, observations, config.filter_config(), grid, steps_per_obs=config.obs_stride_steps)

        times = config.obs_times
        relative_errors = np.array([
            [relative_error(m, truth) for m, truth in zip(posterior_mean, truth_rows)],
            [relative_error(m, truth, SMOOTH_WINDOW, grid.points) for m, truth in zip(posterior_mean, truth_rows)],
        ])
        obs = np.full(posterior_mean.shape, "", dtype=object)
        obs[:, H.indices] = observations.values
        t_col, x_col = _time_x_columns(times, grid)
        write_csv(paths.solution_csv, ("t", "x", "truth", "obs", "prior_mean", "posterior_mean"),
                  (t_col, x_col, truth_rows.ravel(), obs.ravel(), prior_mean.ravel(), posterior_mean.ravel()))
        write_csv(paths.error_csv, ("t", "x", "pointwise_error"),
                  (t_col, x_col, pointwise_error(posterior_mean, truth_rows).ravel()))
        write_csv(paths.summary_csv, ("t", "relative_error_full", "relative_error_window"), (times, *relative_errors))
        snap = near.any(axis=1)
        _write_moments_csv(paths.moments_csv, grid, times[snap],
                           prior_mean[snap], prior_variance[snap], prior_gsm[snap])
    paths.posterior_mean = posterior_mean
    paths.relative_errors = relative_errors
    paths.truth = bundle
    return paths


def _time_x_columns(times, grid):
    """The (t, x) columns of a table with one row per time and grid point."""
    return np.repeat(times, grid.n), np.tile(grid.points, len(times))


def _write_moments_csv(path, grid, times, means, variances, gsms) -> None:
    """Ensemble mean/variance/gradient-second-moment rows at the given times."""
    write_csv(
        path,
        ("t", "x", "mean", "variance", "gsm"),
        (*_time_x_columns(times, grid), np.ravel(means), np.ravel(variances), np.ravel(gsms)),
    )


def run_free_moments(config: ExperimentConfig) -> RunArtifacts:
    """The no-assimilation moment diagnostic: write moments.csv and a manifest.

    The initial ensemble is propagated with no analysis, and its mean,
    variance and gradient second moment are written at the snapshot times:
    at least one, each on a solver step.
    """
    with _run(config, "moments") as paths:
        dt = config.dt
        if not config.snapshot_times:
            raise ConfigError("the moment diagnostic needs at least one snapshot time")
        snap_steps = []
        for t in config.snapshot_times:
            s = int(round(t / dt))
            if abs(s * dt - t) > 1e-9 * max(1.0, t) or not 0 <= s <= config.n_steps:
                raise ConfigError(f"snapshot time {t} does not land on a solver step inside the run")
            snap_steps.append(s)

        grid = config.grid()
        bundle = generate_truth(config, cache_dir=config.resolved_cache_dir())
        members = build_initial_ensemble(config, grid, config.seed)

        times, means, variances, gsms = [], [], [], []

        def record(t):
            ens = ensemble_moments(members)
            times.append(t)
            means.append(ens.mean)
            variances.append(sample_variance_diag(ens))
            gsms.append(gradient_second_moment(ens.members, grid.dx))

        if 0 in snap_steps:
            record(0.0)
        with _forecast(bundle.velocity, grid, config.solver_config(), config.ensemble_size) as (dynamics, workers):
            paths.environment["forecast_workers"] = workers
            for step in range(max(snap_steps)):
                members = dynamics(members, step)
                if (step + 1) in snap_steps:
                    record((step + 1) * dt)
        _write_moments_csv(paths.moments_csv, grid, times, means, variances, gsms)
    return paths


def run_truth_only(config: ExperimentConfig) -> RunArtifacts:
    """Generate and cache the truth, writing it as a (t, x, h, u) CSV."""
    with _run(config, "truth") as paths:
        bundle = generate_truth(config, cache_dir=config.resolved_cache_dir())
        times = np.r_[0.0, config.obs_times]
        write_csv(paths.truth_csv, ("t", "x", "h", "u"),
                  (*_time_x_columns(times, config.grid()), bundle.truth_h.ravel(), bundle.truth_u.ravel()))
    paths.truth = bundle
    return paths


def compare_runs(summary_paths, out_path, windows, labels=None):
    """Join the ``relative_error_full`` columns of summary CSVs on their (shared) time grid, aggregate over
    ``windows`` and write the table to ``out_path``.

    Returns (times, {label: values}, {window: {label: mean}}); mismatched
    time grids are rejected naming the first row that differs, or the first
    row the shorter file lacks, and so is a label given twice.  A summary
    left over from a run that did not complete is rejected
    (``require_completed``).
    """
    summary_paths = [Path(p) for p in summary_paths]
    if not summary_paths:
        raise ConfigError("no summaries to compare")
    if labels is None:
        labels = []
        for p in summary_paths:
            label = p.parent.name or p.stem
            while label in labels:
                label += "+"
            labels.append(label)
    elif len(labels) != len(summary_paths):
        raise ConfigError("labels must match the number of summaries")
    elif len(set(labels)) != len(labels):
        raise ConfigError(f"labels must be distinct, got {labels}")

    times_ref = None
    columns: dict = {}
    for label, path in zip(labels, summary_paths):
        if not path.exists():
            raise ConfigError(f"summary not found: {path}")
        require_completed(path)
        reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
        for name in ("t", "relative_error_full"):
            if reader.fieldnames is None or name not in reader.fieldnames:
                raise ConfigError(f"{path} has no '{name}' column")
        t_list, v_list = [], []
        for row in reader:
            try:
                t_list.append(float(row["t"]))
                v_list.append(float(row["relative_error_full"]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path} row {reader.line_num}: {exc}") from exc
        times = np.asarray(t_list)
        if times_ref is None:
            times_ref = times
        elif not np.array_equal(times, times_ref):
            common = min(times.size, times_ref.size)
            bad = next((i for i in range(common) if times[i] != times_ref[i]), common)
            where = f"has t={float(times[bad])}" if bad < times.size else f"lacks t={float(times_ref[bad])}"
            raise ConfigError(f"time grids differ: {path} {where} at row {bad + 2}")
        columns[label] = np.asarray(v_list)

    aggregates = {}
    for window in windows:
        lo, hi = window
        mask = in_window(times_ref, lo, hi)
        if not mask.any():
            raise ConfigError(f"window [{lo}, {hi}] contains no comparison times")
        aggregates[(lo, hi)] = {label: float(columns[label][mask].mean()) for label in labels}

    # one row per time, then one labelled row per aggregate window
    row_names = [*times_ref.tolist(), *(f"mean[{fmt17(lo)},{fmt17(hi)}]" for lo, hi in aggregates)]
    values = [[*columns[label], *(means[label] for means in aggregates.values())] for label in labels]
    write_csv(out_path, ("t", *labels), (row_names, *values))

    return times_ref, columns, aggregates
