"""The member forecast split over forked workers, the one-thread BLAS pin, and the solver loops.

Desk grids are under one face block, so they forecast in-process; the
tests force the split by shrinking ``solver._FACE_BLOCK`` and the CPU set.
The coupled solve and the forecast reuse one solver workspace per run;
the last tests check that each right-hand side still goes through
``solver.weno5_derivative`` and that a failure still names its RK stage.
"""

import ctypes
import io
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shockda
from shockda import solver
from shockda.errors import NumericalError
from shockda.harness import ExperimentConfig, config_from_manifest, experiments, generate_truth, read_manifest, run_experiment
from shockda.harness.cli import main
from shockda.harness.experiments import initial_condition


def _force_split(monkeypatch, cpus):
    """Let this process see ``cpus`` CPUs and make a desk ensemble several face blocks long."""
    monkeypatch.setattr("shockda.solver._FACE_BLOCK", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _config(tmp_path, name, **kw):
    return ExperimentConfig.for_case(
        "sparse", variant="gsm_clustered", n=41, ensemble_size=8, seed=3, t_end=0.04,
        output_dir=tmp_path / name, cache_dir=tmp_path / "cache", **kw,
    )


@pytest.mark.parametrize("order", ["C", "F"])
def test_forecast_bytes_and_layout_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, order):
    cfg = _config(tmp_path, "unused")
    bundle = generate_truth(cfg, cache_dir=cfg.cache_dir)
    rng = np.random.default_rng(5)
    start = np.array(1.0 + 0.05 * rng.standard_normal((8, cfg.n)), order=order)
    results = {}
    for cpus in (1, 2, 3):
        _force_split(monkeypatch, cpus)
        members = start
        with experiments._forecast(bundle.velocity, cfg.grid(), cfg.dt, len(start)) as (dynamics, workers):
            assert workers == cpus
            assert len(multiprocessing.active_children()) == workers - 1
            for step in range(7):
                members = dynamics(members, step)
        assert multiprocessing.active_children() == []
        assert members.flags.f_contiguous
        results[cpus] = members
    assert results[1].tobytes(order="A") == results[2].tobytes(order="A") == results[3].tobytes(order="A")


def test_split_run_writes_the_in_process_bytes_and_leaves_no_worker(tmp_path, monkeypatch):
    cfg_one = _config(tmp_path, "one")
    one = run_experiment(cfg_one)
    _force_split(monkeypatch, 2)
    split = run_experiment(_config(tmp_path, "split"))
    assert multiprocessing.active_children() == []
    for a, b in zip(one[:-1], split[:-1]):  # every CSV, not the manifest
        assert a.read_bytes() == b.read_bytes(), a.name
    assert read_manifest(one[-1])["forecast_workers"] == "1"
    mapping = read_manifest(split[-1])
    assert (mapping["forecast_workers"], mapping["status"]) == ("2", "completed")
    assert config_from_manifest(split[-1]) == _config(tmp_path, "split")


def _negative_depth_in_last_member(monkeypatch):
    """The last member, in the last worker's rows, gets a negative depth: its RK stage goes non-finite."""
    build = experiments.build_initial_ensemble

    def build_with_bad_row(config, grid, seed):
        members = build(config, grid, seed)
        members[-1, grid.n // 2] = -1.0
        return members

    monkeypatch.setattr(experiments, "build_initial_ensemble", build_with_bad_row)


def test_numerical_error_in_a_worker_fails_the_run_as_in_process(tmp_path, monkeypatch, capsys):
    _negative_depth_in_last_member(monkeypatch)
    args = ["assimilate", "--case", "sparse", "--variant", "gsm", "--n", "41", "--ensemble-size", "8"]
    assert main([*args, "--out", str(tmp_path / "one")]) == 3
    err_one = capsys.readouterr().err
    _force_split(monkeypatch, 3)
    assert main([*args, "--out", str(tmp_path / "split")]) == 3
    err_split = capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert err_split == err_one and err_one.startswith("numerical failure: non-finite state in RK stage")
    mapping = read_manifest(tmp_path / "split" / "manifest.txt")
    assert (mapping["status"], mapping["forecast_workers"]) == ("failed", "3")

    with pytest.raises(NumericalError):
        run_experiment(_config(tmp_path, "api"))
    assert multiprocessing.active_children() == []


class _Interrupt(Exception):
    pass


def test_parent_exception_mid_forecast_joins_the_workers(tmp_path, monkeypatch):
    _force_split(monkeypatch, 2)
    parent, transport = os.getpid(), experiments.transport_step

    def failing_in_parent(members, velocity, step, grid, cfg, **kwargs):
        if os.getpid() == parent and step == 3:
            raise _Interrupt("stop")
        return transport(members, velocity, step, grid, cfg, **kwargs)

    monkeypatch.setattr(experiments, "transport_step", failing_in_parent)
    with pytest.raises(_Interrupt):
        run_experiment(_config(tmp_path, "run"))
    assert multiprocessing.active_children() == []
    assert read_manifest(tmp_path / "run" / "manifest.txt")["status"] == "failed"


def test_dead_worker_fails_the_run_with_one_line_and_exit_4(tmp_path, monkeypatch, capsys):
    _force_split(monkeypatch, 2)
    parent, transport = os.getpid(), experiments.transport_step

    def dying_in_worker(members, velocity, step, grid, cfg, **kwargs):
        if os.getpid() != parent and step == 2:
            os._exit(7)
        return transport(members, velocity, step, grid, cfg, **kwargs)

    monkeypatch.setattr(experiments, "transport_step", dying_in_worker)
    out = tmp_path / "run"
    assert main(["assimilate", "--case", "sparse", "--n", "41", "--ensemble-size", "8", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert err.startswith("I/O error: forecast worker ") and err.endswith("died (exit code 7)\n"), err
    assert err.count("\n") == 1
    assert read_manifest(out / "manifest.txt")["status"] == "failed"


def _counted_weno5(monkeypatch, nan_at_call=None):
    """Replace ``solver.weno5_derivative`` as perfbench's tracer replaces a layer: record each call's
    field size (the tracer's cell count), and fill the result of call ``nan_at_call`` (from 1) with NaN."""
    real, cells = solver.weno5_derivative, []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        cells.append(args[0].size)
        if len(cells) == nan_at_call:
            out[...] = np.nan
        return out

    monkeypatch.setattr(solver, "weno5_derivative", counted)
    return cells


def _coupled_run(cfg, n_steps):
    grid = cfg.grid()
    return solver.solve_coupled_swe(initial_condition(cfg, grid), grid, cfg.dt, n_steps)


def _desk_forecast(cfg, velocity, n_steps):
    members = np.asfortranarray(1.0 + 0.05 * np.random.default_rng(5).standard_normal((8, cfg.n)))
    with experiments._forecast(velocity, cfg.grid(), cfg.dt, len(members)) as (dynamics, workers):
        assert workers == 1
        for step in range(n_steps):
            members = dynamics(members, step)
    return members


def test_every_rhs_evaluation_calls_weno5_derivative_through_the_module(tmp_path, monkeypatch):
    cfg = _config(tmp_path, "unused")
    cells = _counted_weno5(monkeypatch)
    run = _coupled_run(cfg, 12)
    assert cells == [2 * cfg.n] * (3 * 12)
    cells.clear()
    _desk_forecast(cfg, run.velocity, 7)
    assert cells == [8 * cfg.n] * (3 * 7)


def test_a_nan_mid_loop_names_its_rk_stage_and_step(tmp_path, monkeypatch):
    cfg = _config(tmp_path, "unused")
    velocity = _coupled_run(cfg, 8).velocity
    _counted_weno5(monkeypatch, nan_at_call=3 * 41 + 1)  # the first evaluation of step 42
    with pytest.raises(NumericalError, match="stage 1 at step 42"):
        _coupled_run(cfg, 50)
    monkeypatch.undo()
    _counted_weno5(monkeypatch, nan_at_call=3 * 6 + 2)  # the second evaluation of step 6 (steps from 0)
    with pytest.raises(NumericalError, match="stage 2 at step 6"):
        _desk_forecast(cfg, velocity, 8)


_ONE_CYCLE = """
import sys
from pathlib import Path
from shockda.harness import ExperimentConfig, run_experiment

# t_end is one observation stride: 5 steps of dt = 0.1 * 2 / 1000
for case, variant in (("dense", "etkf_baseline"), ("sparse", "gsm_clustered")):
    run_experiment(ExperimentConfig.for_case(case, variant=variant, n=1001, ensemble_size=100, seed=1,
                                             t_end=0.001, output_dir=Path(sys.argv[1]) / variant))
"""


def test_reference_cycle_bytes_do_not_depend_on_the_blas_environment(tmp_path):
    """One reference-size cycle (n=1001, K=100) under OPENBLAS_NUM_THREADS=1 and =2.

    numpy's OpenBLAS reads the variable as it loads; the pin puts it on one
    thread for the run whatever the variable said.
    """
    src = str(Path(shockda.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", _ONE_CYCLE, str(tmp_path / threads)],
                                capture_output=True, text=True, env=env, timeout=600)
        assert result.returncode == 0, result.stderr
    for variant in ("etkf_baseline", "gsm_clustered"):
        for name in ("solution.csv", "error.csv", "summary.csv"):
            one, two = (tmp_path / threads / variant / name for threads in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), f"{variant}/{name}"
        for threads in ("1", "2"):
            assert read_manifest(tmp_path / threads / variant / "manifest.txt")["blas_threads"] == "1"


def test_blas_pin_finds_a_library_whose_path_has_a_space(tmp_path, monkeypatch):
    # a maps line names its file from the sixth field on, spaces included
    with open("/proc/self/maps") as maps:
        line = next((line for line in maps if "openblas" in line.lower()), None)
    if line is None:
        pytest.skip("no OpenBLAS mapped into this process")
    library = Path(line[line.index("/"):].strip())
    link = tmp_path / "a b" / library.name
    link.parent.mkdir()
    link.symlink_to(library)
    monkeypatch.setattr(experiments, "open", lambda *args: io.StringIO(f"7f00-7f01 r--p 00000000 fe:00 1   {link}\n"),
                        raising=False)

    lib = ctypes.CDLL(str(library))
    prefix, suffix = next((p, s) for p, s in experiments._OPENBLAS_AFFIXES if hasattr(lib, f"{p}get_num_threads{s}"))
    get_threads, set_threads = (getattr(lib, f"{prefix}{name}_num_threads{suffix}") for name in ("get", "set"))
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    original = get_threads()
    set_threads(2)
    try:
        with experiments._one_blas_thread() as threads:
            assert threads == 1 and get_threads() == 1
        assert get_threads() == 2
    finally:
        set_threads(original)
