"""Experiment configuration, truth pipeline, artifacts, and the CLI."""

import csv
import multiprocessing
import time
import warnings

import numpy as np
import pytest

from shockda.errors import ConfigError, NumericalError
from shockda.harness import experiments
from shockda.stoker import stoker_evaluate, stoker_solve
from shockda.harness import (
    CASES,
    ExperimentConfig,
    compare_runs,
    config_from_manifest,
    generate_truth,
    read_manifest,
    run_experiment,
    run_free_moments,
    run_truth_only,
)
from shockda.harness.config import parse_config_file
from shockda.harness.experiments import SMOOTH_WINDOW, build_initial_ensemble, initial_condition, write_manifest
from shockda.harness.cli import main
from shockda.metrics import in_window, relative_error


def _small(case="dense", **kw):
    """A desk-scale config: coarse grid, small ensemble, fast runs."""
    defaults = dict(n=41, ensemble_size=8, seed=2)
    defaults.update(kw)
    return ExperimentConfig.for_case(case, **defaults)


# ------------------------------------------------------------- configuration


def test_case_presets_reproduce_reference_parameters():
    dense = ExperimentConfig.for_case("dense")
    assert dense.n == 1001
    assert dense.cfl == 0.1
    assert dense.grid().dx == pytest.approx(2e-3, rel=1e-14)
    assert dense.dt == pytest.approx(2e-4, rel=1e-14)
    assert dense.obs_stride_steps == 5  # observations every 1e-3 time units
    assert dense.t_end == 0.15
    assert dense.ensemble_size == 100
    assert dense.ic_perturb_std == 0.1
    assert dense.gamma == 0.01
    assert dense.alpha == 1.5
    assert dense.beta_max_target == 0.003
    assert dense.localization_bandwidth == 0
    assert (dense.h0, dense.h1) == (1.0, 0.8)
    assert dense.observation_operator().m == dense.n

    # the dense baseline runs unlocalized (plain inflated covariance);
    # an explicit bandwidth override is honored as given
    dense_base = ExperimentConfig.for_case("dense", variant="etkf_baseline")
    assert dense_base.localization_bandwidth is None
    forced = ExperimentConfig.for_case("dense", variant="etkf_baseline", localization_bandwidth=0)
    assert forced.localization_bandwidth == 0

    sparse = ExperimentConfig.for_case("sparse")
    assert sparse.t_end == 0.3
    assert sparse.alpha == 1.3
    assert sparse.beta_max_target == 0.0027
    assert sparse.localization_bandwidth == 1
    assert sparse.dist == 1
    assert sparse.observation_operator().m == (sparse.n + 1) // 2

    osc = ExperimentConfig.for_case("oscillatory")
    assert osc.t_end == 0.3
    assert osc.fine_refine == 20
    assert osc.observation_operator().m == (osc.n + 1) // 2

    assert CASES == ("dense", "sparse", "oscillatory")
    with pytest.raises(ConfigError):
        ExperimentConfig.for_case("coarse")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(case="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(n=5)
    with pytest.raises(ConfigError):
        ExperimentConfig(cfl=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(ensemble_size=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(t_end=0.1501)  # not a step multiple
    with pytest.raises(ConfigError):
        ExperimentConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(variant="enkf")
    # the filter settings and the depths are checked by FilterConfig and DamBreakParams, with their messages
    for settings, message in ((dict(dist=-1), "dist must be >= 0"),
                              (dict(localization_bandwidth=-1), "localization bandwidth must be >= 0"),
                              (dict(variant="etkf_baseline", alpha=1.0), "inflation alpha must exceed 1"),
                              (dict(h0=0.8, h1=1.0), "dam break requires h0 >= h1 > 0")):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.for_case("dense", **settings)


def test_config_validates_cfl():
    # dt = cfl * dx, so the step is a fraction of a cell
    for cfl in (0.0, 1.0):
        with pytest.raises(ConfigError, match="cfl must lie in"):
            ExperimentConfig(cfl=cfl)


def test_step_count_rule():
    assert _small().n_steps == 30  # dt = 0.1 * 0.05 to t_end=0.15
    # not a step multiple; shorter than one step; no step at all, by the same rule and message
    for t_end in (0.1501, 0.001, 0.0, -0.05):
        with pytest.raises(ConfigError, match=rf"t_end={t_end} is not a positive integer multiple of dt="):
            _small(t_end=t_end)


def test_a_time_within_1e9_of_a_step_is_that_step():
    # one rule for t_end and snapshot times alike: 5e-10 off a step is that step, 2e-9 off is no step
    assert _small(t_end=0.15 + 5e-10).n_steps == 30
    assert _small(t_end=3.0 - 5e-10).n_steps == 600
    for t_end in (0.15 + 2e-9, 3.0 - 2e-9):  # the tolerance does not grow with t_end
        with pytest.raises(ConfigError, match="is not a positive integer multiple of dt="):
            _small(t_end=t_end)
    cfg = _small(snapshot_times=(0.05 + 5e-10, 0.1 - 5e-10))
    assert cfg.snapshot_indices(cfg.truth_steps[1:], "an observation time") == [1, 3]  # steps 10 and 20
    assert cfg.snapshot_indices(range(cfg.n_steps + 1), "a solver step") == [10, 20]
    for t, text in ((0.05 + 2e-9, r"0\.050000002"), (-1e308, r"-1e\+308")):  # -1e308 / dt overflows to -inf
        cfg = _small(snapshot_times=(t,))
        with pytest.raises(ConfigError, match=rf"snapshot time {text} is not a solver step \(every 0\.005\)"):
            cfg.snapshot_indices(range(cfg.n_steps + 1), "a solver step")


def test_t_end_shorter_than_one_observation_stride_is_rejected(tmp_path):
    # 3 solver steps against a stride of 5 would run no assimilation cycle
    with pytest.raises(ConfigError, match="observation stride"):
        ExperimentConfig.for_case("sparse", n=61, ensemble_size=10, t_end=0.01)
    out = tmp_path / "run"
    assert main(["assimilate", "--case", "sparse", "--n", "61", "--t-end", "0.01", "--out", str(out)]) == 2
    assert not out.exists()


_BAD_SETTINGS = [
    ("assimilate", ["--t-end", "nan"], "t_end must be finite"),
    ("assimilate", ["--t-end", "inf"], "t_end must be finite"),
    ("assimilate", ["--variant", "etkf_baseline", "--alpha", "nan"], "alpha must be finite"),
    ("assimilate", ["--beta-max", "nan"], "beta_max_target must be finite"),
    ("assimilate", ["--beta-max", "inf"], "beta_max_target must be finite"),
    ("assimilate", ["--gamma=-inf"], "gamma must be finite"),
    ("moments", ["--ic-std", "nan"], "ic_perturb_std must be finite"),
    ("assimilate", ["--seed", "-1"], "seed must be nonnegative"),
    ("moments", ["--seed", "-1"], "seed must be nonnegative"),
    # gamma^2 used to overflow (an OverflowError traceback) or underflow to 0 after the truth was computed
    ("assimilate", ["--gamma", "1e300"], "gamma must be positive with a finite, nonzero square"),
    ("assimilate", ["--gamma", "1e-200"], "gamma must be positive with a finite, nonzero square"),
    # a run too large for any machine used to fail in np.arange or np.empty, a zero dt in the step count
    ("assimilate", ["--t-end", "1e300"], "t_end=1e+300 is 2e+302 steps, whose velocity history of"),
    ("assimilate", ["--cfl", "1e-300"], "t_end=0.15 is 3e+300 steps, whose velocity history of"),
    ("moments", ["--t-end", "1e300"], "t_end=1e+300 is 2e+304 steps, whose velocity history of"),
    ("assimilate", ["--cfl", "5e-324"], "t_end=0.15 is no finite number of steps of dt=0.0"),
    ("truth", ["--n", "100000000000", "--t-end", "0.05"], "t_end=0.05 is 2.5e+10 steps, whose velocity history of"),
    # flag values are parsed like config-file values, not by argparse and its usage block
    ("assimilate", ["--n", "abc"], "config key 'n' has invalid value 'abc'"),
    ("assimilate", ["--dist", "1e3"], "config key 'dist' has invalid value '1e3'"),
    ("assimilate", ["--case", "bogus"], "unknown case 'bogus'"),
    ("assimilate", ["--variant", "enkf"], "unknown variant 'enkf'"),
    # argparse's own usage errors are one config error line too
    ("assimilate", ["--alpha", "-1e-5"], "argument --alpha: expected one argument"),
    ("assimilate", ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # a member stack too large for any machine (298 TiB) used to fail in build_initial_ensemble after the truth
    ("assimilate", ["--ensemble-size", "1000000000000"], "ensemble_size=1000000000000 at n=41 is 4.1e+13 cells, whose member stack of"),
    ("moments", ["--ensemble-size", "1000000000000"], "ensemble_size=1000000000000 at n=41 is 4.1e+13 cells, whose member stack of"),
]


@pytest.mark.parametrize("command, flags, message", _BAD_SETTINGS,
                         ids=[f"{command}-flags{i}" for i, (command, _, _) in enumerate(_BAD_SETTINGS)])
def test_a_non_finite_setting_is_a_config_error_before_any_truth(tmp_path, capsys, command, flags, message):
    # a NaN fails every range comparison, so it used to reach the solver or the filter;
    # a negative seed used to fail in numpy's generator after the truth was computed
    argv = [command, "--case", "dense", "--n", "41", "--ensemble-size", "5", *flags, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []  # no run directory, no truth cache


def test_an_oversize_fine_grid_is_a_config_error_for_the_oscillatory_case_only(tmp_path, capsys):
    # a 2e13-point reference grid (146 TiB a row, 7 rows recorded) used to fail in np.arange after the coarse truth
    config = tmp_path / "huge.cfg"
    config.write_text("fine_refine = 1000000000000\n")
    argv = ["truth", "--case", "oscillatory", "--n", "21", "--config", str(config), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: fine_refine=1000000000000 at n=21 is 2e+13 points, whose recorded fine depth of")
    assert err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [config]  # no run directory, no truth cache
    # dense and sparse truths never build the fine grid, so the same setting stays valid there
    for case in ("dense", "sparse"):
        assert ExperimentConfig.for_case(case, n="21", fine_refine="1000000000000").fine_refine == 10**12


def test_observation_schedule():
    cfg = _small()
    # dt = 0.1 * 0.05, 30 steps to t_end=0.15, analysis every 5th step
    assert cfg.n_steps == 30
    assert list(cfg.truth_steps) == [0, 5, 10, 15, 20, 25, 30]  # step 0, then each analysis
    np.testing.assert_allclose(cfg.obs_times, np.arange(1, 7) * 0.025, rtol=1e-14)


def test_initial_condition_profiles():
    cfg = _small()
    grid = cfg.grid()
    h = initial_condition(cfg, grid)
    np.testing.assert_array_equal(h, np.where(grid.points < 0.0, 1.0, 0.8))

    osc = _small("oscillatory")
    h = initial_condition(osc, osc.grid())
    x = osc.grid().points
    i = int(np.argmin(np.abs(x - (-0.75))))
    assert x[i] == pytest.approx(-0.75, abs=1e-12)
    assert h[i] == pytest.approx(1.0 + 0.03 * np.sin(-22.5), rel=1e-14)
    # plateau between the oscillating stretch and the dam
    j = int(np.argmin(np.abs(x - (-0.25))))
    assert h[j] == 1.0
    assert h[-1] == 0.8


def test_build_initial_ensemble_statistics_and_determinism():
    cfg = ExperimentConfig.for_case("dense")  # n=1001, K=100
    grid = cfg.grid()
    members = build_initial_ensemble(cfg, grid, seed=1)
    assert members.shape == (100, 1001) and members.flags.f_contiguous
    anomalies = members - initial_condition(cfg, grid)
    assert anomalies.std() == pytest.approx(0.1, abs=0.005)
    again = build_initial_ensemble(cfg, grid, seed=1)
    np.testing.assert_array_equal(members, again)
    other = build_initial_ensemble(cfg, grid, seed=2)
    assert not np.array_equal(members, other)

    flat = _small(ic_perturb_std=0.0)
    members0 = build_initial_ensemble(flat, flat.grid(), seed=1)
    np.testing.assert_array_equal(members0, np.tile(initial_condition(flat, flat.grid()), (8, 1)))


# ------------------------------------------------------------ truth pipeline


def test_truth_dense_right_state_before_shock_arrival(tmp_path):
    cfg = _small()
    bundle = generate_truth(cfg, cache_dir=tmp_path)

    inter = stoker_solve(cfg)
    h_exact, u_exact = stoker_evaluate(cfg, inter, cfg.grid().points, float(cfg.obs_times[-1]))
    np.testing.assert_array_equal(bundle.truth_h[-1], h_exact)  # the analytic solution, not a solver run
    np.testing.assert_array_equal(bundle.truth_u[-1], u_exact)
    assert inter.s * cfg.t_end < 0.5  # shock has not yet reached x = 0.5
    grid = cfg.grid()
    i = int(np.argmin(np.abs(grid.points - 0.5)))
    assert grid.points[i] == pytest.approx(0.5, abs=1e-12)
    assert bundle.truth_h[-1, i] == pytest.approx(0.8, abs=1e-14)

    assert bundle.truth_h.shape == (cfg.obs_times.size + 1, cfg.n)
    np.testing.assert_array_equal(bundle.truth_h[0], initial_condition(cfg, grid))


def test_truth_degenerate_flat_state(tmp_path):
    cfg = _small(h1=1.0)
    bundle = generate_truth(cfg, cache_dir=tmp_path)
    np.testing.assert_array_equal(bundle.truth_h, np.ones_like(bundle.truth_h))
    np.testing.assert_array_equal(bundle.truth_u, np.zeros_like(bundle.truth_u))
    assert np.max(np.abs(bundle.velocity)) == 0.0


def test_truth_oscillatory_reference(tmp_path, monkeypatch):
    cfg = _small("oscillatory", fine_refine=4, cache_dir=tmp_path / "cache")
    runs = []
    real = experiments.solve_coupled_swe

    def recorded(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(experiments, "solve_coupled_swe", recorded)
    bundle = generate_truth(cfg, cache_dir=cfg.resolved_cache_dir())
    # the fine reference runs fine_refine steps per coarse step, to the same t_end
    assert [run.n_steps for run in runs] == [cfg.n_steps, cfg.fine_refine * cfg.n_steps]
    # the reference velocity is the coarse run's, at the truth steps
    np.testing.assert_array_equal(bundle.truth_u, bundle.velocity[cfg.truth_steps])
    grid = cfg.grid()
    np.testing.assert_allclose(bundle.truth_h[0], initial_condition(cfg, grid), atol=1e-12)
    assert bundle.truth_h.shape == (cfg.obs_times.size + 1, cfg.n)
    # depths stay within the physically sensible bracket
    assert bundle.truth_h.min() > 0.5 and bundle.truth_h.max() < 1.1


def _count_coupled_solves(monkeypatch):
    """Record each solve_coupled_swe call the truth pipeline makes from now on."""
    calls = []
    real = experiments.solve_coupled_swe

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_coupled_swe", counted)
    return calls


def test_truth_cache_round_trip(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    configs = [_small(cache_dir=cache), _small(h1=0.9, cache_dir=cache)]
    first = generate_truth(configs[0], cache_dir=cache)
    (entry,) = cache.iterdir()
    assert entry.suffix == ".npz"

    # a second geometry adds its own file beside the first
    other = generate_truth(configs[1], cache_dir=cache)
    assert not np.array_equal(other.truth_h, first.truth_h)
    assert len(list(cache.iterdir())) == 2 and entry.exists()

    # and both geometries now hit: no coupled solve runs
    calls = _count_coupled_solves(monkeypatch)
    for cfg, fresh in zip(configs, (first, other)):
        again = generate_truth(cfg, cache_dir=cache)
        np.testing.assert_array_equal(again.truth_h, fresh.truth_h)
        np.testing.assert_array_equal(again.truth_u, fresh.truth_u)
        np.testing.assert_array_equal(again.velocity, fresh.velocity)
    assert calls == []


def test_truth_cache_entry_with_the_former_kind_array_is_a_hit(tmp_path, monkeypatch):
    # entries written before the bundle lost its kind field carry one more array
    cache = tmp_path / "cache"
    cfg = _small(cache_dir=cache)
    fresh = generate_truth(cfg, cache_dir=cache)
    (entry,) = cache.iterdir()
    with np.load(entry) as stored:
        arrays = dict(stored)
    assert "kind" not in arrays
    np.savez(entry, **arrays, kind=np.array("analytic"))

    calls = _count_coupled_solves(monkeypatch)
    loaded = generate_truth(cfg, cache_dir=cache)
    assert calls == []
    np.testing.assert_array_equal(loaded.velocity, fresh.velocity)
    np.testing.assert_array_equal(loaded.truth_h, fresh.truth_h)
    np.testing.assert_array_equal(loaded.truth_u, fresh.truth_u)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:100])


def _wrong_shape(path):
    with np.load(path) as stored:
        entry = dict(stored)
    entry["h"] = entry["h"][:3]
    np.savez(path, **entry)


def _wrong_fingerprint(path):
    # another geometry's entry under this geometry's file name
    other = _small("sparse", h1=0.9)
    bundle = generate_truth(other, cache_dir=path.parent.parent / "other_cache")
    experiments._save_truth_cache(path, experiments._truth_fingerprint(other), bundle)


@pytest.mark.parametrize("corrupt", [_truncate, _wrong_shape, _wrong_fingerprint])
def test_corrupt_truth_cache_entry_is_recomputed(tmp_path, corrupt):
    cache = tmp_path / "cache"
    fresh = run_experiment(_small("sparse", output_dir=tmp_path / "fresh", cache_dir=cache))
    truth = generate_truth(_small("sparse"), cache_dir=cache)  # the fresh run's, from the cache
    (entry,) = cache.iterdir()
    corrupt(entry)
    rerun = run_experiment(_small("sparse", output_dir=tmp_path / "rerun", cache_dir=cache))
    for a, b in zip(fresh[:-1], rerun[:-1]):  # every CSV, not the manifest
        assert a.read_bytes() == b.read_bytes(), a.name
    assert read_manifest(rerun[-1])["status"] == "completed"
    # the rerun overwrote the entry with the recomputed arrays
    assert list(cache.iterdir()) == [entry]
    with np.load(entry) as stored:
        np.testing.assert_array_equal(stored["u"], truth.velocity)
        np.testing.assert_array_equal(stored["h"], truth.truth_h)
        np.testing.assert_array_equal(stored["tu"], truth.truth_u)


def _save_repeatedly(barrier, entry, fingerprint, bundle, times):
    barrier.wait(timeout=60)
    for _ in range(times):
        experiments._save_truth_cache(entry, fingerprint, bundle)


def test_concurrent_writers_of_one_cache_key(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cfg = _small(cache_dir=cache)
    fresh = generate_truth(cfg, cache_dir=cache)
    fingerprint = experiments._truth_fingerprint(cfg)
    (entry,) = cache.iterdir()
    entry.unlink()

    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    writers = [ctx.Process(target=_save_repeatedly, args=(barrier, entry, fingerprint, fresh, 50), daemon=True)
               for _ in range(2)]
    for w in writers:
        w.start()
    # while they write, every entry a reader finds is a whole one
    misses, deadline = 0, time.monotonic() + 120
    while any(w.is_alive() for w in writers) and time.monotonic() < deadline:
        if entry.exists() and experiments._load_truth_cache(entry, fingerprint, cfg) is None:
            misses += 1
    for w in writers:
        w.join(timeout=10)
    assert [w.exitcode for w in writers] == [0, 0]
    assert misses == 0

    assert list(cache.iterdir()) == [entry]  # no temporary file remains
    calls = _count_coupled_solves(monkeypatch)
    loaded = generate_truth(cfg, cache_dir=cache)
    assert calls == []
    np.testing.assert_array_equal(loaded.velocity, fresh.velocity)
    np.testing.assert_array_equal(loaded.truth_h, fresh.truth_h)
    np.testing.assert_array_equal(loaded.truth_u, fresh.truth_u)


# ------------------------------------------------- manifests and config files


def test_manifest_round_trip(tmp_path):
    cfg = _small("sparse", seed=5, output_dir=tmp_path / "run", gamma=0.02)
    path = tmp_path / "manifest.txt"
    write_manifest(path, cfg, status="completed", environment={})
    mapping = read_manifest(path)
    assert mapping["status"] == "completed"
    assert mapping["case"] == "sparse"
    assert "shockda_version" in mapping
    assert config_from_manifest(path) == cfg
    with pytest.raises(ConfigError):
        read_manifest(tmp_path / "missing.txt")

    # keys are read by name, so a manifest in the order before the config inherited its h0..dist fields replays
    # too; manifests written while obs_stride_steps was a field hold it after gamma, and replay at its value only
    case_first = ("case", "variant", "n", "cfl", "t_end", "ensemble_size", "ic_perturb_std", "gamma",
                  "alpha", "beta_max_target", "dist", "localization_bandwidth", "seed",
                  "output_dir", "h0", "h1", "fine_refine", "snapshot_times", "cache_dir")
    items = dict(cfg.to_items())
    assert sorted(case_first) == sorted(items) and list(items) != list(case_first)
    assert "obs_stride_steps" not in items
    for order in (case_first, list(items)):
        lines = [f"{k} = {items[k]}\n" for k in order]
        lines.insert(order.index("gamma") + 1, "obs_stride_steps = 5\n")
        path_older = tmp_path / "manifest_older.txt"
        path_older.write_text("".join(lines) + "status = completed\n")
        assert config_from_manifest(path_older) == cfg
        path_older.write_text(path_older.read_text().replace("obs_stride_steps = 5", "obs_stride_steps = 3"))
        with pytest.raises(ConfigError, match="obs_stride_steps is fixed at 5 solver steps"):
            config_from_manifest(path_older)

    # an unmasked run (bandwidth none) survives the text round trip
    cfg_full = _small("dense", variant="etkf_baseline", output_dir=tmp_path / "full")
    assert cfg_full.localization_bandwidth is None
    path_full = tmp_path / "manifest_full.txt"
    write_manifest(path_full, cfg_full, status="completed", environment={})
    assert read_manifest(path_full)["localization_bandwidth"] == "none"
    assert config_from_manifest(path_full) == cfg_full


def test_manifest_value_with_a_hash_round_trips_verbatim(tmp_path):
    # a manifest value is read whole: unlike a config file, " #" there starts no comment
    cfg = _small(output_dir=tmp_path / "runs" / "run #1")
    path = tmp_path / "manifest.txt"
    write_manifest(path, cfg, status="completed", environment={})
    assert config_from_manifest(path) == cfg
    assert config_from_manifest(path).output_dir.name == "run #1"


def test_manifest_failure_records_error(tmp_path):
    cfg = _small(output_dir=tmp_path)
    path = tmp_path / "manifest.txt"
    write_manifest(path, cfg, status="failed", environment={}, error="depth went negative\nat step 3")
    mapping = read_manifest(path)
    assert mapping["status"] == "failed"
    assert mapping["error"] == "depth went negative"


def test_a_path_that_would_not_read_back_from_the_manifest_is_a_config_error(tmp_path, monkeypatch, capsys):
    # a manifest holds one stripped value per line: a line break in a path wrote a line of its own
    # (here seed = 5, which a replay then ran), and surrounding whitespace did not read back
    monkeypatch.chdir(tmp_path)
    assert main(["truth", "--n", "21", "--t-end", "0.05", "--out", "runs/a\nseed = 5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir must be one line") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []
    for key in ("output_dir", "cache_dir"):
        for text in ("runs/a\nseed = 5", "runs/a\u2028x", "runs/a\n", " runs/a", "runs/a\t"):
            with pytest.raises(ConfigError, match=f"^{key} must be one line"):
                ExperimentConfig(**{key: text})
        # a space or a '#' inside the path is kept
        cfg = ExperimentConfig(**{key: "runs/a b#1"})
        write_manifest(tmp_path / "manifest.txt", cfg, status="completed", environment={})
        assert config_from_manifest(tmp_path / "manifest.txt") == cfg
    # the manifest writes None as none, so a cache_dir of that text would replay with the default cache;
    # an output_dir has no None and reads back as the path none
    for text in ("none", "None", "NONE"):
        with pytest.raises(ConfigError, match="^cache_dir"):
            ExperimentConfig(cache_dir=text)
    cfg = ExperimentConfig(output_dir="none")
    write_manifest(tmp_path / "manifest.txt", cfg, status="completed", environment={})
    assert config_from_manifest(tmp_path / "manifest.txt") == cfg


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # sparse observation study
        case = sparse
        n = 61         # coarse desk grid
        seed = 7
        output_dir = runs/run#1

        variant = gsm_clustered
        """
    )
    mapping = parse_config_file(path)
    assert mapping == {"case": "sparse", "n": "61", "seed": "7", "output_dir": "runs/run#1", "variant": "gsm_clustered"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("n 61\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(bad)
    bad.write_bytes(b"n = 41\n\xff\xfe = 3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg: 'utf-8' codec can't decode byte 0xff"):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "nope.cfg")


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.for_case("dense", inflation="1.5")


def test_gravity_and_the_dam_position_are_not_config_keys(tmp_path):
    # g = 9.81 and the dam at x = 0 are constants, so a setting or a manifest line of either is rejected by name
    with pytest.raises(ConfigError, match=r"unknown config keys: \['g'\]"):
        ExperimentConfig.for_case("dense", g="9.81")
    path = tmp_path / "manifest.txt"
    write_manifest(path, _small(output_dir=tmp_path / "run"), status="completed", environment={})
    path.write_text(path.read_text() + "x_dam = 0\n")
    with pytest.raises(ConfigError, match=r"unknown config keys: \['x_dam'\]"):
        config_from_manifest(path)


# --------------------------------------------------------------- experiments


def test_run_experiment_writes_artifacts_and_is_reproducible(tmp_path):
    base = dict(ensemble_size=8, seed=2, cache_dir=tmp_path / "cache")
    cfg_a = _small(output_dir=tmp_path / "a", **base)
    cfg_b = _small(output_dir=tmp_path / "b", **base)
    arts_a = run_experiment(cfg_a)
    arts_b = run_experiment(cfg_b)

    for written in (arts_a, arts_b):
        for p in written:
            assert p.exists(), p

    for name in ("solution.csv", "error.csv", "summary.csv", "moments.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    man_a = read_manifest(tmp_path / "a" / "manifest.txt")
    man_b = read_manifest(tmp_path / "b" / "manifest.txt")
    assert man_a["status"] == man_b["status"] == "completed"
    diff = {k for k in man_a if man_a[k] != man_b[k]}
    assert diff == {"output_dir"}

    with open(tmp_path / "a" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg_a.obs_times.size
    rel = np.array([float(r["relative_error_full"]) for r in rows])
    assert np.all(rel >= 0.0) and np.all(np.isfinite(rel))


def test_run_experiment_sparse_blanks_unobserved_points(tmp_path):
    cfg = _small("sparse", variant="gsm_clustered", output_dir=tmp_path / "run", cache_dir=tmp_path / "cache")
    solution_csv, _, _, summary_csv, _ = run_experiment(cfg)
    with open(solution_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # first analysis time, observed point 0 and unobserved point 1
    assert rows[0]["obs"] != ""
    assert rows[1]["obs"] == ""
    assert float(rows[0]["truth"]) == 1.0

    # both error curves are over the analysis times, the second restricted to the smooth window
    full, windowed = np.loadtxt(summary_csv, delimiter=",", skiprows=1, usecols=(1, 2), unpack=True)
    window = in_window(cfg.grid().points, *SMOOTH_WINDOW)
    posterior = np.array([float(r["posterior_mean"]) for r in rows[: cfg.n]])  # the first analysis
    truth = generate_truth(cfg, cache_dir=cfg.cache_dir).truth_h[1]
    assert windowed[0] == relative_error(posterior[window], truth[window])
    assert full.shape == windowed.shape == cfg.obs_times.shape


@pytest.mark.parametrize("case, variant", [("dense", "gsm"), ("sparse", "gsm_clustered")])
def test_summary_is_recomputed_from_the_solution_table(tmp_path, case, variant):
    # sum|posterior - truth| / sum|truth| per analysis, over the domain and the smooth-window cells,
    # from the written solution.csv alone
    cfg = _small(case, variant=variant, output_dir=tmp_path / "run", cache_dir=tmp_path / "cache")
    solution_csv, _, _, summary_csv, _ = run_experiment(cfg)
    with open(solution_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    shape = (cfg.obs_times.size, cfg.n)
    x, truth, posterior = (np.array([float(r[k]) for r in rows]).reshape(shape)
                           for k in ("x", "truth", "posterior_mean"))
    window = in_window(x[0], -0.39, 0.39)
    with open(summary_csv, newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == shape[0]
    for p, t, r in zip(posterior, truth, summary):
        assert float(r["relative_error_full"]) == np.sum(np.abs(p - t)) / np.sum(np.abs(t))
        assert float(r["relative_error_window"]) == np.sum(np.abs(p[window] - t[window])) / np.sum(np.abs(t[window]))


def test_run_experiment_degenerate_flat_truth_is_recovered(tmp_path):
    cfg = _small(h1=1.0, ic_perturb_std=0.01, gamma=1e-8,
                 output_dir=tmp_path / "run", cache_dir=tmp_path / "cache")
    summary_csv = run_experiment(cfg)[3]
    with open(summary_csv, newline="") as fh:
        rel = [float(r["relative_error_full"]) for r in csv.DictReader(fh)]
    assert max(rel) < 1e-6


def test_run_experiment_failure_writes_manifest(tmp_path):
    # cfl 0.5 puts the analyses 0.125 apart, so the snapshot is moved onto one
    cfg = _small(h0=10.0, h1=1e-4, cfl=0.5, ensemble_size=4, snapshot_times=(0.125,),
                 output_dir=tmp_path / "run", cache_dir=tmp_path / "cache")
    with pytest.raises(NumericalError):
        run_experiment(cfg)
    mapping = read_manifest(tmp_path / "run" / "manifest.txt")
    assert mapping["status"] == "failed"
    assert mapping["error"]


def test_run_truth_only_failure_writes_manifest(tmp_path):
    cfg = _small(h0=10.0, h1=1e-4, cfl=0.5, output_dir=tmp_path / "truth", cache_dir=tmp_path / "cache")
    with pytest.raises(NumericalError):
        run_truth_only(cfg)
    mapping = read_manifest(tmp_path / "truth" / "manifest.txt")
    assert mapping["status"] == "failed"
    assert mapping["error"]


def test_truth_cache_shared_across_variants(tmp_path, monkeypatch):
    kw = dict(ensemble_size=8, seed=2, cache_dir=tmp_path / "cache")
    configs = [_small(variant=variant, output_dir=tmp_path / variant, **kw) for variant in ("gsm", "etkf_baseline")]
    written = [run_experiment(cfg) for cfg in configs]
    calls = _count_coupled_solves(monkeypatch)
    truth_w, truth_b = (generate_truth(cfg, cache_dir=cfg.cache_dir) for cfg in configs)
    assert calls == []  # both variants' truth is the one cached entry
    np.testing.assert_array_equal(truth_w.velocity, truth_b.velocity)
    np.testing.assert_array_equal(truth_w.truth_h, truth_b.truth_h)
    # same synthesized observations, so the prior at the first analysis (solution.csv's first n rows) matches
    n = truth_w.truth_h.shape[1]
    priors = [np.loadtxt(paths[0], delimiter=",", skiprows=1, usecols=4, max_rows=n) for paths in written]
    np.testing.assert_array_equal(*priors)


def test_run_truth_only_and_free_moments(tmp_path):
    cfg = _small(output_dir=tmp_path / "truth", cache_dir=tmp_path / "cache",
                 snapshot_times=(0.05, 0.10, 0.15))
    truth_csv, _ = run_truth_only(cfg)
    assert truth_csv.exists()
    with open(truth_csv, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "x", "h", "u"]

    mom_cfg = _small(output_dir=tmp_path / "moments", cache_dir=tmp_path / "cache",
                     snapshot_times=(0.05, 0.10, 0.15))
    moments_csv, _ = run_free_moments(mom_cfg)
    with open(moments_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = sorted({row["t"] for row in rows})
    assert len(times) == 3
    assert len(rows) == 3 * cfg.n
    assert all(float(r["variance"]) >= 0.0 and float(r["gsm"]) >= 0.0 for r in rows)

    bad = _small(snapshot_times=(0.0511,), output_dir=tmp_path / "bad", cache_dir=tmp_path / "cache")
    with pytest.raises(ConfigError):
        run_free_moments(bad)
    assert read_manifest(tmp_path / "bad" / "manifest.txt")["status"] == "failed"


def test_compare_runs_self_and_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("t,relative_error_full,relative_error_window\n0.1,0.5,0.4\n0.2,0.25,0.2\n")
    b = tmp_path / "b.csv"
    b.write_text("t,relative_error_full,relative_error_window\n0.1,0.5,0.4\n0.2,0.25,0.2\n")

    out = tmp_path / "cmp.csv"
    times, columns, aggregates = compare_runs([a, b], out, [(0.1, 0.2)], labels=["one", "two"])
    np.testing.assert_array_equal(times, [0.1, 0.2])
    np.testing.assert_array_equal(columns["one"], columns["two"])
    agg = aggregates[(0.1, 0.2)]
    assert agg["one"] == agg["two"] == pytest.approx(0.375)
    text = out.read_text()
    assert text.splitlines()[0] == "t,one,two"
    assert "mean[" in text

    c = tmp_path / "c.csv"
    c.write_text("t,relative_error_full,relative_error_window\n0.1,0.5,0.4\n0.3,0.25,0.2\n")
    with pytest.raises(ConfigError, match=r"time grids differ: .*c\.csv has t=0\.3 at row 3$"):
        compare_runs([a, c], out, [])
    # a shorter summary is named by the first row it lacks, with t as a plain float
    short = tmp_path / "short.csv"
    short.write_text("t,relative_error_full,relative_error_window\n0.1,0.5,0.4\n")
    with pytest.raises(ConfigError, match=r"time grids differ: .*short\.csv lacks t=0\.2 at row 3$"):
        compare_runs([a, short], out, [])
    with pytest.raises(ConfigError, match=r"time grids differ: .*a\.csv has t=0\.2 at row 3$"):
        compare_runs([short, a], out, [])
    d = tmp_path / "d.csv"
    d.write_text("t,other\n0.1,0.5\n")
    with pytest.raises(ConfigError, match="relative_error_full"):
        compare_runs([a, d], out, [])
    with pytest.raises(ConfigError):
        compare_runs([], out, [])
    with pytest.raises(ConfigError):
        compare_runs([a, b], out, [], labels=["only-one"])


def test_compare_rejects_duplicate_labels(tmp_path, capsys):
    # a repeated label would key both summaries to one column and write the later one twice
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,relative_error_full\n0.1,0.5\n")
    b.write_text("t,relative_error_full\n0.1,0.9\n")
    out = tmp_path / "c.csv"
    with pytest.raises(ConfigError, match="distinct"):
        compare_runs([a, b], out, [], labels=["x", "x"])
    assert main(["compare", str(a), str(b), "--label", "x", "--label", "x", "--out", str(out)]) == 2
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


def test_compare_keeps_the_time_column_apart_from_the_run_labels(tmp_path, capsys):
    # a run directory named t would head a second t column, which csv.DictReader reads as the time
    for name, value in (("t", 0.5), ("a", 0.9)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.csv").write_text(f"t,relative_error_full\n0.1,{value}\n")
    summaries = [str(tmp_path / "t" / "summary.csv"), str(tmp_path / "a" / "summary.csv")]
    out = tmp_path / "g.csv"
    assert main(["compare", *summaries, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["t", "t+", "a"]
    assert [float(rows[0][k]) for k in ("t", "t+", "a")] == [0.1, 0.5, 0.9]

    for label in ("t", ""):
        out.unlink(missing_ok=True)
        assert main(["compare", *summaries, "--label", label, "--label", "b", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not out.exists()


# ----------------------------------------------------------------------- CLI


def test_cli_truth_and_config_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"case = sparse\nn = 61\nseed = 7\ncache_dir = {tmp_path / 'cache'}\n")
    out = tmp_path / "out"
    code = main(["truth", "--config", str(cfg_file), "--seed", "9", "--out", str(out)])
    assert code == 0
    assert "truth.csv" in capsys.readouterr().out

    mapping = read_manifest(out / "manifest.txt")
    assert mapping["case"] == "sparse"  # from the file
    assert mapping["n"] == "61"  # from the file
    assert mapping["seed"] == "9"  # flag wins over the file
    assert float(mapping["t_end"]) == 0.3  # sparse preset

    out2 = tmp_path / "out2"
    code = main([
        "truth", "--config", str(cfg_file), "--bandwidth", "none", "--out", str(out2),
    ])
    assert code == 0
    assert read_manifest(out2 / "manifest.txt")["localization_bandwidth"] == "none"
    assert main(["truth", "--case", "dense", "--bandwidth", "wide"]) == 2


def test_cli_assimilate_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "assimilate", "--case", "dense", "--variant", "gsm", "--n", "41",
        "--ensemble-size", "8", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert (out / "summary.csv").exists()
    # the manifest regenerates the identical run
    cfg = config_from_manifest(out / "manifest.txt")
    assert cfg.variant == "gsm" and cfg.n == 41 and cfg.seed == 3


def test_cli_moments_defaults(tmp_path, capsys):
    out = tmp_path / "moments"
    code = main(["moments", "--n", "41", "--cfl", "0.01", "--out", str(out), "--seed", "1"])
    assert code == 0
    mapping = read_manifest(out / "manifest.txt")
    # the diagnostic's own defaults, distinct from the experiment presets
    assert float(mapping["ic_perturb_std"]) == 0.05
    assert float(mapping["t_end"]) == 0.15
    assert (out / "moments.csv").exists()


def test_cli_assimilate_rejects_a_snapshot_time_off_the_observation_grid(tmp_path, capsys):
    # 0.0123 matches no analysis time, so moments.csv used to be a header alone
    out = tmp_path / "run"
    cfg = _write_cfg(tmp_path, "snapshot_times = 0.05, 0.0123\n")
    assert main(["assimilate", "--n", "41", "--ensemble-size", "5", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: snapshot time 0.0123 is not an observation time (every 0.025)\n"
    assert read_manifest(out / "manifest.txt")["status"] == "failed"
    assert not (tmp_path / "truth_cache").exists()  # rejected before any truth

    # a time after t_end stays ignored, as in the reference workloads
    cfg = _write_cfg(tmp_path, "snapshot_times = 0.05, 0.5\n")
    assert main(["assimilate", "--n", "41", "--ensemble-size", "5", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "moments.csv", newline="") as f:
        (t,) = {float(row["t"]) for row in csv.DictReader(f)}
    assert t == pytest.approx(0.05, abs=1e-9)


def test_cli_baseline_transform_that_cannot_be_decomposed_exits_3(tmp_path, capsys):
    # alpha = 1e200 overflows the K x K system; eigh used to raise LinAlgError out of main
    out = tmp_path / "run"
    argv = ["assimilate", "--n", "21", "--ensemble-size", "4", "--variant", "etkf_baseline", "--alpha", "1e200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would be a second stderr line
        assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: transform system") and err.count("\n") == 1, err
    mapping = read_manifest(out / "manifest.txt")
    assert mapping["status"] == "failed" and mapping["error"].startswith("transform system")


def test_cli_moments_ignores_snapshot_times_after_t_end(tmp_path, capsys):
    # of the default snapshot times 0.05, 0.1 and 0.15, only 0.05 is inside a run to 0.05, as for assimilate
    out = tmp_path / "moments"
    assert main(["moments", "--n", "41", "--ensemble-size", "4", "--t-end", "0.05", "--out", str(out)]) == 0
    with open(out / "moments.csv", newline="") as f:
        (t,) = {float(row["t"]) for row in csv.DictReader(f)}
    assert t == pytest.approx(0.05, abs=1e-9)
    capsys.readouterr()
    # a run that ends before every snapshot time has nothing to write
    assert main(["moments", "--n", "41", "--ensemble-size", "4", "--t-end", "0.04", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: the moment diagnostic needs at least one snapshot time up to t_end=0.04\n"


def test_cli_moments_without_snapshot_times_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "moments"
    cfg = _write_cfg(tmp_path, "snapshot_times =\n")
    assert main(["moments", "--n", "41", "--cfl", "0.01", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "snapshot time" in err
    assert read_manifest(out / "manifest.txt")["status"] == "failed"


@pytest.mark.parametrize("command, flags, spacing", [
    ("assimilate", [], "an observation time (every 0.025)"),
    ("moments", ["--cfl", "0.01"], "a solver step (every 0.0005)"),
])
def test_snapshot_times_resolve_by_one_rule_in_both_commands(tmp_path, capsys, command, flags, spacing):
    # a snapshot time up to t_end lands on the step nearest it if it lies within 1e-9 of it: an analysis
    # step for assimilate, any solver step for moments; a time that misses is rejected before any truth
    def run(times):
        out = tmp_path / "run"
        cfg = _write_cfg(tmp_path, f"snapshot_times = {times}\n")
        argv = [command, "--n", "41", "--ensemble-size", "4", "--t-end", "0.05", *flags]
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
        if code != 0:
            return code, capsys.readouterr().err
        with open(out / "moments.csv", newline="") as f:
            return code, sorted({float(row["t"]) for row in csv.DictReader(f)})

    for off_grid in ("0.049999998", "0.0123"):  # 2e-9 before the step at 0.05, and between steps
        assert run(off_grid) == (2, f"config error: snapshot time {off_grid} is not {spacing}\n")
    assert not (tmp_path / "truth_cache").exists()
    assert run("0.0499999995") == (0, [pytest.approx(0.05, abs=1e-15)])  # 5e-10 before it
    # t = 0 is the initial ensemble: a solver step, but no analysis
    if command == "moments":
        assert run("0, 0.05") == (0, [0.0, pytest.approx(0.05, abs=1e-15)])
    else:
        assert run("0, 0.05") == (2, f"config error: snapshot time 0.0 is not {spacing}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (b"time,relative_error_full\n0.1,0.5\n", r"s\.csv has no 't' column"),
        (b"t,relative_error_full\n0.1,0.5\n0.2,oops\n", r"s\.csv row 3: .*'oops'"),
        (b"t,relative_error_full\n0.1,0.5\n0.2\n", r"s\.csv row 3"),
        (b"t,relative_error_full\n0.1,0.5\n0.2,0.\xff\n", r"s\.csv: 'utf-8' codec can't decode byte 0xff"),
        (b"t,relative_error_full\n0.1,nan\n0.2,0.5\n", r"s\.csv row 2: t=0\.1 and relative_error_full=nan must both be finite"),
        (b"t,relative_error_full\n0.1,0.5\n0.2,inf\n", r"s\.csv row 3: t=0\.2 and relative_error_full=inf must both be finite"),
        (b"t,relative_error_full\n0.1,0.5\nnan,0.5\n", r"s\.csv row 3: t=nan and relative_error_full=0\.5 must both be finite"),
    ],
    ids=["no t column", "non-numeric cell", "short row", "not utf-8", "nan value", "inf value", "nan t"],
)
def test_compare_rejects_a_malformed_summary(tmp_path, capsys, text, message):
    summary = tmp_path / "s.csv"
    summary.write_bytes(text)
    with pytest.raises(ConfigError, match=message):
        compare_runs([summary], tmp_path / "c.csv", [])
    assert main(["compare", str(summary), "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "c.csv").exists()


def test_cli_error_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("inflation = 1.5\n")
    assert main(["truth", "--config", str(bad_cfg), "--out", str(tmp_path / "x")]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    assert main(["truth", "--n", "5", "--out", str(tmp_path / "y")]) == 2

    blowup = tmp_path / "blowup"
    code = main([
        "truth", "--case", "dense", "--n", "41", "--cfl", "0.5",
        "--config", str(_write_cfg(tmp_path, "h0 = 10.0\nh1 = 0.0001\n")),
        "--out", str(blowup),
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err

    summary = tmp_path / "s.csv"
    summary.write_text("t,relative_error_full,relative_error_window\n0.1,0.5,0.4\n")
    assert main(["compare", str(summary), "--window", "oops", "--out", str(tmp_path / "c.csv")]) == 2
    assert main(["compare", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "c.csv")]) == 2


def test_a_non_positive_initial_depth_fails_before_the_first_step(tmp_path, capsys):
    # the oscillation of amplitude 0.03 dips below zero on a 0.02 plateau
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["assimilate", "--n", "41", "--ensemble-size", "5", "--out", str(out),
                     "--config", str(_write_cfg(tmp_path, "case = oscillatory\nh0 = 0.02\nh1 = 0.01\n"))])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: depth -") and "step 0 is not positive" in err, err
    assert err.count("\n") == 1
    assert read_manifest(out / "manifest.txt")["status"] == "failed"


def _one_line_io_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_cli_io_errors_exit_4(tmp_path, capsys):
    small = ["--case", "dense", "--n", "41", "--ensemble-size", "8"]
    regular = tmp_path / "file"
    regular.write_text("not a directory\n")
    assert main(["assimilate", *small, "--out", str(regular / "sub")]) == 4
    _one_line_io_error(capsys)

    assert main(["compare", str(tmp_path), "--out", str(tmp_path / "c.csv")]) == 4
    _one_line_io_error(capsys)

    # a seed-2 rerun into a seed-1 directory that fails on a write must not
    # leave the seed-1 manifest claiming the directory's run completed
    out = tmp_path / "run"
    assert main(["assimilate", *small, "--seed", "1", "--out", str(out)]) == 0
    (out / "error.csv").unlink()
    (out / "error.csv").mkdir()
    capsys.readouterr()
    assert main(["assimilate", *small, "--seed", "2", "--out", str(out)]) == 4
    _one_line_io_error(capsys)
    mapping = read_manifest(out / "manifest.txt")
    assert (mapping["status"], mapping["seed"]) == ("failed", "2")
    assert "error.csv" in mapping["error"]


def test_compare_rejects_summary_of_failed_rerun(tmp_path, capsys):
    # the failed seed-2 rerun leaves the seed-1 summary.csv behind it
    small = ["--case", "dense", "--n", "41", "--ensemble-size", "8"]
    out = tmp_path / "run"
    assert main(["assimilate", *small, "--seed", "1", "--out", str(out)]) == 0
    (out / "error.csv").unlink()
    (out / "error.csv").mkdir()
    assert main(["assimilate", *small, "--seed", "2", "--out", str(out)]) == 4
    assert read_manifest(out / "manifest.txt")["status"] == "failed"
    summary = out / "summary.csv"
    assert summary.exists()

    with pytest.raises(ConfigError, match=r"summary\.csv.*status = failed"):
        compare_runs([summary], tmp_path / "c.csv", [])
    capsys.readouterr()
    assert main(["compare", str(summary), "--out", str(tmp_path / "c.csv")]) == 2
    assert "status = failed" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_a_sibling_manifest_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    summary = tmp_path / "run" / "summary.csv"
    summary.parent.mkdir()
    summary.write_text("t,relative_error_full\n0.1,0.5\n")
    manifest = summary.parent / "manifest.txt"
    manifest.write_bytes(b"case = dense\nstatus = compl\xffted\n")
    with pytest.raises(ConfigError, match="manifest.txt"):
        config_from_manifest(manifest)
    assert main(["compare", str(summary), "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {manifest}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1, err
    assert not (tmp_path / "c.csv").exists()


def _write_cfg(tmp_path, text):
    path = tmp_path / "override.cfg"
    path.write_text(text)
    return path
