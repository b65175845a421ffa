"""End-to-end acceptance suite.

One test per headline claim, in a fixed order: the linear-algebra oracles
(analysis mean, transform identities, gradient second moment), the physics
oracles (dam-break solution, WENO5 order), the three twin-experiment error
orderings at desk scale (n=201, K=50; the dense pair also at full scale
n=1001, K=100), and bit-identical reruns from a manifest.  Each test asserts
its numerical claim at the stated tolerance and its wall-clock budget.

The error orderings compare each weighted variant with the baseline over the
whole domain.  Clustering is compared with the unclustered weight in the
shock region, the cells within one cell of the analytic shock, which is
where it acts: it severs every weight coupling inside and across the
discontinuity region.  Under every-other observations that leaves the
unobserved cells of the region without an increment, and the error the shock
leaves behind as it crosses the smooth window stays there, so in the smooth
window clustering is worse than the unclustered weight.  The README tables
that trade; ``scripts/oscillatory_regions.py`` reproduces it.
"""

import dataclasses
import time

import numpy as np
import pytest

from shockda.assimilation.ensemble import ensemble_moments, gradient_second_moment
from shockda.assimilation.filters import analysis_mean, etkf_transform
from shockda.assimilation.weights import FilterConfig, build_weight
from shockda.harness import ExperimentConfig, config_from_manifest, generate_truth, run_experiment
from shockda.metrics import in_window, relative_error
from shockda.solver import Grid1D, Workspace, solve_coupled_swe, tvdrk3_step, weno5_derivative
from shockda.stoker import (
    DamBreakParams,
    ObservationOperator,
    rankine_hugoniot_residual,
    rarefaction_invariant_residual,
    stoker_evaluate,
    stoker_solve,
)

DESK = dict(n=201, ensemble_size=50)


def _relnorm(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_analysis_mean_matches_normal_equations():
    # SMW analysis vs the direct regularized normal-equation solve, 1e-10
    # relative, 100 random instances cycling the three weight forms
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    forms = ("diagonal", "full", "clustered")
    for i in range(100):
        n = int(rng.integers(11, 51))
        m = int(rng.integers(1, n + 1))
        K = n + int(rng.integers(2, 6))  # K > n keeps the weight full rank
        grid = Grid1D(n=n)
        ens = ensemble_moments(1.0 + 0.3 * rng.standard_normal((K, n)))
        form = forms[i % 3]
        if form == "diagonal":
            cfg = FilterConfig(variant="gsm", localization_bandwidth=0)
        elif form == "full":
            cfg = FilterConfig(variant="gsm", localization_bandwidth=None)
        else:
            cfg = FilterConfig(variant="gsm_clustered", localization_bandwidth=None, dist=int(rng.integers(0, 3)))
        W = build_weight(ens, cfg, grid)
        assert W.form == ("band" if form == "diagonal" else "lowrank")  # unmasked weights are low rank
        assert (W.xi is not None) == (form == "clustered")

        H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
        gamma_sq = float(rng.uniform(0.05, 1.0))
        m_hat = rng.standard_normal(n)
        y = rng.standard_normal(m)
        out = analysis_mean(m_hat, y, H, gamma_sq, W)

        Wd = W.toarray()
        Hm = H.matrix()
        lhs = Hm.T @ Hm / gamma_sq + np.linalg.inv(Wd)
        rhs = Hm.T @ y / gamma_sq + np.linalg.solve(Wd, m_hat)
        expected = np.linalg.solve(lhs, rhs)
        assert _relnorm(out, expected) < 1e-10
    assert time.monotonic() - t0 < 10.0


def test_transform_reproduces_kalman_posterior_covariance():
    # X X^T = (I - K H) C_hat to 1e-10 and zero column sums to 1e-12,
    # 100 random instances with K <= 10, n <= 20
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(100):
        K = int(rng.integers(2, 11))
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, n + 1))
        X = ensemble_moments(rng.standard_normal((K, n))).centered
        H = ObservationOperator(np.sort(rng.choice(n, size=m, replace=False)), n)
        gamma_sq = float(rng.uniform(0.05, 2.0))

        Tsqrt = etkf_transform(X, H, gamma_sq)
        Xp = X @ Tsqrt

        C = X @ X.T
        Hm = H.matrix()
        S = Hm @ C @ Hm.T + gamma_sq * np.eye(m)
        gain = C @ Hm.T @ np.linalg.inv(S)
        np.testing.assert_allclose(Xp @ Xp.T, (np.eye(n) - gain @ Hm) @ C, atol=1e-10)
        assert np.max(np.abs(Xp.sum(axis=1))) < 1e-12
    assert time.monotonic() - t0 < 10.0


def test_dam_break_solution_and_coupled_solver_agree():
    # wave-structure residuals below 1e-12, then the coupled WENO run against
    # the analytic profile at t=0.15 with relative L1 error below 5e-3
    t0 = time.monotonic()
    for h0, h1 in [(1.0, 0.8), (1.0, 0.5), (2.0, 1.0)]:
        p = DamBreakParams(h0=h0, h1=h1)
        inter = stoker_solve(p)
        assert abs(rankine_hugoniot_residual(p, inter)) < 1e-12
        assert abs(rarefaction_invariant_residual(p, inter)) < 1e-12

    grid = Grid1D(n=1001)
    h = np.where(grid.points < 0.0, 1.0, 0.8)
    run = solve_coupled_swe(
        h, grid, 0.1 * grid.dx, t_end=0.15,
        record=[750], store_velocity=False,
    )
    p = DamBreakParams()
    h_exact, _ = stoker_evaluate(p, stoker_solve(p), grid.points, 0.15)
    assert relative_error(run.h[-1], h_exact) < 5e-3
    assert time.monotonic() - t0 < 120.0


def test_weno_advection_order_at_least_4_5():
    t0 = time.monotonic()

    def bump(x):
        # cos^8 bump on [-0.95, 0.45], at t_final on [-0.45, 0.95]: the extrapolated ghosts stay at 0
        s = x + 0.25
        return np.where(np.abs(s) < 0.7, np.cos(np.pi * s / 1.4) ** 8, 0.0)

    def advect(n, t_final=0.5, c=1.0):
        # dt ~ dx^(5/3) keeps RK3 error below the spatial error
        grid = Grid1D(n)
        v = bump(grid.points)
        dt = 0.4 * grid.dx ** (5.0 / 3.0)
        steps = int(np.ceil(t_final / dt))
        dt = t_final / steps
        workspace, out = Workspace(), np.empty(n)
        for step in range(steps):
            v = tvdrk3_step(v, lambda w: weno5_derivative(w, c * w, c, grid.dx, workspace, out), dt, step, workspace)
        return np.max(np.abs(v - bump(grid.points - c * t_final)))

    # n = 101 and 201 halve dx
    order = np.log(advect(101) / advect(201)) / np.log(2.0)
    assert order >= 4.5, f"observed order {order:.2f}"
    assert time.monotonic() - t0 < 30.0


def test_gradient_second_moment_matches_direct_evaluation():
    # 50 random ensembles against the three-case cell-center average, 1e-13,
    # plus the exact hand-worked profile
    rng = np.random.default_rng(505)
    for _ in range(50):
        K = int(rng.integers(1, 9))
        n = int(rng.integers(2, 30))
        dx = float(rng.uniform(0.01, 1.0))
        members = rng.standard_normal((K, n))

        d = (members[:, 1:] - members[:, :-1]) / dx
        centers = np.mean(d * d, axis=0)
        expected = np.empty(n)
        expected[0] = 0.5 * centers[0]
        expected[-1] = 0.5 * centers[-1]
        expected[1:-1] = 0.5 * (centers[:-1] + centers[1:])
        np.testing.assert_allclose(gradient_second_moment(members, dx), expected, rtol=1e-13, atol=1e-15)

    out = gradient_second_moment(np.array([[0.0, 1.0, 3.0]]), 1.0)
    np.testing.assert_array_equal(out, [0.5, 2.5, 2.0])


def _time_mean(cfg, values, t_lo, t_hi):
    # the mean of one value per analysis over the analysis times in [t_lo, t_hi]
    return values[in_window(cfg.obs_times, t_lo, t_hi)].mean()


def _read_back(cfg, written):
    # a run's (cycles, n) posterior means from solution.csv, and its two relative-error curves from
    # summary.csv (whole domain, smooth window), one value per analysis
    solution_csv, _, _, summary_csv, _ = written
    posterior = np.loadtxt(solution_csv, delimiter=",", skiprows=1, usecols=5).reshape(-1, cfg.n)
    return posterior, np.loadtxt(summary_csv, delimiter=",", skiprows=1, usecols=(1, 2), unpack=True)


@pytest.mark.slow
def test_dense_weighted_filter_beats_baseline(tmp_path):
    # mean relative error over t in [0.03, 0.15]: the gradient-weighted run
    # below the inflated baseline for >= 4 of 5 desk seeds, then the same
    # ordering at full scale with the default seed
    t0 = time.monotonic()
    wins = 0
    for seed in range(1, 6):
        errs = {}
        for variant in ("etkf_baseline", "gsm"):
            cfg = ExperimentConfig.for_case(
                "dense", seed=seed, variant=variant, **DESK,
                output_dir=tmp_path / f"desk_{variant}_{seed}",
                cache_dir=tmp_path / "cache_desk",
            )
            errs[variant] = _time_mean(cfg, _read_back(cfg, run_experiment(cfg))[1][0], 0.03, 0.15)
        wins += errs["gsm"] < errs["etkf_baseline"]
    assert wins >= 4, f"weighted run beat the baseline for only {wins}/5 desk seeds"
    assert time.monotonic() - t0 < 300.0

    t1 = time.monotonic()
    errs = {}
    for variant in ("etkf_baseline", "gsm"):
        cfg = ExperimentConfig.for_case(
            "dense", n=1001, ensemble_size=100, variant=variant,
            output_dir=tmp_path / f"full_{variant}",
            cache_dir=tmp_path / "cache_full",
        )
        errs[variant] = _time_mean(cfg, _read_back(cfg, run_experiment(cfg))[1][0], 0.03, 0.15)
    assert errs["gsm"] < errs["etkf_baseline"], (
        f"full scale: weighted {errs['gsm']:.4e} vs baseline {errs['etkf_baseline']:.4e}"
    )
    assert time.monotonic() - t1 < 1800.0


def _shock_cells(cfg, t):
    # the cells within one cell of the analytic shock position s*t
    x = cfg.grid().points
    xi = int(np.argmin(np.abs(x - stoker_solve(cfg).s * t)))
    return slice(max(xi - 1, 0), min(xi + 1, x.size - 1) + 1)


@pytest.mark.slow
def test_sparse_clustering_shrinks_shock_overshoot(tmp_path):
    # near the analytic shock at t=0.3, clustering lowers the maximum
    # pointwise error for >= 4 of 5 desk seeds; both weighted variants beat
    # the baseline in mean relative error over [0.03, 0.3]
    t0 = time.monotonic()
    shock_wins = 0
    for seed in range(1, 6):
        runs = {}
        for variant in ("etkf_baseline", "gsm", "gsm_clustered"):
            cfg = ExperimentConfig.for_case(
                "sparse", seed=seed, variant=variant, **DESK,
                output_dir=tmp_path / f"{variant}_{seed}",
                cache_dir=tmp_path / "cache",
            )
            runs[variant] = _read_back(cfg, run_experiment(cfg))

        region = _shock_cells(cfg, cfg.t_end)
        truth_end = generate_truth(cfg, cache_dir=cfg.cache_dir).truth_h[-1]  # row j + 1 is the truth at analysis j
        peak = {
            v: np.max(np.abs(posterior[-1][region] - truth_end[region]))
            for v, (posterior, _) in runs.items()
        }
        shock_wins += peak["gsm_clustered"] < peak["gsm"]

        means = {v: _time_mean(cfg, errors[0], 0.03, 0.3) for v, (_, errors) in runs.items()}
        assert means["gsm"] < means["etkf_baseline"], f"seed {seed}: {means}"
        assert means["gsm_clustered"] < means["etkf_baseline"], f"seed {seed}: {means}"
    assert shock_wins >= 4, f"clustering lowered the shock peak for only {shock_wins}/5 seeds"
    assert time.monotonic() - t0 < 600.0


@pytest.mark.slow
def test_oscillatory_weighted_filters_beat_baseline(tmp_path):
    # fine-grid-reference truth (4x refinement at desk scale): both weighted
    # variants below the baseline in mean relative error over [0.03, 0.3] for
    # every desk seed; for the default seed the smooth-window error over
    # [-0.39, 0.39] x [0.15, 0.3] orders unclustered < baseline.  Clustering
    # is compared with the unclustered weight in the shock region (the same
    # cells as the sparse test) over t in [0.15, 0.3]: clustered < unclustered
    # for every desk seed.  In the smooth window the shock's wake makes
    # clustering worse, not better (see the module docstring and the README).
    t0 = time.monotonic()
    window = {}
    for seed in range(1, 6):
        runs = {}
        for variant in ("etkf_baseline", "gsm", "gsm_clustered"):
            cfg = ExperimentConfig.for_case(
                "oscillatory", seed=seed, variant=variant, fine_refine=4, **DESK,
                output_dir=tmp_path / f"{variant}_{seed}",
                cache_dir=tmp_path / "cache",
            )
            runs[variant] = _read_back(cfg, run_experiment(cfg))
        means = {v: _time_mean(cfg, errors[0], 0.03, 0.3) for v, (_, errors) in runs.items()}
        assert means["gsm"] < means["etkf_baseline"], f"seed {seed}: {means}"
        assert means["gsm_clustered"] < means["etkf_baseline"], f"seed {seed}: {means}"
        truth_rows = generate_truth(cfg, cache_dir=cfg.cache_dir).truth_h[1:]
        shock = {}
        for v in ("gsm", "gsm_clustered"):
            errs = []
            # row j of the posterior means and row j + 1 of the truth for analysis j
            for t, posterior, truth in zip(cfg.obs_times, runs[v][0], truth_rows):
                cells = _shock_cells(cfg, t)
                errs.append(relative_error(posterior[cells], truth[cells]))
            shock[v] = _time_mean(cfg, np.array(errs), 0.15, 0.3)
        assert shock["gsm_clustered"] < shock["gsm"], f"seed {seed} shock-region errors: {shock}"
        if seed == 1:
            window = {v: _time_mean(cfg, errors[1], 0.15, 0.3) for v, (_, errors) in runs.items()}
    elapsed = time.monotonic() - t0

    assert window["gsm"] < window["etkf_baseline"], f"window errors: {window}"
    assert elapsed < 900.0


def test_rerun_from_manifest_is_bit_identical(tmp_path):
    for case, variant in [("dense", "gsm"), ("dense", "etkf_baseline"), ("sparse", "gsm_clustered")]:
        cfg = ExperimentConfig.for_case(
            case, n=61, ensemble_size=8, seed=4, variant=variant,
            output_dir=tmp_path / f"{case}_{variant}_first",
            cache_dir=tmp_path / f"{case}_cache",
        )
        first = run_experiment(cfg)
        replay_cfg = dataclasses.replace(
            config_from_manifest(first[-1]), output_dir=tmp_path / f"{case}_{variant}_replay"
        )
        replay = run_experiment(replay_cfg)
        for a, b in zip(first[:-1], replay[:-1]):  # every CSV, not the manifest
            assert a.read_bytes() == b.read_bytes(), f"{case}/{variant}: {a.name} differs between reruns"
