"""Solver tests: WENO5 reconstruction, TVD-RK3, coupled SWE, transport."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shockda.errors import ConfigError, NumericalError
from shockda.harness import ExperimentConfig
from shockda.harness.experiments import initial_condition
from shockda.solver import (
    GRAVITY,
    WENO_EPS,
    Grid1D,
    SolverConfig,
    Workspace,
    lax_friedrichs_lambda,
    solve_coupled_swe,
    transport_step,
    tvdrk3_step,
    weno5_derivative,
)
from shockda.solver import _FACE_BLOCK, _NGHOST, _swe_rhs


# ---------------------------------------------------------------- grid / types


def test_grid_spacing_and_points():
    g = Grid1D(n=11)
    assert g.dx == pytest.approx(0.2)
    np.testing.assert_allclose(g.points, np.linspace(-1.0, 1.0, 11))


def test_grid_rejects_too_few_points():
    with pytest.raises(ConfigError):
        Grid1D(n=5)


def test_solver_config_validates_cfl():
    with pytest.raises(ConfigError):
        SolverConfig(cfl=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(cfl=1.0)


def test_lax_friedrichs_lambda_value():
    u = np.array([0.5, -2.0, 1.0])
    h = np.array([1.0, 4.0, 0.25])
    lam = lax_friedrichs_lambda(u, h, 9.81, Workspace())
    assert lam[0] == pytest.approx(2.0 + np.sqrt(9.81 * 4.0))
    # a negative depth gives NaN for its row, silently: the RK3 stage check reports it
    batch_h = np.stack([h, -h])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch_lam = lax_friedrichs_lambda(u, batch_h, 9.81, Workspace())
    assert batch_lam[0, 0] == lam[0] and np.isnan(batch_lam[1, 0])


# -------------------------------------------------------------------- WENO5


def _weno(field, flux, lam, dx):
    """weno5_derivative through a fresh workspace into a new F-ordered array."""
    return weno5_derivative(field, flux, lam, dx, Workspace(), np.empty(np.shape(field), order="F"))


def test_weno_constant_field_exactly_steady():
    # constant state is an exact steady solution; derivative must vanish
    n = 101
    f = np.ones(n)
    d = _weno(f, 0.5 * f**2, lam=1.0, dx=0.01)
    assert np.max(np.abs(d)) == 0.0


def test_weno_quadratic_flux_exact_in_interior():
    # every candidate stencil represents a parabola exactly, so the
    # nonlinear weights cannot matter and the derivative is exact
    n = 64
    dx = 1.0 / n
    x = dx * np.arange(n)
    f = x**2
    d = _weno(np.zeros(n), f, lam=0.0, dx=dx)
    interior = slice(4, n - 4)
    np.testing.assert_allclose(d[interior], -2.0 * x[interior], atol=1e-13)


def test_weno_rejects_non_finite_with_index():
    f = np.ones(16)
    bad = f.copy()
    bad[7] = np.nan
    with pytest.raises(NumericalError, match="index 7"):
        _weno(bad, f, lam=1.0, dx=0.1)
    with pytest.raises(NumericalError, match="index 7"):
        _weno(f, bad, lam=1.0, dx=0.1)


def test_weno_rejects_shape_mismatch():
    f = np.ones(16)
    with pytest.raises(ConfigError):
        _weno(f, f[:8], lam=1.0, dx=0.1)


def test_weno_batched_rows_match_individual_calls():
    rng = np.random.default_rng(3)
    fields = 1.0 + 0.1 * rng.standard_normal((4, 33))
    lam = lax_friedrichs_lambda(np.zeros_like(fields), fields, GRAVITY, Workspace())
    batched = _weno(fields, 0.5 * fields**2, lam, dx=0.05)
    for k in range(4):
        single = _weno(fields[k], 0.5 * fields[k] ** 2, lam[k], dx=0.05)
        np.testing.assert_array_equal(batched[k], single)


def _weno5_face_expression(a, b, c, d, e):
    """Reference: the whole-array expression form of solver._weno5_split_face (first differences)."""
    Da, Db, Dc, Dd = b - a, c - b, d - c, e - d
    beta0 = 13.0 / 3.0 * (Db - Da) ** 2 + (3.0 * Db - Da) ** 2  # 4 beta_k
    beta1 = 13.0 / 3.0 * (Dc - Db) ** 2 + (Db + Dc) ** 2
    beta2 = 13.0 / 3.0 * (Dd - Dc) ** 2 + (3.0 * Dc - Dd) ** 2

    alpha0 = 0.1 / (4.0 * WENO_EPS + beta0) ** 2
    alpha1 = 0.6 / (4.0 * WENO_EPS + beta1) ** 2
    alpha2 = 0.3 / (4.0 * WENO_EPS + beta2) ** 2
    total = alpha0 + alpha1 + alpha2
    return c + (alpha0 * (5.0 * Db - 2.0 * Da) + alpha1 * (Db + 2.0 * Dc) + alpha2 * (4.0 * Dc - Dd)) / (6.0 * total)


def _weno5_face_jiang_shu(a, b, c, d, e):
    """Reference: the Jiang-Shu form of the WENO5 face, equal to the difference form up to rounding."""
    beta0 = 13.0 / 12.0 * (a - 2.0 * b + c) ** 2 + 0.25 * (a - 4.0 * b + 3.0 * c) ** 2
    beta1 = 13.0 / 12.0 * (b - 2.0 * c + d) ** 2 + 0.25 * (b - d) ** 2
    beta2 = 13.0 / 12.0 * (c - 2.0 * d + e) ** 2 + 0.25 * (3.0 * c - 4.0 * d + e) ** 2

    alpha0 = 0.1 / (WENO_EPS + beta0) ** 2
    alpha1 = 0.6 / (WENO_EPS + beta1) ** 2
    alpha2 = 0.3 / (WENO_EPS + beta2) ** 2
    total = alpha0 + alpha1 + alpha2

    q0 = (2.0 * a - 7.0 * b + 11.0 * c) / 6.0
    q1 = (-b + 5.0 * c + 2.0 * d) / 6.0
    q2 = (2.0 * c + 5.0 * d - e) / 6.0
    return (alpha0 * q0 + alpha1 * q1 + alpha2 * q2) / total


def _weno5_derivative_padded(field, flux, lam, dx, face=_weno5_face_expression):
    """Reference: pad field and flux with their end values by np.pad, split, then whole-array ``face`` values."""
    pad = [(0, 0)] * (field.ndim - 1) + [(_NGHOST, _NGHOST)]
    fp = 0.5 * (np.pad(flux, pad, mode="edge") + lam * np.pad(field, pad, mode="edge"))
    fm = 0.5 * (np.pad(flux, pad, mode="edge") - lam * np.pad(field, pad, mode="edge"))
    m = field.shape[-1] + 1
    fhat = face(
        fp[..., 0:m], fp[..., 1 : m + 1], fp[..., 2 : m + 2], fp[..., 3 : m + 3], fp[..., 4 : m + 4]
    )
    fhat += face(
        fm[..., 5 : m + 5], fm[..., 4 : m + 4], fm[..., 3 : m + 3], fm[..., 2 : m + 2], fm[..., 1 : m + 1]
    )
    return -np.diff(fhat, axis=-1) / dx


def _layout(arrays, layout):
    """``arrays`` in a memory layout: "C", "F", or "strided" (a view that is neither)."""
    if layout == "strided":
        return [np.repeat(a, 2, axis=-1)[..., ::2] for a in arrays]
    return [np.array(a, order=layout) for a in arrays]


def _weno_case(layout, n, rows, data, seed, per_row_lam):
    """Field, flux and splitting speed of one drawn case: smooth, jump or rough data in ``layout``."""
    shape = (n,) if layout == "1d" else (rows, 2, n) if layout.startswith("stacked") else (rows, n)
    order = {"members_f": "F", "members_strided": "strided", "stacked_f": "F"}.get(layout, "C")
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, n)
    if data == "smooth":
        field = 1.0 + 0.2 * np.sin(np.pi * rng.uniform(1.0, 4.0, shape[:-1] + (1,)) * x + rng.uniform(0.0, 6.3))
    elif data == "jump":
        field = np.where(x < rng.uniform(-1.0, 1.0), 1.0, rng.uniform(0.1, 0.9, shape[:-1] + (1,)))
    else:
        field = rng.lognormal(0.0, 0.5, shape)
    field = np.broadcast_to(field, shape)
    field, flux = _layout([field, field * rng.standard_normal(n) + 0.5 * 9.81 * field**2], order)
    lam = rng.uniform(0.0, 5.0, shape[:-1] + (1,)) if per_row_lam else rng.uniform(0.0, 5.0)
    return field, flux, lam


@settings(max_examples=200, deadline=None)
@given(
    layout=st.sampled_from(["1d", "members_c", "members_f", "members_strided", "stacked", "stacked_f"]),
    n=st.integers(1, 40),
    rows=st.integers(1, 5),
    per_row_lam=st.booleans(),
    data=st.sampled_from(["smooth", "jump", "rough"]),
    seed=st.integers(0, 2**32 - 1),
)
# rows x (n + 1) above _FACE_BLOCK: several blocks, the last one partial
@example(layout="members_f", n=1001, rows=100, per_row_lam=True, data="jump", seed=1)
@example(layout="members_c", n=1001, rows=100, per_row_lam=True, data="rough", seed=2)
@example(layout="members_f", n=700, rows=37, per_row_lam=False, data="smooth", seed=3)
@example(layout="stacked", n=300, rows=40, per_row_lam=True, data="rough", seed=4)
@example(layout="1d", n=20000, rows=1, per_row_lam=False, data="jump", seed=5)
@example(layout="members_strided", n=1001, rows=100, per_row_lam=True, data="rough", seed=6)
@example(layout="stacked_f", n=300, rows=40, per_row_lam=True, data="jump", seed=7)
def test_weno_matches_padded_reference_bitwise_in_f_order(layout, n, rows, per_row_lam, data, seed):
    # a second, different input goes through the same workspace, so the
    # same plan and scratch: it must carry nothing over from the first call,
    # and must not write into the first call's result, which belongs to the caller
    workspace = Workspace()
    results = []
    for case_seed, case_data in ((seed, data), (seed + 1, "rough")):
        field, flux, lam = _weno_case(layout, n, rows, case_data, case_seed, per_row_lam)
        expected = _weno5_derivative_padded(field, flux, lam, 0.01)
        got = weno5_derivative(field, flux, lam, 0.01, workspace, np.empty(field.shape, order="F"))
        np.testing.assert_array_equal(got, expected)
        results.append((got, expected))
    (first, first_expected), _ = results
    np.testing.assert_array_equal(first, first_expected)


@settings(max_examples=200, deadline=None)
@given(
    layout=st.sampled_from(["1d", "members_c", "members_f", "members_strided", "stacked", "stacked_f"]),
    n=st.integers(1, 40),
    rows=st.integers(1, 5),
    per_row_lam=st.booleans(),
    data=st.sampled_from(["smooth", "jump", "rough"]),
    seed=st.integers(0, 2**32 - 1),
)
# the fine coupled solve of oscillatory_cold_desk, and the reference-scale member forecast
@example(layout="members_c", n=2001, rows=2, per_row_lam=True, data="jump", seed=1)
@example(layout="members_f", n=1001, rows=100, per_row_lam=True, data="rough", seed=2)
def test_weno_matches_jiang_shu_form_to_roundoff(layout, n, rows, per_row_lam, data, seed):
    # the difference form is the Jiang-Shu scheme with different rounding; the bound was set before measuring
    field, flux, lam = _weno_case(layout, n, rows, data, seed, per_row_lam)
    expected = _weno5_derivative_padded(field, flux, lam, 0.01, face=_weno5_face_jiang_shu)
    got = _weno(field, flux, lam, 0.01)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("block", [1, 2, 7, 64, 1000])
# the ids name the boundary closure, constant extrapolation
@pytest.mark.parametrize("order", ["C", "F", "strided", "stacked_F"], ids=lambda order: f"extrapolate-{order}")
def test_weno_result_does_not_depend_on_block_size(monkeypatch, block, order):
    # blocks narrower than the stencil and blocks ending inside the ghost
    # columns must see the same split values as one whole-array pass
    rng = np.random.default_rng(block)
    shape = (3, 2, 50) if order == "stacked_F" else (6, 50)
    field = rng.lognormal(0.0, 0.5, shape)
    field, flux = _layout([field, field * rng.standard_normal(50)], order.removeprefix("stacked_"))
    lam = rng.uniform(1.0, 3.0, shape[:-1] + (1,))
    expected = _weno5_derivative_padded(field, flux, lam, 0.01)
    monkeypatch.setattr("shockda.solver._FACE_BLOCK", block)
    np.testing.assert_array_equal(_weno(field, flux, lam, 0.01), expected)


def test_weno_large_examples_span_several_blocks():
    # the @example shapes above exercise the blocking only while they exceed it
    for rows, n in ((100, 1001), (37, 700), (80, 300), (1, 20000)):
        assert rows * (n + 1) > _FACE_BLOCK


def test_weno_rejects_lambda_that_broadcasts_along_the_grid():
    # a (K,) lam would silently pair member k's speed with grid column k
    n = 12
    field = 1.0 + 0.1 * np.random.default_rng(5).standard_normal((n, n))
    lam = np.linspace(1.0, 2.0, n)
    with pytest.raises(ConfigError, match="lam of shape"):
        _weno(field, field, lam, dx=0.1)
    for bad in (lam[:, None, None], np.ones((n, 2)), np.ones((1, n, 1))):
        with pytest.raises(ConfigError, match="lam of shape"):
            _weno(field, field, bad, dx=0.1)
    for good in (1.5, np.float64(1.5), np.ones(1), np.ones((1, 1)), lam[:, None]):
        _weno(field, field, good, dx=0.1)


# ------------------------------------------------------------------ TVD-RK3


def test_rk3_zero_rhs_is_bitwise_identity():
    rng = np.random.default_rng(11)
    state = rng.standard_normal(17)
    out = tvdrk3_step(state, lambda s: np.zeros_like(s), 0.37, 0, Workspace())
    assert np.array_equal(out, state)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["identity", "cached", "weno"])
def test_rk3_writes_neither_state_nor_rhs_results(order, kind):
    # the stages are formed in place; an in-place update of an rhs result
    # would corrupt ``state`` (identity rhs) or the cached array
    rng = np.random.default_rng(17)
    state = np.array(1.0 + 0.1 * rng.standard_normal((8, 40)), order=order)
    cached = np.array(rng.standard_normal((8, 40)), order=order)
    lam = np.full((8, 1), 2.0)
    rhs = {
        "identity": lambda s: s,
        "cached": lambda s: cached,
        "weno": lambda s: _weno(s, 0.5 * s * s, lam, 0.05),
    }[kind]
    state_before, cached_before = state.copy(), cached.copy()
    returned = []

    def recording_rhs(s):
        out = rhs(s)
        returned.append((out, out.copy()))
        return out

    dt = 0.01
    got = tvdrk3_step(state, recording_rhs, dt, 0, Workspace())
    np.testing.assert_array_equal(state, state_before)
    np.testing.assert_array_equal(cached, cached_before)
    if kind == "weno":
        # (identity results are ``state`` and then the step's own stages)
        for out, copy in returned:
            np.testing.assert_array_equal(out, copy)

    np.testing.assert_array_equal(got, _rk3_expression(state, rhs, dt))
    assert got.flags.f_contiguous


def _rk3_expression(state, rhs, dt):
    """Reference: one increment-form TVD-RK3 step as whole-array expressions."""
    s1 = state + dt * rhs(state)
    s2 = state + 0.25 * ((s1 - state) + dt * rhs(s1))
    return state + (2.0 / 3.0) * ((s2 - state) + dt * rhs(s2))


def test_rk3_exponential_one_step():
    # y' = -y, y(0)=1: the three-stage scheme gives 1 - dt + dt^2/2 - dt^3/6
    out = tvdrk3_step(np.array([1.0]), lambda y: -y, 0.1, 0, Workspace())
    expected = 1.0 - 0.1 + 0.1**2 / 2.0 - 0.1**3 / 6.0
    assert out[0] == pytest.approx(expected, abs=1e-15)
    assert abs(out[0] - np.exp(-0.1)) < 5e-6


def test_rk3_local_order_via_richardson():
    # one dt step vs two dt/2 steps on smooth SWE data differ at O(dt^4)
    grid = Grid1D(n=101)
    x = grid.points
    state = np.stack([1.0 + 0.1 * np.exp(-((x / 0.25) ** 2)), np.zeros_like(x)])
    workspace = Workspace()

    def rhs(s):
        return _swe_rhs(s, GRAVITY, grid.dx, workspace)

    def gap(dt):
        one = tvdrk3_step(state, rhs, dt, 0, workspace)
        two = tvdrk3_step(tvdrk3_step(state, rhs, 0.5 * dt, 0, workspace), rhs, 0.5 * dt, 1, workspace)
        return np.max(np.abs(one - two))

    ratio = gap(1e-3) / gap(5e-4)
    order = np.log2(ratio)
    assert 3.7 <= order <= 4.3, f"observed local order {order:.2f}"


def test_rk3_reports_stage_and_step_on_blowup():
    def rhs(y):
        return np.full_like(y, np.nan)

    with pytest.raises(NumericalError, match="stage 1 at step 42"):
        tvdrk3_step(np.ones(3), rhs, 0.1, 42, Workspace())


# ------------------------------------------------------------- coupled SWE


def _lax_friedrichs_lambda_expression(u, h, g=GRAVITY):
    """Reference: the whole-array expression form of lax_friedrichs_lambda."""
    with np.errstate(invalid="ignore"):
        speed = np.abs(u) + np.sqrt(g * np.asarray(h))
    return np.max(speed, axis=-1, keepdims=True)


def _swe_rhs_expression(stacked, g, dx):
    """Reference: _swe_rhs with a stacked flux, over the padded WENO5 reference."""
    h = stacked[..., 0, :]
    hu = stacked[..., 1, :]
    u = hu / h
    lam = _lax_friedrichs_lambda_expression(u, h, g)[..., None, :]
    flux = np.stack([hu, hu * u + 0.5 * g * h * h], axis=-2)
    out = _weno5_derivative_padded(stacked, flux, lam, dx)
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


@settings(max_examples=100, deadline=None)
@given(
    members=st.sampled_from([None, 1, 3]),  # None: one (2, n) state, else a (members, 2, n) stack
    n=st.integers(1, 40),
    order=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(members=None, n=2001, order="C", seed=1)  # the fine coupled solve of oscillatory_cold_desk
@example(members=20, n=1001, order="F", seed=2)  # several WENO blocks
def test_swe_rhs_and_lambda_match_expression_form_bitwise(members, n, order, seed):
    rng = np.random.default_rng(seed)
    shape = (2, n) if members is None else (members, 2, n)
    stacked = rng.standard_normal(shape)
    stacked[..., 0, :] = rng.lognormal(0.0, 0.5, shape[:-2] + (n,))
    stacked = np.array(stacked, order=order)
    before = stacked.copy()
    got = _swe_rhs(stacked, GRAVITY, 0.01, Workspace())
    np.testing.assert_array_equal(stacked, before)
    np.testing.assert_array_equal(got, _swe_rhs_expression(stacked, GRAVITY, 0.01))

    h = stacked[..., 0, :]
    u = stacked[..., 1, :] / h
    np.testing.assert_array_equal(lax_friedrichs_lambda(u, h, GRAVITY, Workspace()), _lax_friedrichs_lambda_expression(u, h))
    # one velocity row for every member, as transport_step passes it
    u_row = u.reshape(-1, n)[0]
    np.testing.assert_array_equal(lax_friedrichs_lambda(u_row, h, GRAVITY, Workspace()),
                                  _lax_friedrichs_lambda_expression(u_row, h))


def test_coupled_solve_matches_the_expression_loop_bitwise():
    # 50 steps of the oscillatory initial condition, whose dam-break shock forms in the window
    cfg = ExperimentConfig.for_case("oscillatory", n=201, ensemble_size=5)
    grid = cfg.grid()
    initial = initial_condition(cfg, grid)
    dt = cfg.solver_config().cfl * grid.dx
    run = solve_coupled_swe(initial, grid, cfg.solver_config(), t_end=50 * dt, record=range(51))
    assert run.n_steps == 50
    state = np.stack([initial, np.zeros_like(initial)])
    h, hu = [state[0]], [state[1]]
    for _ in range(50):
        state = _rk3_expression(state, lambda s: _swe_rhs_expression(s, GRAVITY, grid.dx), dt)
        h.append(state[0])
        hu.append(state[1])
    h, hu = np.array(h), np.array(hu)
    np.testing.assert_array_equal(run.h, h)
    np.testing.assert_array_equal(run.velocity, hu / h)


def test_coupled_uniform_rest_state_is_constant():
    grid = Grid1D(n=51)
    h = np.ones(51)
    run = solve_coupled_swe(h.copy(), grid, SolverConfig(cfl=0.1), t_end=20 * 0.1 * grid.dx,
                            record=[20])
    np.testing.assert_array_equal(run.h[-1], h)
    np.testing.assert_array_equal(run.velocity, np.zeros((21, 51)))


def test_coupled_records_velocity_every_step():
    grid = Grid1D(n=51)
    h = np.where(grid.points < 0, 1.0, 0.8)
    run = solve_coupled_swe(h, grid, SolverConfig(cfl=0.1), t_end=10 * 0.1 * grid.dx)
    assert run.velocity.shape == (11, 51)
    assert run.h.shape == (0, 51)  # no depth rows unless asked for
    # velocity rows are hu/h of the recorded trajectory
    np.testing.assert_allclose(run.velocity[0], 0.0)


def test_coupled_mass_conservation_before_waves_reach_boundary():
    grid = Grid1D(n=401)
    h = np.where(grid.points < 0, 1.0, 0.8)
    run = solve_coupled_swe(
        h, grid, SolverConfig(cfl=0.1), t_end=0.1, record=[0, 200], store_velocity=False
    )
    drift = abs(np.sum(run.h[-1]) - np.sum(run.h[0])) * grid.dx
    assert drift / 0.1 < 1e-8


def test_coupled_dam_break_total_variation_bound():
    # TV at t=0.1 stays within 1e-3 of the initial TV, and per step too
    grid = Grid1D(n=201)
    h = np.where(grid.points < 0, 1.0, 0.8)
    run = solve_coupled_swe(
        h, grid, SolverConfig(cfl=0.1), t_end=0.1, record=range(101), store_velocity=False
    )
    tv = np.sum(np.abs(np.diff(run.h, axis=-1)), axis=-1)
    assert tv[-1] <= tv[0] + 1e-3
    assert np.max(np.diff(tv)) <= 1e-3


def test_coupled_rejects_vacuum():
    grid = Grid1D(n=51)
    # a violent step into near-dry water collapses the depth quickly
    h = np.where(grid.points < 0, 10.0, 1e-4)
    with pytest.raises(NumericalError):
        solve_coupled_swe(h, grid, SolverConfig(cfl=0.9), t_end=50 * 0.9 * grid.dx)


def test_coupled_rejects_a_non_positive_or_non_finite_initial_depth():
    # raised at step 0, before the first step, with no RuntimeWarning
    grid = Grid1D(n=11)
    solve_coupled_swe(np.ones(11), grid, SolverConfig(cfl=0.1), t_end=0.02)  # fine
    for bad in (0.0, -0.1, np.nan, np.inf):
        h = np.ones(11)
        h[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at index 3, step 0"):
                solve_coupled_swe(h, grid, SolverConfig(cfl=0.1), t_end=0.02)


def test_coupled_t_end_must_align_with_dt():
    grid = Grid1D(n=51)
    with pytest.raises(ConfigError):
        solve_coupled_swe(np.ones(51), grid, SolverConfig(cfl=0.1), t_end=0.001234567)


def test_coupled_record_subset():
    grid = Grid1D(n=51)
    h = np.where(grid.points < 0, 1.0, 0.8)

    def run(record):
        return solve_coupled_swe(
            h, grid, SolverConfig(cfl=0.1), t_end=10 * 0.1 * grid.dx, record=record
        )

    subset, full = run([10, 0, 5, 5]), run(range(11))
    assert subset.h.shape == (3, 51)
    np.testing.assert_array_equal(subset.h[0], h)
    np.testing.assert_array_equal(subset.h, full.h[[0, 5, 10]])
    with pytest.raises(ConfigError, match="outside the run"):
        run([11])


def test_coupled_determinism():
    grid = Grid1D(n=101)
    h = np.where(grid.points < 0, 1.0, 0.8)

    def once():
        return solve_coupled_swe(
            h.copy(), grid, SolverConfig(cfl=0.1), t_end=20 * 0.1 * grid.dx, record=range(21)
        )

    a, b = once(), once()
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.velocity, b.velocity)


# ---------------------------------------------------------------- transport


def test_transport_zero_velocity_keeps_constant_depth():
    grid = Grid1D(n=51)
    cfg = SolverConfig(cfl=0.1)
    vel = np.zeros((2, 51))
    h = np.full(51, 0.9)
    out = transport_step(h, vel, 0, grid, cfg, Workspace())
    assert np.array_equal(out, h)


def test_transport_translation_accuracy_and_order():
    def one_step_error(n, c=0.5):
        grid = Grid1D(n=n)
        cfg = SolverConfig(cfl=0.1)
        dt = cfg.cfl * grid.dx
        x = grid.points
        h = 1.0 + 0.1 * np.exp(-((x / 0.3) ** 2))
        vel = np.full((2, n), c)
        out = transport_step(h, vel, 0, grid, cfg, Workspace())
        exact = 1.0 + 0.1 * np.exp(-(((x - c * dt) / 0.3) ** 2))
        return np.max(np.abs(out - exact)[5 : n - 5])

    e_coarse = one_step_error(101)
    e_fine = one_step_error(201)
    assert e_coarse < 1e-6
    order = np.log(e_coarse / e_fine) / np.log(2.0)
    assert order >= 4.5, f"observed order {order:.2f}"


def test_transport_steps_match_the_expression_loop_bitwise():
    # 20 steps of a C-ordered (8, 41) stack through one workspace, as a forecast runs them
    grid, cfg = Grid1D(n=41), SolverConfig(cfl=0.1)
    dt = cfg.cfl * grid.dx
    rng = np.random.default_rng(29)
    velocity = 0.5 * np.sin(np.pi * grid.points + rng.uniform(0.0, 6.3, (20, 1)))
    got = expected = np.where(grid.points < 0.0, 1.0, 0.6) + 0.05 * rng.standard_normal((8, 41))
    workspace = Workspace()

    def rhs(h, u):
        out = _weno5_derivative_padded(h, h * u, _lax_friedrichs_lambda_expression(u, h), grid.dx)
        out[..., 0] = 0.0
        out[..., -1] = 0.0
        return out

    for step in range(20):
        got = transport_step(got, velocity, step, grid, cfg, workspace)
        expected = _rk3_expression(expected, lambda h: rhs(h, velocity[step]), dt)
    np.testing.assert_array_equal(got, expected)


def test_transport_batched_members_match_individual():
    grid = Grid1D(n=41)
    cfg = SolverConfig(cfl=0.1)
    rng = np.random.default_rng(5)
    members = 1.0 + 0.05 * rng.standard_normal((6, 41))
    u = 0.3 * np.sin(np.pi * grid.points)
    vel = np.stack([u, u])
    batch = transport_step(members, vel, 0, grid, cfg, Workspace())
    for k in range(6):
        np.testing.assert_array_equal(batch[k], transport_step(members[k], vel, 0, grid, cfg, Workspace()))


def test_transport_step_index_out_of_range():
    grid = Grid1D(n=41)
    cfg = SolverConfig(cfl=0.1)
    vel = np.zeros((3, 41))
    with pytest.raises(IndexError):
        transport_step(np.ones(41), vel, 3, grid, cfg, Workspace())


def test_transport_gsm_of_propagated_mean_peaks_at_shock(tmp_path):
    # an ensemble advected by the dam-break velocity keeps its sharpest
    # gradients at the moving shock, where the gradient second moment peaks
    from shockda.assimilation.ensemble import gradient_second_moment
    from shockda.stoker import DamBreakParams, stoker_solve

    grid = Grid1D(n=201)
    cfg = SolverConfig(cfl=0.1)
    h = np.where(grid.points < 0, 1.0, 0.8)
    n_steps = 100
    run = solve_coupled_swe(h.copy(), grid, cfg, t_end=n_steps * cfg.cfl * grid.dx)

    rng = np.random.default_rng(2)
    members = h + 0.05 * rng.standard_normal((30, 201))
    workspace = Workspace()
    for step in range(n_steps):
        members = transport_step(members, run.velocity, step, grid, cfg, workspace)
    gsm = gradient_second_moment(members, grid.dx)

    t_final = n_steps * cfg.cfl * grid.dx
    inter = stoker_solve(DamBreakParams())
    shock_index = np.argmin(np.abs(grid.points - inter.s * t_final))
    assert abs(int(np.argmax(gsm)) - shock_index) <= 3
