"""Uniform-grid solver for the 1D shallow-water system and depth transport.

Spatial discretization is fifth-order finite-difference WENO (Jiang-Shu
smoothness indicators, epsilon = 1e-6, evaluated in first differences of
the split flux) with global Lax-Friedrichs flux splitting; time
integration is the three-stage TVD Runge-Kutta scheme.
Two right-hand sides are provided: the coupled conservative system

    h_t + (hu)_x = 0,    (hu)_t + (hu^2 + g h^2 / 2)_x = 0,

and the scalar transport of depth by a prescribed velocity history,

    h_t + (h u)_x = 0,   u read from a stored coupled run.

All kernels operate on the trailing axis, so an ensemble of states can be
advanced in one vectorized call by stacking members along a leading axis.
Inputs of any memory layout are read as they are; every array the solver
allocates or returns is F-ordered.

A time loop keeps one ``Workspace`` (WENO5 plan, right-hand-side and RK
arrays) per run and passes it to every kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

GRAVITY = 9.81

WENO_EPS = 1e-6

# ghost points per side needed by the five-point interface stencils
_NGHOST = 3

# elements (rows x interface columns) per block of weno5_derivative: about
# 128 KiB of float64 in each of its twelve flat scratch arrays (two split, four
# difference, six face; each holds the block's stencil window, five columns
# wider), 1.5 MiB in all, so they stay in a per-core L2 cache (on a 2-vCPU
# Xeon with 2 MiB L2 per core, 32768 measured slower at (100, 1001) and
# 8192 not measurably faster)
_FACE_BLOCK = 16384


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n points spanning the domain [-1, 1] inclusive."""

    n: int

    def __post_init__(self):
        if self.n < 11:
            raise ConfigError(f"grid needs at least 11 points, got n={self.n}")

    @property
    def dx(self) -> float:
        return 2.0 / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return -1.0 + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class SolverConfig:
    """Time-step rule and physical constant for the WENO/RK3 solver.

    dt = cfl * dx at every step.  The Lax-Friedrichs splitting parameter is
    always max(|u| + sqrt(g h)) over the grid, evaluated on the current
    state; boundaries are closed with three constant-extrapolation ghost
    points per side and frozen end values.
    """

    cfl: float = 0.1
    g: float = GRAVITY

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.g <= 0.0:
            raise ConfigError("g must be positive")


class Workspace(dict):
    """The WENO5 plans and arrays one time loop reuses at every step, each built on first use.

    Key ("weno5", shape, 1) holds the plan for that shape; key (name, shape,
    count) holds that many F-ordered arrays.  A step function never returns
    a workspace array.
    """

    def __missing__(self, key):
        name, shape, count = key
        value = self[key] = (_weno5_plan(shape) if name == "weno5"
                             else [np.empty(shape, order="F") for _ in range(count)])
        return value


def lax_friedrichs_lambda(u, h, g: float, workspace: Workspace):
    """max(|u| + sqrt(g h)) over the grid, per leading row if batched.

    ``u`` broadcasts to the shape of ``h`` (one velocity row for a member
    stack); g h is formed once, in a workspace array, and the rest is done
    in place.  Negative depths yield NaN here without warning; the step
    routines turn the resulting non-finite state into a NumericalError with
    context, which is more useful than a RuntimeWarning at this level.
    """
    h = np.asarray(h, dtype=float)
    (speed,) = workspace["speed", h.shape, 1]
    with np.errstate(invalid="ignore"):
        np.multiply(g, h, out=speed)
        np.add(np.abs(u), np.sqrt(speed, out=speed), out=speed)
    return np.max(speed, axis=-1, keepdims=True)


def _weno5_split_face_ops(flat, d, span, mirrored, out, scratch) -> list:
    """(ufunc, operand, operand, out) calls of the WENO5 value of one split flux at ``span`` faces, into ``out``.

    ``flat`` is a flat block of the split flux whose grid axis has flat step
    ``d``.  Element p of ``out`` has the stencil a..e = flat[p + s d] for
    s = 0..4, left-biased (plus flux), or s = 5..1 when ``mirrored`` (minus
    flux, right-biased at the same interface).  The calls work in first
    differences D_j = f_{j+1} - f_j: they build D, the curvature window
    13/3 (D_{j+1} - D_j)^2, 3D and 2D once per split flux in ``scratch``
    (eight flat arrays at least span + 4d long) and read each at shifts of
    d.  A mirrored stencil reads them at mirrored shifts, where every
    difference has the opposite sign.  The calls perform the IEEE
    operations of the expression form

        Da, Db, Dc, Dd = b - a, c - b, d - c, e - d
        4 beta0 = 13/3 (Db - Da)^2 + (3 Db - Da)^2
        4 beta1 = 13/3 (Dc - Db)^2 + (Db + Dc)^2
        4 beta2 = 13/3 (Dd - Dc)^2 + (3 Dc - Dd)^2
        alpha_k = C_k / (4 eps + 4 beta_k)^2,  C = (0.1, 0.6, 0.3)
        out = c + (alpha0 (5 Db - 2 Da) + alpha1 (Db + 2 Dc) + alpha2 (4 Dc - Dd))
                  / (6 (alpha0 + alpha1 + alpha2))

    in the same order (negated exactly where mirrored), so the result is
    bit-identical to it.  That is the Jiang-Shu scheme in differences: its
    beta_k times 4, its alpha_k over 16 (the factor cancels in the
    weights), and its candidate values (2a - 7b + 11c)/6, (-b + 5c + 2d)/6
    and (2c + 5d - e)/6 as c plus a difference over 6.  The values agree
    with the Jiang-Shu form up to rounding.
    """
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    m = span + 4 * d
    diff, curv, diff3, diff2 = (w[:length] for w, length in zip(scratch, (m, m - d, m, m)))
    w0, w1, w2, s = (w[:span] for w in scratch[4:])

    def at(arr, shift):
        return arr[shift * d : shift * d + span]

    sa, sb, sc, sd = (4, 3, 2, 1) if mirrored else (0, 1, 2, 3)
    Da, Db, Dc, Dd = (at(diff, k) for k in (sa, sb, sc, sd))
    total = curv[:span]  # the sum of the alphas goes over the spent curvature window
    ops = [(sub, flat[d : d + m], flat[:m], diff), (sub, diff[d:], diff[:-d], curv), (mul, curv, curv, curv),
           (mul, 13.0 / 3.0, curv, curv), (mul, 3.0, diff, diff3), (mul, 2.0, diff, diff2)]
    # s holds the root of the second term of 4 beta_k; its first term is the curvature window at shift k
    for w, weight, root, k in ((w0, 0.1, (sub, at(diff3, sb), Da), min(sa, sb)),
                               (w1, 0.6, (add, Db, Dc), min(sb, sc)),
                               (w2, 0.3, (sub, at(diff3, sc), Dd), min(sc, sd))):
        ops += [root + (s,), (mul, s, s, s), (add, at(curv, k), s, w), (add, 4.0 * WENO_EPS, w, w),
                (mul, w, w, w), (div, weight, w, w)]
    ops += [(add, w0, w1, total), (add, total, w2, total),
            (mul, 5.0, Db, s), (sub, s, at(diff2, sa), s), (mul, w0, s, w0),
            (add, Db, at(diff2, sc), s), (mul, w1, s, w1), (add, w0, w1, w0),
            (mul, 4.0, Dc, s), (sub, s, Dd, s), (mul, w2, s, w2), (add, w0, w2, w0),
            (mul, 6.0, total, total), (div, w0, total, w0),
            (sub if mirrored else add, at(flat, 2 + mirrored), w0, out)]
    return ops


def _weno5_plan(shape: tuple) -> list:
    """``weno5_derivative``'s blocks for one shape over one F-ordered scratch allocation:
    each block's column window, split and ghost slices, face calls, face slices and result columns."""
    n, g, lead = shape[-1], _NGHOST, shape[:-1]
    n_rows = math.prod(lead)
    cells = min(n, max(1, _FACE_BLOCK // max(1, n_rows) - 1))  # cells + 1 interfaces fill one block
    # the twelve scratch arrays (two split, four difference, six face) are rows of one allocation
    split_p, split_m, *faces = np.empty((12, n_rows * (cells + 2 * g)))
    blocks = []
    for j in range(0, n, cells):
        k = min(cells, n - j)
        # grid columns j-3 .. j+k+2 hold the stencils of interfaces j-1/2 .. j+k-1/2
        lo, hi, width = j - g, j + k + g, k + 2 * g
        span = (k + 1) * n_rows  # flat length of one face operand; the grid axis has flat step n_rows
        flat_p, flat_m = split_p[: n_rows * width], split_m[: n_rows * width]
        fp, fm = (buf.reshape(lead + (width,), order="F") for buf in (flat_p, flat_m))
        cols, inner = slice(max(lo, 0), min(hi, n)), slice(max(lo, 0) - lo, min(hi, n) - lo)
        # ghosts repeat the end columns' split
        ghosts = [(b[..., : inner.start], b[..., inner.start : inner.start + 1]) for b in (fp, fm) if inner.start]
        ghosts += [(b[..., inner.stop :], b[..., inner.stop - 1 : inner.stop]) for b in (fp, fm) if inner.stop < width]
        fhat, minus = faces[0][:span], faces[1][:span]
        ops = (_weno5_split_face_ops(flat_p, n_rows, span, False, fhat, faces[2:])
               + _weno5_split_face_ops(flat_m, n_rows, span, True, minus, faces[2:]) + [(np.add, fhat, minus, fhat)])
        # a constant as a 0-d float64 array: the same value, without a Python float's conversion per call
        ops = [tuple(np.array(x) if isinstance(x, float) else x for x in op) for op in ops]
        fhat = faces[0][: n_rows * width].reshape(lead + (width,), order="F")  # interface i at column i
        blocks.append(((..., cols), fp[..., inner], fm[..., inner], ghosts, ops,
                       fhat[..., :k], fhat[..., 1 : k + 1], (..., slice(j, j + k))))
    return blocks


def _first_bad_index(arr) -> int:
    flat_bad = ~np.isfinite(np.asarray(arr)).reshape(-1)
    return int(np.argmax(flat_bad))


def weno5_derivative(field, flux, lam, dx: float, workspace: Workspace, out):
    """-d(flux)/dx by WENO5 with Lax-Friedrichs splitting, trailing axis, into ``out``.

    ``lam`` is the splitting parameter (scalar, or shaped to broadcast
    against ``field`` with a trailing size-1 axis for batched input); it
    must dominate the characteristic speeds.  Ghost points repeat the end
    values.  ``field`` and ``flux`` may have any layout.

    The derivative is computed in blocks of grid cells whose interfaces
    hold at most ``_FACE_BLOCK`` elements (rows x columns).  Each block
    forms the split 0.5 * (flux +- lam * field) on its own stencil window
    (three columns beyond the block on each side) from a slice of the grid
    columns; ghost columns are copies of the end columns' split.  The
    split and face scratch are flat F-ordered arrays of one block, reused
    across blocks.  Along the grid axis the flat step is then the row
    count d, so each stencil operand of a face is one contiguous slice,
    shifted by d per stencil point, on numpy's contiguous fast path, and a
    block's scratch stays in cache.  The
    blocks, the scratch and every face operand are a plan kept in
    ``workspace``, so a call in a time loop checks its inputs and then
    makes ufunc calls only.  Every element sees the same operations as in
    the whole-array pad-then-split form of the difference-form faces, so
    the result is bit-identical to it for any block size, reused plan or
    not, and inputs under one block (desk grids, the coupled solve) run as
    one.
    """
    field = np.asarray(field, dtype=float)
    flux = np.asarray(flux, dtype=float)
    if field.shape != flux.shape:
        raise ConfigError("field and flux must have identical shapes")
    if not np.isfinite(field).all():
        raise NumericalError(f"non-finite field value at flat index {_first_bad_index(field)}")
    if not np.isfinite(flux).all():
        raise NumericalError(f"non-finite flux value at flat index {_first_bad_index(flux)}")
    rows, lam_shape = field.shape[:-1] + (1,), np.shape(lam)
    if len(lam_shape) > len(rows) or any(a not in (1, b) for a, b in zip(lam_shape[::-1], rows[::-1])):
        raise ConfigError(f"lam of shape {lam_shape} does not broadcast to {rows} for field of shape {field.shape}")

    plan = workspace["weno5", field.shape, 1]
    for cols, fp_in, fm_in, ghosts, ops, left, right, target in plan:
        block_flux = flux[cols]
        lam_field = np.multiply(lam, field[cols], out=fm_in)
        np.multiply(0.5, np.add(block_flux, lam_field, out=fp_in), out=fp_in)
        np.multiply(0.5, np.subtract(block_flux, lam_field, out=fm_in), out=fm_in)
        for ghost, end in ghosts:
            np.copyto(ghost, end)
        for ufunc, a, b, result in ops:
            ufunc(a, b, out=result)
        deriv = out[target]  # -(right - left) / dx, with the negation exact as left - right
        np.divide(np.subtract(left, right, out=deriv), dx, out=deriv)
    return out


def tvdrk3_step(state, rhs_evaluator, dt: float, step_index: int, workspace: Workspace):
    """One step of the three-stage TVD Runge-Kutta scheme.

    Written in increment form (algebraically the usual convex
    combinations) so a zero right-hand side returns the state bit-for-bit:

        s1 = state + dt L(state)
        s2 = state + 1/4 ((s1 - state) + dt L(s1))
        s3 = state + 2/3 ((s2 - state) + dt L(s2))

    The stages are formed in place in two ``workspace`` arrays, the last
    one into a new F-ordered array that is returned; neither ``state``
    nor an array returned by ``rhs_evaluator`` is written.  Aborts with
    stage and step information if any stage goes non-finite.
    """

    def check(stage_state, stage_no):
        if not np.isfinite(stage_state).all():
            raise NumericalError(f"non-finite state in RK stage {stage_no} at step {step_index} (CFL violation or blowup)")

    state = np.asarray(state, dtype=float)
    stage, dt_rhs = workspace["rk3", state.shape, 2]
    result = np.empty(state.shape, order="F")
    np.add(state, np.multiply(dt, rhs_evaluator(state), out=stage), out=stage)
    check(stage, 1)
    for stage_no, weight, target in ((2, 0.25, stage), (3, 2.0 / 3.0, result)):
        np.multiply(dt, rhs_evaluator(stage), out=dt_rhs)
        np.add(np.subtract(stage, state, out=stage), dt_rhs, out=stage)
        np.add(state, np.multiply(weight, stage, out=stage), out=target)
        check(target, stage_no)
    return result


def _swe_rhs(stacked, g: float, dx: float, workspace: Workspace):
    """Semi-discrete RHS for the coupled system on a (..., 2, n) stack, in a ``workspace`` array."""
    flux, out = workspace["swe_rhs", stacked.shape, 2]
    h = stacked[..., 0, :]
    hu = stacked[..., 1, :]
    u = np.divide(hu, h, out=out[..., 0, :])  # out is free until weno5_derivative writes it
    lam = lax_friedrichs_lambda(u, h, g, workspace)[..., None, :]
    # flux = (hu, hu u + 0.5 g h h), the second row in that operation order
    flux[..., 0, :] = hu
    momentum_flux = np.multiply(hu, u, out=flux[..., 1, :])
    pressure = np.multiply(np.multiply(0.5 * g, h, out=u), h, out=u)
    np.add(momentum_flux, pressure, out=momentum_flux)
    weno5_derivative(stacked, flux, lam, dx, workspace, out)
    # frozen end values realize the non-reflecting Dirichlet closure
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


@dataclass
class CoupledRun:
    """Result of a coupled shallow-water integration.

    Row r of ``h`` is the depth at the r-th smallest recorded step index
    (0 = initial data).  Row s of ``velocity`` is the grid velocity u = hu/h
    at time s*dt, s = 0..n_steps; it is None when recording was disabled to
    bound memory on very fine grids.
    """

    n_steps: int
    h: np.ndarray
    velocity: np.ndarray | None = None


def resolve_steps(t_end: float, dt: float) -> int:
    """Number of steps of size dt > 0 to t_end, which must be a positive multiple of dt."""
    if not (dt > 0.0 and t_end / dt < np.inf):  # dt = cfl * dx can underflow to 0, t_end / dt overflow
        raise ConfigError(f"t_end={t_end} is no finite number of steps of dt={dt}")
    steps = int(round(t_end / dt))
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError(f"t_end={t_end} is not a positive integer multiple of dt={dt}")
    return steps


def solve_coupled_swe(
    initial_h,
    grid: Grid1D,
    config: SolverConfig,
    t_end: float,
    record=(),
    store_velocity: bool = True,
) -> CoupledRun:
    """Integrate the coupled system from depth ``initial_h`` at rest to t_end with dt = cfl * dx.

    ``record`` is an iterable of the step indices whose depth is kept
    (none by default).  The velocity u = hu/h is stored at every step
    unless ``store_velocity`` is False (useful for fine reference runs
    where the history would not fit).  A depth that is not positive and
    finite, at step 0 included, raises NumericalError.
    """
    initial_h = np.asarray(initial_h, dtype=float)
    if initial_h.ndim != 1 or initial_h.shape[-1] != grid.n:
        raise ConfigError("initial depth does not match the grid")
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    dt = config.cfl * grid.dx
    n_steps = resolve_steps(t_end, dt)

    keep = np.unique(np.asarray(list(record), dtype=int))
    if keep.size and (keep[0] < 0 or keep[-1] > n_steps):
        raise ConfigError("recorded step indices outside the run")
    keep_set = {int(s): r for r, s in enumerate(keep)}

    h_rec = np.empty((keep.size, grid.n))
    u_hist = np.empty((n_steps + 1, grid.n)) if store_velocity else None

    state = np.asfortranarray(np.stack([initial_h, np.zeros_like(initial_h)]))
    workspace = Workspace()
    for step in range(n_steps + 1):
        if step:
            with np.errstate(over="ignore"):  # an overflow is an inf, which the step's finiteness checks raise
                state = tvdrk3_step(state, lambda s: _swe_rhs(s, config.g, grid.dx, workspace), dt, step, workspace)
        bad = ~((state[0] > 0.0) & (state[0] < np.inf))  # NaN compares false
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalError(f"depth {state[0, i]:.3g} at index {i}, step {step} is not positive and finite")
        if store_velocity:
            np.divide(state[1], state[0], out=u_hist[step])
        r = keep_set.get(step)
        if r is not None:
            h_rec[r] = state[0]

    return CoupledRun(n_steps, h_rec, u_hist)


def transport_step(h, velocity: np.ndarray, step_index: int, grid: Grid1D, config: SolverConfig, workspace: Workspace):
    """Advance depth by one step of h_t + (h u)_x = 0 with stored u.

    ``h`` may be a single profile (n,) or a member stack (K, n); row
    ``step_index`` of the (steps, n) ``velocity`` history is used for all
    three RK stages.  The result is a new F-ordered array; the arrays it
    reuses come from the run's ``workspace``.
    """
    u = velocity[step_index]
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != grid.n or u.shape[-1] != grid.n:
        raise ConfigError("depth/velocity length does not match the grid")
    dt = config.cfl * grid.dx
    flux, out = workspace["transport_rhs", h.shape, 2]

    def rhs(hc):
        lam = lax_friedrichs_lambda(u, hc, config.g, workspace)
        weno5_derivative(hc, np.multiply(hc, u, out=flux), lam, grid.dx, workspace, out)
        out[..., 0] = 0.0
        out[..., -1] = 0.0
        return out

    return tvdrk3_step(h, rhs, dt, step_index, workspace)
