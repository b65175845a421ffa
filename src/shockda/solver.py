"""Uniform-grid solver for the 1D shallow-water system and depth transport.

Spatial discretization is fifth-order finite-difference WENO (Jiang-Shu
smoothness indicators, epsilon = 1e-6) with global Lax-Friedrichs flux
splitting; time integration is the three-stage TVD Runge-Kutta scheme.
Two right-hand sides are provided: the coupled conservative system

    h_t + (hu)_x = 0,    (hu)_t + (hu^2 + g h^2 / 2)_x = 0,

and the scalar transport of depth by a prescribed velocity history,

    h_t + (h u)_x = 0,   u read from a stored coupled run.

All kernels operate on the trailing axis, so an ensemble of states can be
advanced in one vectorized call by stacking members along a leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

GRAVITY = 9.81

WENO_EPS = 1e-6

# ghost points per side needed by the five-point interface stencils
_NGHOST = 3

# elements (rows x interface columns) per block of weno5_derivative: about
# 128 KiB of float64 in each of its nine flat scratch arrays (two split, seven
# face; each holds the block's stencil window, five columns wider), so they
# stay in a per-core L2 cache (on a 2-vCPU Xeon with 2 MiB L2 per core, 8192
# and 32768 measured slower at (100, 1001))
_FACE_BLOCK = 16384


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n points spanning [x_min, x_max] inclusive."""

    n: int
    x_min: float = -1.0
    x_max: float = 1.0

    def __post_init__(self):
        if self.n < 11:
            raise ConfigError(f"grid needs at least 11 points, got n={self.n}")
        if not self.x_max > self.x_min:
            raise ConfigError("grid requires x_max > x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)


@dataclass
class SWEState:
    """Depth and momentum on a grid."""

    h: np.ndarray
    hu: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.hu = np.asarray(self.hu, dtype=float)
        if self.h.shape != self.hu.shape:
            raise ConfigError("h and hu must have identical shapes")
        if not (np.isfinite(self.h).all() and np.isfinite(self.hu).all()):
            raise NumericalError("state contains non-finite entries")
        if np.any(self.h <= 0.0):
            i = int(np.argmax(self.h <= 0.0))
            raise NumericalError(f"non-positive depth at index {i} (vacuum not supported)")

    @property
    def u(self) -> np.ndarray:
        return self.hu / self.h


@dataclass
class VelocityField:
    """Velocity history u(x, t_step) recorded at every solver step.

    Row s of ``u_history`` is the grid velocity at time s*dt.  The
    transport model looks these rows up by step index, so the history must
    cover the whole assimilation window with no gaps.
    """

    u_history: np.ndarray
    dt: float

    def __post_init__(self):
        self.u_history = np.asarray(self.u_history, dtype=float)
        if self.u_history.ndim != 2:
            raise ConfigError("u_history must be a (steps, n) array")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")

    @property
    def n_steps(self) -> int:
        return self.u_history.shape[0]

    def at(self, step_index: int) -> np.ndarray:
        if not 0 <= step_index < self.n_steps:
            raise ConfigError(
                f"step index {step_index} outside stored velocity history "
                f"[0, {self.n_steps - 1}]"
            )
        return self.u_history[step_index]


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


def lax_friedrichs_lambda(u, h, g: float = GRAVITY):
    """max(|u| + sqrt(g h)) over the grid, per leading row if batched.

    ``u`` broadcasts to the shape of ``h`` (one velocity row for a member
    stack); g h is formed once and the rest is done in place.  Negative
    depths yield NaN here without warning; the step routines turn the
    resulting non-finite state into a NumericalError with context, which
    is more useful than a RuntimeWarning at this level.
    """
    with np.errstate(invalid="ignore"):
        speed = np.multiply(g, h)
        np.add(np.abs(u), np.sqrt(speed, out=speed), out=speed)
    return np.max(speed, axis=-1, keepdims=True)


def _curvature_terms(x, y, z, out):
    """13/12 ((x - 2y) + z)^2 into ``out``: the first term of a WENO5 smoothness indicator.

    Over a face's stencil window (two grid steps longer than the face),
    three shifts of it are the first terms of beta0, beta1 and beta2.
    """
    np.add(np.subtract(x, np.multiply(2.0, y, out=out), out=out), z, out=out)
    return np.multiply(13.0 / 12.0, np.multiply(out, out, out=out), out=out)


def _weno5_face(a, b, c, d, e, curvature, out, work):
    """Left-biased fifth-order WENO value at the interface right of c.

    Arguments are the five stencil values f[i-2..i+2]; mirroring the
    argument order gives the right-biased reconstruction at the same
    interface.  ``curvature`` holds the first terms 13/12 (a - 2b + c)^2,
    13/12 (b - 2c + d)^2 and 13/12 (c - 2d + e)^2 of beta0..beta2, shifts
    of one ``_curvature_terms`` array.  The value is written into ``out``;
    ``work`` holds four scratch arrays of ``out``'s shape.  Each line
    performs the IEEE operations of the expression form

        beta0 = 13/12 (a - 2b + c)^2 + 1/4 (a - 4b + 3c)^2   (beta1, beta2 alike)
        alpha_k = C_k / (eps + beta_k)^2,  C = (0.1, 0.6, 0.3)
        q0 = (2a - 7b + 11c)/6,  q1 = (-b + 5c + 2d)/6,  q2 = (2c + 5d - e)/6
        out = (alpha0 q0 + alpha1 q1 + alpha2 q2) / (alpha0 + alpha1 + alpha2)

    in the same order, so the result is bit-identical to it.
    """
    w0, w1, w2, s = work
    mul, add, sub = np.multiply, np.add, np.subtract

    def alpha(w, weight, t):
        # w = t + s is beta_k with t, s its two squared terms
        mul(0.25, mul(s, s, out=s), out=s)
        add(WENO_EPS, add(t, s, out=w), out=w)
        np.divide(weight, mul(w, w, out=w), out=w)

    add(sub(a, mul(4.0, b, out=s), out=s), mul(3.0, c, out=w0), out=s)
    alpha(w0, 0.1, curvature[0])
    sub(b, d, out=s)
    alpha(w1, 0.6, curvature[1])
    add(sub(mul(3.0, c, out=s), mul(4.0, d, out=w2), out=s), e, out=s)
    alpha(w2, 0.3, curvature[2])
    t = add(add(w0, w1, out=curvature[0]), w2, out=curvature[0])  # total, over the spent curvature terms

    np.divide(add(sub(mul(2.0, a, out=s), mul(7.0, b, out=out), out=s), mul(11.0, c, out=out), out=s), 6.0, out=s)
    mul(w0, s, out=w0)
    np.divide(add(add(np.negative(b, out=s), mul(5.0, c, out=out), out=s), mul(2.0, d, out=out), out=s), 6.0, out=s)
    add(w0, mul(w1, s, out=w1), out=w0)
    np.divide(sub(add(mul(2.0, c, out=s), mul(5.0, d, out=out), out=s), e, out=s), 6.0, out=s)
    add(w0, mul(w2, s, out=w2), out=w0)
    return np.divide(w0, t, out=out)


def _first_bad_index(arr) -> int:
    flat_bad = ~np.isfinite(np.asarray(arr)).reshape(-1)
    return int(np.argmax(flat_bad))


def weno5_derivative(field, flux, lam, dx: float, boundary: str = "extrapolate"):
    """-d(flux)/dx by WENO5 with Lax-Friedrichs splitting, trailing axis.

    ``lam`` is the splitting parameter (scalar, or shaped to broadcast
    against ``field`` with a trailing size-1 axis for batched input); it
    must dominate the characteristic speeds.  ``boundary`` selects the
    ghost-point fill: "extrapolate" repeats end values, "periodic" wraps.

    The derivative is computed in blocks of grid cells whose interfaces
    hold at most ``_FACE_BLOCK`` elements (rows x columns).  Each block
    forms the split 0.5 * (flux +- lam * field) on its own stencil window
    (three columns beyond the block on each side) from a slice of the grid
    columns; "extrapolate" ghost columns are copies of the end columns'
    split, and a periodic window that leaves the grid gathers wrapped
    columns.  The split and face scratch are flat arrays of one block,
    reused across blocks, that hold the block in C order, or in F order
    when ``field`` is F- and not C-contiguous.  Along the grid axis the
    flat step is then one number d (1, or the row count), so each stencil
    operand of the block's faces is one contiguous slice, shifted by d per
    stencil point, and numpy runs the face arithmetic on its contiguous
    fast path.  In C order this also computes the five interfaces per row
    whose stencils straddle two rows; they are never read.  On a (100, 1001)
    ensemble a whole-array temporary per operation would be 0.8 MB, handed
    back to the OS and faulted in again on every call, and streamed
    through memory; a block's scratch stays in cache.  Every element sees
    the same operations as in the whole-array pad-then-split form, so the
    result is bit-identical to it for any block size, and inputs under
    one block (desk grids, the coupled solve) run as one.  The result
    keeps ``field``'s memory layout: analysed members are F-ordered, and
    ensemble reductions sum in a layout-dependent order.
    """
    field = np.asarray(field, dtype=float)
    flux = np.asarray(flux, dtype=float)
    if field.shape != flux.shape:
        raise ConfigError("field and flux must have identical shapes")
    if not np.isfinite(field).all():
        raise NumericalError(f"non-finite field value at flat index {_first_bad_index(field)}")
    if not np.isfinite(flux).all():
        raise NumericalError(f"non-finite flux value at flat index {_first_bad_index(flux)}")
    if boundary not in ("extrapolate", "periodic"):
        raise ConfigError(f"unknown boundary closure '{boundary}'")
    rows, lam_shape = field.shape[:-1] + (1,), np.shape(lam)
    if len(lam_shape) > len(rows) or any(a not in (1, b) for a, b in zip(lam_shape[::-1], rows[::-1])):
        raise ConfigError(f"lam of shape {lam_shape} does not broadcast to {rows} for field of shape {field.shape}")

    n, g, lead = field.shape[-1], _NGHOST, field.shape[:-1]
    n_rows = math.prod(lead)
    cells = min(n, max(1, _FACE_BLOCK // max(1, n_rows) - 1))  # cells + 1 interfaces fill one block
    order = "F" if field.flags.f_contiguous and not field.flags.c_contiguous else "C"
    split = [np.empty(n_rows * (cells + 2 * g)) for _ in range(2)]
    faces = [np.empty(n_rows * (cells + 2 * g)) for _ in range(7)]
    out = np.empty_like(field)
    for j in range(0, n, cells):
        k = min(cells, n - j)
        # grid columns j-3 .. j+k+2 hold the stencils of interfaces j-1/2 .. j+k-1/2
        lo, hi, width = j - g, j + k + g, k + 2 * g
        # d: flat step along the grid axis; span: flat length of one face operand
        d, row_step = (n_rows, 1) if order == "F" else (1, width)
        span = k * d + (n_rows - 1) * row_step + 1
        flat_p, flat_m = (buf[: n_rows * width] for buf in split)
        fp, fm = (buf.reshape(lead + (width,), order=order) for buf in (flat_p, flat_m))
        if boundary == "periodic" and (lo < 0 or hi > n):
            cols, inner = np.arange(lo, hi) % n, slice(0, width)
        else:
            cols, inner = slice(max(lo, 0), min(hi, n)), slice(max(lo, 0) - lo, min(hi, n) - lo)
        block_flux, fp_in, fm_in = flux[..., cols], fp[..., inner], fm[..., inner]
        lam_field = np.multiply(lam, field[..., cols], out=fm_in)
        np.multiply(0.5, np.add(block_flux, lam_field, out=fp_in), out=fp_in)
        np.multiply(0.5, np.subtract(block_flux, lam_field, out=fm_in), out=fm_in)
        for split_block in (fp, fm):  # "extrapolate" ghosts repeat the end columns' split
            if inner.start > 0:
                split_block[..., : inner.start] = split_block[..., inner.start : inner.start + 1]
            if inner.stop < width:
                split_block[..., inner.stop :] = split_block[..., inner.stop - 1 : inner.stop]

        fhat, minus, *work = (buf[:span] for buf in faces[:6])
        curv = faces[6][: span + 2 * d]  # a face's curvature terms, on a window two grid steps longer
        # plus flux: left-biased stencil f[i-2..i+2] about interface i+1/2; minus flux: mirrored
        # stencil f[i+3..i-1], its curvature terms (x, y, z) and their shifts mirrored too
        for flat, stencil, window, shifts, face in (
            (flat_p, range(5), (0, 1, 2), (0, 1, 2), fhat),
            (flat_m, range(5, 0, -1), (3, 2, 1), (2, 1, 0), minus),
        ):
            _curvature_terms(*(flat[s * d : s * d + span + 2 * d] for s in window), out=curv)
            curvature = [curv[s * d : s * d + span] for s in shifts]
            _weno5_face(*(flat[s * d : s * d + span] for s in stencil), curvature, face, work)
        np.add(fhat, minus, out=fhat)
        fhat = faces[0][: n_rows * width].reshape(lead + (width,), order=order)  # interface i at column i
        deriv = np.subtract(fhat[..., 1 : k + 1], fhat[..., :k], out=out[..., j : j + k])
        np.divide(np.negative(deriv, out=deriv), dx, out=deriv)
    return out


def tvdrk3_step(state, rhs_evaluator, dt: float, step_index: int | None = None):
    """One step of the three-stage TVD Runge-Kutta scheme.

    Written in increment form (algebraically the usual convex
    combinations) so a zero right-hand side returns the state bit-for-bit:

        s1 = state + dt L(state)
        s2 = state + 1/4 ((s1 - state) + dt L(s1))
        s3 = state + 2/3 ((s2 - state) + dt L(s2))

    The stages are formed in place in two arrays allocated here, in
    ``state``'s layout; neither ``state`` nor an array returned by
    ``rhs_evaluator`` is written.  Aborts with stage and step information
    if any stage goes non-finite.
    """

    def check(stage_state, stage_no):
        if not np.isfinite(stage_state).all():
            where = f" at step {step_index}" if step_index is not None else ""
            raise NumericalError(f"non-finite state in RK stage {stage_no}{where} (CFL violation or blowup)")

    state = np.asarray(state, dtype=float)
    stage, dt_rhs = np.empty_like(state), np.empty_like(state)
    np.add(state, np.multiply(dt, rhs_evaluator(state), out=stage), out=stage)
    check(stage, 1)
    for stage_no, weight in ((2, 0.25), (3, 2.0 / 3.0)):
        np.multiply(dt, rhs_evaluator(stage), out=dt_rhs)
        np.add(np.subtract(stage, state, out=stage), dt_rhs, out=stage)
        np.add(state, np.multiply(weight, stage, out=stage), out=stage)
        check(stage, stage_no)
    return stage


def _swe_rhs(stacked, g: float, dx: float):
    """Semi-discrete RHS for the coupled system on a (..., 2, n) stack."""
    h = stacked[..., 0, :]
    hu = stacked[..., 1, :]
    u = hu / h
    lam = lax_friedrichs_lambda(u, h, g)[..., None, :]
    # flux = (hu, hu u + 0.5 g h h), the second row in that operation order
    flux = np.empty_like(stacked)
    flux[..., 0, :] = hu
    momentum_flux = np.multiply(hu, u, out=flux[..., 1, :])
    pressure = np.multiply(np.multiply(0.5 * g, h, out=u), h, out=u)
    np.add(momentum_flux, pressure, out=momentum_flux)
    out = weno5_derivative(stacked, flux, lam, dx)
    # frozen end values realize the non-reflecting Dirichlet closure
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


@dataclass
class CoupledRun:
    """Result of a coupled shallow-water integration.

    ``recorded_steps`` lists the step indices (0 = initial data) whose
    states are stored in ``h`` / ``hu`` row by row.  ``velocity`` is None
    when recording was disabled to bound memory on very fine grids.
    """

    dt: float
    n_steps: int
    recorded_steps: np.ndarray
    h: np.ndarray
    hu: np.ndarray
    velocity: VelocityField | None = None


def resolve_steps(t_end: float, dt: float) -> int:
    """Number of steps of size dt to t_end, which must be a positive multiple of dt."""
    steps = int(round(t_end / dt))
    if steps < 1 or abs(steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError(f"t_end={t_end} is not a positive integer multiple of dt={dt}")
    return steps


def solve_coupled_swe(
    initial: SWEState,
    grid: Grid1D,
    config: SolverConfig,
    t_end: float,
    record="all",
    store_velocity: bool = True,
) -> CoupledRun:
    """Integrate the coupled system to t_end with dt = cfl * dx.

    ``record`` chooses which states are kept: "all", "ends" (initial and
    final only), or an explicit iterable of step indices.  The velocity
    u = hu/h is stored at every step unless ``store_velocity`` is False
    (useful for fine reference runs where the history would not fit).
    """
    if initial.h.ndim != 1 or initial.h.shape[-1] != grid.n:
        raise ConfigError("initial state does not match the grid")
    if t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    dt = config.cfl * grid.dx
    n_steps = resolve_steps(t_end, dt)

    if isinstance(record, str):
        if record == "all":
            keep = np.arange(n_steps + 1)
        elif record == "ends":
            keep = np.array([0, n_steps])
        else:
            raise ConfigError(f"unknown record mode '{record}'")
    else:
        keep = np.unique(np.asarray(list(record), dtype=int))
        if keep.size and (keep[0] < 0 or keep[-1] > n_steps):
            raise ConfigError("recorded step indices outside the run")
    keep_set = {int(s): r for r, s in enumerate(keep)}

    h_rec = np.empty((keep.size, grid.n))
    hu_rec = np.empty((keep.size, grid.n))
    u_hist = np.empty((n_steps + 1, grid.n)) if store_velocity else None

    state = np.stack([initial.h, initial.hu])
    if 0 in keep_set:
        h_rec[keep_set[0]] = state[0]
        hu_rec[keep_set[0]] = state[1]
    if store_velocity:
        u_hist[0] = state[1] / state[0]

    for step in range(1, n_steps + 1):
        state = tvdrk3_step(state, lambda s: _swe_rhs(s, config.g, grid.dx), dt, step_index=step)
        if np.any(state[0] <= 0.0):
            i = int(np.argmax(state[0] <= 0.0))
            raise NumericalError(f"vacuum: depth <= 0 at index {i}, step {step}")
        if store_velocity:
            u_hist[step] = state[1] / state[0]
        r = keep_set.get(step)
        if r is not None:
            h_rec[r] = state[0]
            hu_rec[r] = state[1]

    velocity = VelocityField(u_hist, dt) if store_velocity else None
    return CoupledRun(dt, n_steps, keep, h_rec, hu_rec, velocity)


def transport_step(h, velocity: VelocityField, step_index: int, grid: Grid1D, config: SolverConfig):
    """Advance depth by one step of h_t + (h u)_x = 0 with stored u.

    ``h`` may be a single profile (n,) or a member stack (K, n); the
    velocity row at ``step_index`` is used for all three RK stages.
    """
    u = velocity.at(step_index)
    h = np.asarray(h, dtype=float)
    if h.shape[-1] != grid.n or u.shape[-1] != grid.n:
        raise ConfigError("depth/velocity length does not match the grid")
    dt = config.cfl * grid.dx

    def rhs(hc):
        lam = lax_friedrichs_lambda(u, hc, config.g)
        out = weno5_derivative(hc, hc * u, lam, grid.dx)
        out[..., 0] = 0.0
        out[..., -1] = 0.0
        return out

    return tvdrk3_step(h, rhs, dt, step_index=step_index)
