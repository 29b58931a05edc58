"""Forward dynamics: spectral solver, time-stepping oracle, response function.

Boundary-driven motion is one modal expansion.  With mass-orthonormal modes
v_k and nu_k = sqrt(|lambda_k|), the impulse response
u^delta(t) = (1/l_1) sum_k sin(nu_k t)/nu_k v_1k v_k (the sum over
phi^k / omega_k, with no division by v_1k) is one kernel,
``_impulse_response``, which takes the sines on the uniform grid by angle
addition from about 2 sqrt(n) sines and cosines per mode.
``solve_forward_delta`` returns it,
``response_function`` is its first component r(t), and
``solve_forward_spectral`` convolves it with the control in one batched
trapezoid convolution (``causal_convolution``: a real FFT product from
``numpy.fft`` on long grids, exact direct sums on short ones).

``solve_forward_ode`` is the independent oracle: classical RK4 on
M u_tt = A u + (f/l_1, 0, ..) in first-order form; the step is linear, so
it is applied as one propagator matrix plus three forcing columns, and
the half-step control values come from a four-point midpoint rule.

The convolution makes no temporary the size of the trajectory: it writes
into one preallocated output, the array the trajectory keeps, and its
transforms and end corrections exist for one chunk of ``_CHUNK_FIELDS``
kernel fields at a time.  The oracle keeps no state history: a block scan,
it holds its (n x 3) forcing and O(sqrt(n)) states besides the positions,
and its Python-level loops run about 3 sqrt(n) times, not once per step.

(R f)(t) = int_0^t r(t-s) f(s) ds = u_1^f(t); the tests apply R with the
same discrete convolution, so the two agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, StabilityError
from .model import SystemMatrices, _as_readonly
from .spectral import SpectralData, symmetric_reduction

# Undersampled modal sines silently corrupt the quadrature; hard guard.
NYQUIST_LIMIT = 0.5
# Imaginary-axis stability bound of classical RK4.
RK4_LIMIT = 2.8

_FFT_THRESHOLD = 512

# Kernel fields one chunk of ``causal_convolution`` covers: its padded
# transforms then take about 1 MB each, whatever the number of columns.
_CHUNK_FIELDS = 2**16

# OpenBLAS runs a dgemm on one thread while m n k is at most 2^18.  A threaded
# product leaves its threads spinning, which slowed the forked CSV write after
# it (``case_s_p50`` up 14% in one trial).
_SERIAL_PRODUCT = 2**18


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j T / n_steps on [0, T]."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (0.0 < self.horizon < np.inf):
            raise GridError(f"horizon must be finite and positive, got {self.horizon!r}")
        if self.n_steps < 1:
            raise GridError("n_steps must be at least 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class Waveform:
    """Real samples, one per grid node."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = _as_readonly(self.values)
        if values.shape != (self.grid.n_steps + 1,):
            raise GridError(
                f"waveform needs {self.grid.n_steps + 1} samples, got {values.shape}"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Trajectory:
    """Sampled state history; ``states[j]`` is u(t_j) in the inner space."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        states = _as_readonly(self.states)
        if states.ndim != 2 or states.shape[0] != self.grid.n_steps + 1:
            raise GridError("states must be (n_steps+1, n_masses)")
        object.__setattr__(self, "states", states)


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c >= n, the length scipy's
    ``next_fast_len(n, real=True)`` picks for a real transform.  The length
    fixes the rounding of an FFT product; a test holds the two equal for
    every n up to 2^17."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that lifts p35 to n or more
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def causal_convolution(kernel: np.ndarray, values: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid discretization of int_0^t kernel(t - s) values(s) ds.

    A 2-D kernel holds one kernel per column; all columns are convolved
    with the same values along axis 0 (a 1-D kernel is one such column).
    Above ``_FFT_THRESHOLD`` samples the linear convolution is one
    zero-padded real FFT product (what ``scipy.signal.fftconvolve``
    computes, to the bit); at or below it each column is an exact direct sum
    (``np.convolve``), so sample j never sees a value past t_j, not even
    through rounding.

    The columns are convolved ``_CHUNK_FIELDS`` kernel fields (at least one
    column) at a time into one preallocated output, the array returned: the
    padded transforms, their product and the end corrections exist for one
    chunk only.  The corrections and the ``dt`` scale are applied in place,
    ``full -= a; full -= b; full *= dt``, which rounds exactly as
    ``dt * (full - a - b)``, and no column's transform depends on another,
    so the bits are those of one transform of the whole kernel.
    """
    kernel = np.asarray(kernel, dtype=float)
    values = np.asarray(values, dtype=float)
    single = kernel.ndim == 1
    if single:
        kernel = kernel[:, None]
    n = len(kernel)
    column = values[:, None]
    size = _next_fast_len(2 * n - 1) if n > _FFT_THRESHOLD else 0
    spectrum = np.fft.rfft(column, size, axis=0) if size else None
    out = np.empty(kernel.shape)
    width = max(1, _CHUNK_FIELDS // n)
    for start in range(0, kernel.shape[1], width):
        chunk = slice(start, start + width)
        part = kernel[:, chunk]
        if size:
            full = np.fft.irfft(np.fft.rfft(part, size, axis=0) * spectrum, size, axis=0)[:n]
        else:
            full = np.column_stack([np.convolve(c, values)[:n] for c in part.T])
        full -= 0.5 * part * values[0]
        full -= 0.5 * part[0] * column
        full *= dt
        out[:, chunk] = full
    return out[:, 0] if single else out


def check_nyquist(data: SpectralData, grid: TimeGrid) -> None:
    nu_max = float(np.max(data.frequencies))
    if nu_max * grid.dt >= NYQUIST_LIMIT:
        # the smallest step count that passes; a float, not int(): nu_max T
        # overflows to inf for T near the float maximum
        need = np.floor(nu_max * grid.horizon / NYQUIST_LIMIT) + 1
        if need < 2**53:
            # rounding can move the boundary by a step: settle it by the test
            while nu_max * (grid.horizon / need) >= NYQUIST_LIMIT:
                need += 1
            while need > 1 and nu_max * (grid.horizon / (need - 1)) < NYQUIST_LIMIT:
                need -= 1
        raise StabilityError(
            f"grid too coarse: sqrt(|lambda_max|)*dt = {nu_max * grid.dt:.3g} "
            f">= {NYQUIST_LIMIT} (need n_steps >= {need:.16g})"
        )


def _impulse_response(
    data: SpectralData, l1: float, grid: TimeGrid, columns: slice | list[int] = slice(None)
) -> np.ndarray:
    """(1/l_1) sum_k sin(nu_k t)/nu_k v_1k v_k at each grid time (rows), for
    the components that ``columns`` selects (an index list or a slice of the
    N-1 components; all by default).

    Angle addition on the uniform grid: with B = ceil(sqrt(n + 1)) and
    t_{aB+b} = t_{aB} + t_b, sin(nu t) = sin(nu t_{aB}) cos(nu t_b) +
    cos(nu t_{aB}) sin(nu t_b).  Only the coarse (t_{aB}) and fine (t_b)
    tables are evaluated, about 4 sqrt(n) N transcendentals instead of
    n N; each component folds its coefficients into the coarse tables and
    contracts them with the fine ones, so no (n x N) sine table is built,
    and a column does not depend on which others are selected.  The result
    moves from the direct sum by rounding only.  It is returned
    read-only, so a ``Trajectory`` keeps it without a copy.
    """
    nu = data.frequencies
    modes = data.modes
    coefficients = modes[:, columns] * (modes[:, :1] / (l1 * nu[:, None]))
    times = grid.times
    block = int(np.ceil(np.sqrt(len(times))))
    coarse = np.outer(times[::block], nu)
    fine = np.outer(times[:block], nu)
    # sin(x + y) is the dot product of [sin x, cos x] with [cos y, sin y]
    coarse = np.hstack([np.sin(coarse), np.cos(coarse)])
    fine = np.hstack([np.cos(fine), np.sin(fine)])
    # einsum, not @: a threaded BLAS product leaves its threads spinning, which
    # slowed the CSV writing after it by up to 60 ms on a 2-CPU host; one
    # 2-index product per component, since a 3-index einsum loops naively
    out = np.empty((len(times), coefficients.shape[1]))
    for j, c in enumerate(coefficients.T):
        out[:, j] = np.einsum("ak,bk->ab", coarse * np.tile(c, 2), fine).ravel()[: len(times)]
    out.flags.writeable = False
    return out


def solve_forward_spectral(
    mats: SystemMatrices,
    data: SpectralData,
    f: Waveform,
    l1: float,
) -> Trajectory:
    """Trajectory by modal expansion: the impulse response convolved with f.

    ``mats`` is unused but stays the first positional argument: the
    benchmark's tracer reads ``data`` and ``f.grid`` as its second and
    third.
    """
    grid = f.grid
    check_nyquist(data, grid)
    states = causal_convolution(_impulse_response(data, l1, grid), f.values, grid.dt)
    states[0, :] = 0.0
    states.flags.writeable = False
    return Trajectory(grid=grid, states=states)


def solve_forward_delta(data: SpectralData, l1: float, grid: TimeGrid) -> Trajectory:
    """Trajectory for the unit impulse control f = delta.

    The inner Duhamel integral collapses to sin(nu_k t)/nu_k exactly, so no
    mollifier enters.
    """
    check_nyquist(data, grid)
    return Trajectory(grid=grid, states=_impulse_response(data, l1, grid))


def mollified_delta(grid: TimeGrid, width: float) -> Waveform:
    """Unit-mass Gaussian approximation of delta(t), centered at 5*width so
    the pulse is causal on the grid."""
    if not (np.isfinite(width) and width > 0.0):
        raise ValueError(f"width must be finite and positive, got {width!r}")
    t = grid.times
    vals = np.exp(-0.5 * ((t - 5.0 * width) / width) ** 2) / (width * np.sqrt(2.0 * np.pi))
    return Waveform(grid=grid, values=vals)


def _max_frequency(mats: SystemMatrices) -> float:
    lam = np.linalg.eigvalsh(symmetric_reduction(mats))
    return float(np.sqrt(-lam[0]))


def rk4_step(
    op: np.ndarray, dt: float, y: np.ndarray, g0: np.ndarray, gh: np.ndarray, g1: np.ndarray
) -> np.ndarray:
    """One classical RK4 step of y' = op y + g(t), with g sampled at the
    start, the midpoint and the end of the step."""
    k1 = op @ y + g0
    k2 = op @ (y + 0.5 * dt * k1) + gh
    k3 = op @ (y + 0.5 * dt * k2) + gh
    k4 = op @ (y + dt * k3) + g1
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_propagator(op: np.ndarray, dt: float, direction: np.ndarray):
    """``rk4_step`` as a matrix: (P, c0, ch, c1) with
    rk4_step(op, dt, y, f0 e, fh e, f1 e) = P y + f0 c0 + fh ch + f1 c1
    for the forcing direction e, since the step is linear in all four."""
    zero = np.zeros_like(direction)
    basis = np.eye(len(direction))
    prop = np.column_stack([rk4_step(op, dt, col, zero, zero, zero) for col in basis])
    c0 = rk4_step(op, dt, zero, direction, zero, zero)
    ch = rk4_step(op, dt, zero, zero, direction, zero)
    c1 = rk4_step(op, dt, zero, zero, zero, direction)
    return prop, c0, ch, c1


def _midpoint_values(f: np.ndarray) -> np.ndarray:
    """f halfway between uniform samples: the cubic through the four nearest,
    (-f_{j-1} + 9 f_j + 9 f_{j+1} - f_{j+2}) / 16, and at the ends the
    one-sided (5 f_0 + 15 f_1 - 5 f_2 + f_3) / 16 and its mirror.  Exact on
    cubics, so O(dt^4) like the RK4 step; needs four samples."""
    half = np.empty(len(f) - 1)
    half[1:-1] = (9.0 * (f[1:-2] + f[2:-1]) - f[:-3] - f[3:]) / 16.0
    half[0] = (5.0 * f[0] + 15.0 * f[1] - 5.0 * f[2] + f[3]) / 16.0
    half[-1] = (5.0 * f[-1] + 15.0 * f[-2] - 5.0 * f[-3] + f[-4]) / 16.0
    return half


def solve_forward_ode(mats: SystemMatrices, f: Waveform, l1: float) -> Trajectory:
    """Independent oracle: classical RK4 on (u, u_t).

    The stiffness matrix is negative definite, so the stable oscillatory
    dynamics is M u_tt = A u + (f/l_1) e_1; its modal form is exactly the
    spectral representation the other solver sums.  The half-step stage
    values of the control come from ``_midpoint_values``, fourth order like
    the scheme, so the grid needs at least 3 steps.  Each step is
    y_{j+1} = P y_j + f_j c0 + f_{j+1/2} ch + f_{j+1} c1, the four-stage
    step applied once to the basis and the forcing direction
    (``rk4_propagator``); no spectral data enters.

    The n steps run as a two-pass block scan (Blelloch 1990) over blocks
    of b = ceil(sqrt(n)) steps, the last one padded with zero forcing.
    Pass 1 gives every block's end state from rest in one product with the
    b matrices P^(b-1-i) [c0 ch c1], cheap since the forcing spans three
    directions; a carry s_{k+1} = P^b s_k + e_k gives each block's start;
    pass 2 steps all blocks at once from their starts, one column each,
    and writes the positions into the output.  So about 3 sqrt(n)
    Python-level products replace n.  The sums are grouped otherwise than
    in one y = P y + forcing per step, which they match to rounding (a
    tested gap of at most n eps relative to the largest position).  At
    the benchmark's sizes every product stays within ``_SERIAL_PRODUCT``
    (pass 2 at d = 23 and n = 10000 is 46 x 49 x 100); pass 1's is cut
    into row blocks to stay within it.
    """
    grid = f.grid
    if grid.n_steps < 3:
        raise GridError(f"the RK4 oracle needs at least 4 nodes (steps >= 3), got {grid.n_steps + 1}")
    dt = grid.dt
    nu_max = _max_frequency(mats)
    if nu_max * dt >= RK4_LIMIT:
        raise StabilityError(
            f"RK4 unstable: sqrt(|lambda_max|)*dt = {nu_max * dt:.3f} >= {RK4_LIMIT}"
        )
    d = mats.order
    a_mat = mats.stiffness
    inv_m = 1.0 / mats.masses

    # block operator y' = L y + g(t), y = (u, v)
    op = np.zeros((2 * d, 2 * d))
    op[:d, d:] = np.eye(d)
    op[d:, :d] = inv_m[:, None] * a_mat

    f_half = _midpoint_values(f.values)
    direction = np.zeros(2 * d)
    direction[d] = 1.0 / (l1 * mats.masses[0])
    prop, c0, ch, c1 = rk4_propagator(op, dt, direction)

    # phi_j = (f_j, f_{j+1/2}, f_{j+1}) in blocks of b steps, zero past step n
    n = grid.n_steps
    size = 2 * d
    b = math.isqrt(n - 1) + 1
    blocks = -(-n // b)
    phi = np.zeros((blocks, b, 3))
    phi.reshape(-1, 3)[:n] = np.column_stack([f.values[:-1], f_half, f.values[1:]])

    # pass 1: block k's end state from rest, e_k = sum_i W_i phi_{k,i} with
    # W_i = P^(b-1-i) F, kept transposed so that one product sums a block
    weights = np.empty((b, 3, size))
    weights[-1] = np.vstack([c0, ch, c1])
    for i in range(b - 1, 0, -1):
        np.dot(weights[i], prop.T, out=weights[i - 1])
    flat_phi, flat_weights = phi.reshape(blocks, 3 * b), weights.reshape(3 * b, size)
    ends = np.empty((blocks, size))
    rows = max(1, _SERIAL_PRODUCT // (3 * b * size))
    for k in range(0, blocks, rows):
        np.dot(flat_phi[k : k + rows], flat_weights, out=ends[k : k + rows])

    # carry: block k starts from s_k, with s_0 = 0 and s_{k+1} = P^b s_k + e_k
    leap = np.linalg.matrix_power(prop, b)
    starts = np.zeros((blocks, size))
    for k in range(1, blocks):
        np.dot(leap, starts[k - 1], out=starts[k])
        starts[k] += ends[k - 1]

    # pass 2: every block steps at once, one column each, z <- [P F] z with
    # the step's forcing in z's last three rows; positions go straight out
    z = np.vstack([starts.T, np.empty((3, blocks))])
    other = np.empty_like(z)
    step = np.hstack([prop, weights[-1].T])
    u = np.zeros((n + 1, d))
    for i in range(b):
        z[size:] = phi[:, i].T
        np.dot(step, z, out=other[:size])
        z, other = other, z
        out = u[1 + i :: b]
        out[...] = z[:d, : len(out)].T
    u.flags.writeable = False
    return Trajectory(grid=grid, states=u)


def response_function(data: SpectralData, l1: float, grid: TimeGrid) -> Waveform:
    """r(t) = (1/l_1) sum_k sin(nu_k t) v_1k^2 / nu_k on the grid."""
    return Waveform(grid=grid, values=_impulse_response(data, l1, grid, [0])[:, 0])
