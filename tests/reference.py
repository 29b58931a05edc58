"""Reference code the tests compare the package against.

Nothing in the package calls these.  They evaluate the paper's identities
directly: the Cauchy recursion for the polynomials phi_n, the spectral
function mu, the response operator R, the piecewise-affine interpolant in x
and the residual of the equivalent integral equation, plus the Chebyshev
recurrence, the uniform string that the closed forms are checked on, and
the connector's action C f on a vector, its trapezoid inner product, and
the truncated solve of C f = g through the factorization's Ritz pairs,
which recovery does not need: it works in the coordinates of the range.
The forward solvers' hot paths are held to their plain forms: the running
modal sums to ``forward.causal_convolution`` of the impulse response, and
the RK4 oracle to one ``prop @ y + forcing`` per step; so is the uniform
chain's image sum, as the loop that evaluates every pair until one is
negligible; and the float formatter's digit core, as Dragonbox one value
at a time in Python integers.
"""

import itertools
import struct

import numpy as np

from krein_string import StringSpec, TimeGrid, Trajectory, Waveform
from krein_string.errors import GridError
from krein_string.forward import (
    _midpoint_values,
    causal_convolution,
    rk4_propagator,
)
from krein_string import uniform
from krein_string.model import SystemMatrices
from krein_string.spectral import SpectralData


def uniform_spec(n: int) -> StringSpec:
    """StringSpec with lengths 1/n (n entries) and masses 1/n (n-1 entries)."""
    if n < 2:
        raise ValueError("uniform case needs n >= 2")
    return StringSpec(lengths=np.full(n, 1.0 / n), masses=np.full(n - 1, 1.0 / n))


def positions(spec: StringSpec) -> np.ndarray:
    """Node coordinates x_0=0 < x_1 < ... < x_N = total length."""
    out = np.empty(spec.n_segments + 1)
    out[0] = 0.0
    np.cumsum(spec.lengths, out=out[1:])
    return out


def format_spec(spec: StringSpec) -> str:
    """The spec-file text of ``spec``, which ``parse_spec_text`` reads back."""
    lengths = ",".join(repr(float(v)) for v in spec.lengths)
    masses = ",".join(repr(float(v)) for v in spec.masses)
    return f"lengths={lengths}\nmasses={masses}\n"


def evaluate_polynomials(mats: SystemMatrices, lam: float) -> np.ndarray:
    """Run the Cauchy recursion; returns (phi_1(lam), ..., phi_N(lam)).

    The terminal entry phi_N vanishes exactly at eigenvalues of the
    generalized problem.
    """
    a = mats.couplings
    b = mats.diag
    m = mats.masses
    n_state = mats.order
    out = np.empty(n_state + 1)
    phi_prev = 0.0
    phi = 1.0
    out[0] = phi
    for n in range(1, n_state + 1):
        phi_next = ((lam * m[n - 1] - b[n - 1]) * phi - a[n - 1] * phi_prev) / a[n]
        phi_prev, phi = phi, phi_next
        out[n] = phi
    return out


def spectral_function(data: SpectralData, lam: float) -> float:
    """Right-continuous step function mu(lam) = sum_{lam_k < lam} 1/omega_k."""
    return float(np.sum(data.modes[data.eigenvalues < lam, 0] ** 2))


def chebyshev_u(m: int, x):
    """Chebyshev polynomial of the second kind by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * x
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def same_grid(a: TimeGrid, b: TimeGrid) -> bool:
    """Equal step counts and horizons equal to 1e-12 relative."""
    return a.n_steps == b.n_steps and np.isclose(a.horizon, b.horizon, rtol=1e-12, atol=0.0)


def apply_response_operator(r: Waveform, f: Waveform) -> Waveform:
    """(R f)(t) = int_0^t r(t-s) f(s) ds by trapezoid convolution."""
    if not same_grid(r.grid, f.grid):
        raise GridError("response and control must share one grid")
    out = causal_convolution(r.values, f.values, r.grid.dt)
    return Waveform(grid=r.grid, values=out)


def connector_apply(connector, values: np.ndarray) -> np.ndarray:
    """Operator action (C f)(t_i) = sum_j kernel[i, j] w_j f_j on a vector
    or on each column of an (n+1, k) block, by the connector's FFT product."""
    weights = connector.quad_weights if values.ndim == 1 else connector.quad_weights[:, None]
    return connector._kernel_product(weights * values)


def weighted_inner(connector, u: np.ndarray, v: np.ndarray) -> float:
    """(u, v) in the connector's trapezoid inner product."""
    return float(np.sum(connector.quad_weights * u * v))


def truncated_solve(fact, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of C f = rhs through the rank-truncated Ritz
    pairs of a ``ConnectorFactorization``, on the grid's nodes."""
    basis = fact._vecs[:, : fact.rank]
    coeffs = (basis.T @ (fact._sqrt_w * rhs)) / fact._vals[: fact.rank]
    return (basis @ coeffs) / fact._sqrt_w


def stepped_oracle(mats: SystemMatrices, f: Waveform, l1: float) -> np.ndarray:
    """Positions of the RK4 oracle stepped one ``y = prop @ y + forcing`` at
    a time, with the propagator and the forcing ``solve_forward_ode`` uses."""
    d = mats.order
    op = np.zeros((2 * d, 2 * d))
    op[:d, d:] = np.eye(d)
    op[d:, :d] = (1.0 / mats.masses)[:, None] * mats.stiffness
    direction = np.zeros(2 * d)
    direction[d] = 1.0 / (l1 * mats.masses[0])
    prop, c0, ch, c1 = rk4_propagator(op, f.grid.dt, direction)
    f_half = _midpoint_values(f.values)
    u = np.zeros((f.grid.n_steps + 1, d))
    y = np.zeros(2 * d)
    for j in range(f.grid.n_steps):
        y = prop @ y + (f.values[j] * c0 + f_half[j] * ch + f.values[j + 1] * c1)
        u[j + 1] = y[:d]
    return u


def continuous_solution(
    spec: StringSpec,
    traj: Trajectory,
    f: Waveform,
    x: float,
    t_index: int,
) -> float:
    """Piecewise-affine interpolant in x: f(t) at x=0, u_i(t) at masses, 0 at x=l."""
    xs = positions(spec)
    if x < 0.0 or x > xs[-1]:
        raise ValueError(f"x={x} outside [0, {xs[-1]}]")
    nodes = np.concatenate(([f.values[t_index]], traj.states[t_index], [0.0]))
    seg = int(np.searchsorted(xs, x, side="right")) - 1
    if seg >= len(xs) - 1:
        return float(nodes[-1])
    frac = (x - xs[seg]) / (xs[seg + 1] - xs[seg])
    return float((1.0 - frac) * nodes[seg] + frac * nodes[seg + 1])


def check_integral_equation(spec: StringSpec, traj: Trajectory, f: Waveform) -> float:
    """Max residual of the equivalent integral equation at the mass points.

    For atomic mass the left side is the finite sum
    sum_{x_j < x_i} x_j (x_i - x_j) m_j u_j(t); the right side pairs time
    integrals of (t - s) against f + u_i and against the exact spatial
    integral of the affine interpolant.  Both converge at O(dt^2).
    """
    if not same_grid(traj.grid, f.grid):
        raise GridError("trajectory and control must share one grid")
    grid = traj.grid
    t = grid.times
    xs = positions(spec)
    u = traj.states
    n_mass = spec.n_masses

    # per-segment exact integrals of the affine interpolant, per time
    nodes = np.column_stack([f.values, u, np.zeros(grid.n_steps + 1)])
    seg_int = 0.5 * spec.lengths * (nodes[:, :-1] + nodes[:, 1:])

    worst = 0.0
    for i in range(1, n_mass + 1):
        if i > 1:
            coef = xs[1:i] * (xs[i] - xs[1:i]) * spec.masses[: i - 1]
            lhs = u[:, : i - 1] @ coef
        else:
            lhs = np.zeros(grid.n_steps + 1)
        spatial = np.sum(seg_int[:, :i], axis=1)
        rhs = xs[i] * causal_convolution(t, f.values + u[:, i - 1], grid.dt)
        rhs -= 2.0 * causal_convolution(t, spatial, grid.dt)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def plain_image_sum(n: int, j: int, times: np.ndarray) -> np.ndarray:
    """``uniform.image_sum`` without its a-priori bound: pairs m = +-1, +-2, ...
    are evaluated, through the same ``bessel_j_grid``, and added until the
    next pair is below 1e-16 at every time."""
    times = np.asarray(times, dtype=float)
    x = 2.0 * n * times
    total = uniform.delta_solution(n, j, times)
    for m in itertools.count(1):
        above, below = j + 2 * m * n, 2 * m * n - j
        pair = 2.0 / times * (
            above * uniform.bessel_j_grid(2 * above, x) - below * uniform.bessel_j_grid(2 * below, x)
        )
        if np.max(np.abs(pair)) < 1e-16:
            return total
        total += pair


def _floor_log10(num: int, den: int) -> int:
    """floor(log10(num / den)), exactly."""
    n = len(str(num)) - len(str(den))
    while num * 10 ** max(-n, 0) < den * 10 ** max(n, 0):
        n -= 1
    while num * 10 ** max(-n - 1, 0) >= den * 10 ** max(n + 1, 0):
        n += 1
    return n


def _phi(j: int) -> tuple[int, int]:
    """Dragonbox's phi_j = ceil(10**j 2**(127 - floor(j log2 10))) and
    floor(j log2 10)."""
    log2 = (10**j).bit_length() - 1 if j >= 0 else -((10**-j).bit_length())
    num, den = 10 ** max(j, 0) << max(127 - log2, 0), 10 ** max(-j, 0) << max(log2 - 127, 0)
    return -(-num // den), log2


def _parity_and_integral(two_f: int, phi: int, beta: int) -> tuple[int, bool]:
    """Parity of floor(two_f 2**beta phi / 2**128), and whether its top 64
    bits of fraction are zero, from the low 128 bits of two_f phi."""
    low = (two_f * phi) % 2**128
    return (low >> (128 - beta)) & 1, (low << beta) % 2**128 >> 64 == 0


def dragonbox(v: float) -> tuple[int, int, str]:
    """(f, e, branch) for a finite nonzero v: |v| = f 10**e by Dragonbox's
    shortest, nearest, ties-to-even digits (J. Jeon, 2020), f of 16 or 17
    digits for a normal v, as ``floattext._decimal`` gives them, and the
    name of the branch that set them."""
    bits = struct.unpack("<Q", struct.pack("<d", abs(v)))[0]
    biased, fraction = bits >> 52, bits & (2**52 - 1)
    c, q = fraction | min(biased, 1) << 52, max(biased, 1) - 1075
    if fraction == 0 and biased > 1:
        # the shorter interval, (c - 1/4, c + 1/2) 2**q, at 10**-k
        k = _floor_log10(3 << max(q, 0), 4 << max(-q, 0))
        phi, log2 = _phi(-k)
        shift = 11 - q - log2
        left = ((phi >> 64) - (phi >> 118)) >> shift
        right = ((phi >> 64) + (phi >> 117)) >> shift
        y = ((phi >> (63 + shift)) + 1) >> 1
        name = "shorter, integral left end" if 2 <= q <= 3 else None
        left += name is None
        if right // 10 * 10 >= left:
            return right // 10 * 10, k, name or "shorter, big divisor"
        if y & 1 and q == -77:
            return y - 1, k, "shorter, tie to even"
        if y < left:
            return y + 1, k, name or "shorter, raised"
        return y, k, name or "shorter, rounded"
    e = _floor_log10(1 << max(q, 0), 1 << max(-q, 0))
    phi, log2 = _phi(2 - e)
    beta = q + log2
    delta = phi >> (127 - beta)
    product = ((2 * c + 1) << beta) * phi
    z, middle = product >> 128, product >> 64 & (2**64 - 1)
    s, r = divmod(z, 1000)
    name = None
    if r < delta:
        if r or middle or not c & 1:
            return 10 * s, e, "big divisor"
        s, r, name = s - 1, 1000, "excluded right end"
    elif r == delta:
        parity, integral = _parity_and_integral(2 * c - 1, phi, beta)
        if parity or (integral and not c & 1):
            return 10 * s, e, "r == delta, big divisor"
        name = "r == delta, small divisor"
    dist = r - delta // 2 + 50
    f = 10 * s + dist // 100
    if dist % 100:
        return f, e, name or "small divisor"
    parity, integral = _parity_and_integral(2 * c, phi, beta)
    if parity != dist & 1:
        return f - 1, e, name or "parity fix, lowered"
    if integral and f & 1:
        return f - 1, e, name or "parity fix, tie to even"
    return f, e, name or "parity fix, kept"
