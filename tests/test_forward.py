import tracemalloc

import numpy as np
import pytest

from krein_string import (
    GridError,
    StabilityError,
    StringSpec,
    TimeGrid,
    Waveform,
    build_matrices,
    compute_spectral_data,
    mollified_delta,
    response_function,
    solve_forward_delta,
    solve_forward_ode,
    solve_forward_spectral,
    uniform_eigen,
)
from krein_string import forward
from krein_string.uniform import bessel_j_grid
from krein_string.forward import (
    _CHUNK_FIELDS,
    Trajectory,
    _impulse_response,
    _midpoint_values,
    _next_fast_len,
    causal_convolution,
    rk4_propagator,
    rk4_step,
)
from krein_string.inverse import DiscretizedConnector
from krein_string.model import SystemMatrices
from krein_string.spectral import SpectralData
from krein_string.uniform import parse_test_function

from scipy.linalg import eigh_tridiagonal
from scipy.signal import fftconvolve

from conftest import random_spec
from reference import (
    apply_response_operator,
    check_integral_equation,
    continuous_solution,
    stepped_oracle,
    uniform_spec,
)

SINGLE_SPEC = StringSpec([0.5, 0.5], [1.0])
SINGLE = build_matrices(SINGLE_SPEC)
SINGLE_DATA = compute_spectral_data(SINGLE)


def smooth_control(grid: TimeGrid) -> Waveform:
    t = grid.times
    return Waveform(grid, np.sin(3.0 * t) * np.exp(-t))


def test_grid_validation():
    with pytest.raises(GridError):
        TimeGrid(-1.0, 10)
    with pytest.raises(GridError):
        TimeGrid(1.0, 0)
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(GridError):
        Waveform(grid, np.zeros(3))


def test_response_single_mass_is_sine():
    grid = TimeGrid(2.0, 500)
    r = response_function(SINGLE_DATA, 0.5, grid)
    assert np.allclose(r.values, np.sin(2.0 * grid.times), atol=1e-14)
    assert r.values[0] == 0.0


def test_response_uniform_matches_bessel_before_reflection():
    # r_N(t) = (2/t) J_2(2Nt) is exact until the wave returns from x = 1
    n = 8
    data = compute_spectral_data(build_matrices(uniform_spec(n)))
    grid = TimeGrid(0.5, 400)
    r = response_function(data, 1.0 / n, grid)
    t = grid.times[1:]
    closed = 2.0 / t * bessel_j_grid(2, 2.0 * n * t)
    assert np.max(np.abs(r.values[1:] - closed)) < 1e-9


def test_response_derivative_at_zero(rng):
    # r'(0) = 1 / (m_1 l_1), by one-sided finite differences
    for _ in range(6):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        data = compute_spectral_data(build_matrices(spec))
        h = 1e-6 / float(data.frequencies.max())
        grid = TimeGrid(4.0 * h, 4)
        r = response_function(data, float(spec.lengths[0]), grid)
        v = r.values
        deriv = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        assert deriv == pytest.approx(1.0 / (spec.masses[0] * spec.lengths[0]), rel=1e-6)


def test_apply_response_operator_closed_form():
    # r = sin 2t against f = 1: int_0^t sin(2(t-s)) ds = (1 - cos 2t)/2
    grid = TimeGrid(1.0, 2000)
    r = Waveform(grid, np.sin(2.0 * grid.times))
    f = Waveform(grid, np.ones_like(grid.times))
    out = apply_response_operator(r, f)
    assert np.max(np.abs(out.values - 0.5 * (1.0 - np.cos(2.0 * grid.times)))) < 1e-7
    zero = apply_response_operator(r, Waveform(grid, np.zeros_like(grid.times)))
    assert np.all(zero.values == 0.0)


def test_apply_response_operator_grid_mismatch():
    r = Waveform(TimeGrid(1.0, 10), np.zeros(11))
    f = Waveform(TimeGrid(1.0, 20), np.zeros(21))
    with pytest.raises(GridError):
        apply_response_operator(r, f)


def test_response_operator_matches_first_component(rng):
    spec = random_spec(rng, 5)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    grid = TimeGrid(1.0, max(1000, int(80 * data.frequencies.max())))
    f = smooth_control(grid)
    l1 = float(spec.lengths[0])
    traj = solve_forward_spectral(mats, data, f, l1)
    r = response_function(data, l1, grid)
    out = apply_response_operator(r, f)
    # same quadrature on both sides: agreement is at rounding level
    assert np.max(np.abs(out.values - traj.states[:, 0])) < 1e-12


def test_causality():
    grid = TimeGrid(1.0, 200)
    r = Waveform(grid, np.sin(2.0 * grid.times))
    base = np.sin(grid.times)
    tampered = base.copy()
    cut = 120
    tampered[cut + 1 :] += 5.0
    out_a = apply_response_operator(r, Waveform(grid, base)).values
    out_b = apply_response_operator(r, Waveform(grid, tampered)).values
    assert np.array_equal(out_a[: cut + 1], out_b[: cut + 1])


def test_causality_per_column():
    # the direct path of a 2-D kernel sums each column on its own; no column
    # may see a value past its time sample either
    grid = TimeGrid(1.0, 200)
    kernel = np.sin(np.outer(grid.times, [1.0, 2.0, 7.0]))
    base = np.sin(grid.times)
    tampered = base.copy()
    cut = 120
    tampered[cut + 1 :] += 5.0
    out_a = causal_convolution(kernel, base, grid.dt)
    out_b = causal_convolution(kernel, tampered, grid.dt)
    assert np.array_equal(out_a[: cut + 1], out_b[: cut + 1])


def test_linearity(rng):
    grid = TimeGrid(1.0, 300)
    r = Waveform(grid, np.sin(2.0 * grid.times))
    f = rng.standard_normal(301)
    g = rng.standard_normal(301)
    lhs = apply_response_operator(r, Waveform(grid, 0.3 * f - 1.7 * g)).values
    rhs = 0.3 * apply_response_operator(r, Waveform(grid, f)).values
    rhs -= 1.7 * apply_response_operator(r, Waveform(grid, g)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_zero_control_zero_trajectory():
    grid = TimeGrid(1.0, 100)
    zero = Waveform(grid, np.zeros(101))
    traj = solve_forward_spectral(SINGLE, SINGLE_DATA, zero, 0.5)
    assert np.all(traj.states == 0.0)
    traj = solve_forward_ode(SINGLE, zero, 0.5)
    assert np.all(traj.states == 0.0)


def test_nyquist_guard():
    grid = TimeGrid(1.0, 3)
    f = Waveform(grid, np.zeros(4))
    with pytest.raises(StabilityError, match="grid too coarse"):
        solve_forward_spectral(SINGLE, SINGLE_DATA, f, 0.5)


def test_rk4_stability_guard():
    grid = TimeGrid(10.0, 5)
    f = Waveform(grid, np.zeros(6))
    with pytest.raises(StabilityError, match="RK4 unstable"):
        solve_forward_ode(SINGLE, f, 0.5)


def test_ode_heaviside_closed_form():
    # single mass, f = 1: u'' = -4u + 2 from rest, so u = (1 - cos 2t)/2
    grid = TimeGrid(1.0, 2000)
    f = Waveform(grid, np.ones_like(grid.times))
    traj = solve_forward_ode(SINGLE, f, 0.5)
    assert np.max(np.abs(traj.states[:, 0] - 0.5 * (1.0 - np.cos(2.0 * grid.times)))) < 1e-10


def test_rk4_propagator_matches_four_stage_step(rng):
    # the step is linear in (y, g0, gh, g1): one matrix and three columns
    spec = random_spec(rng, 6)
    mats = build_matrices(spec)
    d = mats.order
    op = np.zeros((2 * d, 2 * d))
    op[:d, d:] = np.eye(d)
    op[d:, :d] = mats.stiffness / mats.masses[:, None]
    dt = 0.5 / float(compute_spectral_data(mats).frequencies.max())
    direction = np.zeros(2 * d)
    direction[d] = 1.0 / (spec.lengths[0] * spec.masses[0])
    prop, c0, ch, c1 = rk4_propagator(op, dt, direction)
    for _ in range(50):
        y = rng.standard_normal(2 * d)
        f0, fh, f1 = rng.standard_normal(3)
        staged = rk4_step(op, dt, y, f0 * direction, fh * direction, f1 * direction)
        folded = prop @ y + f0 * c0 + fh * ch + f1 * c1
        assert np.max(np.abs(folded - staged)) <= 1e-14 * np.max(np.abs(y))


def test_ode_fourth_order():
    # single mass, f = sin t: u'' = -4u + 2 sin t from rest, so
    # u = (2/3) sin t - (1/3) sin 2t; halving dt divides the error by ~16
    errors = []
    for steps in (50, 100):
        grid = TimeGrid(2.0, steps)
        t = grid.times
        traj = solve_forward_ode(SINGLE, Waveform(grid, np.sin(t)), 0.5)
        exact = (2.0 / 3.0) * np.sin(t) - (1.0 / 3.0) * np.sin(2.0 * t)
        errors.append(np.max(np.abs(traj.states[:, 0] - exact)))
    assert 12.0 <= errors[0] / errors[1] <= 20.0


@pytest.mark.parametrize("n_masses", [1, 3, 23])
def test_ode_blocks_are_the_stepped_oracle(n_masses):
    # the block scan sums each block's forcing through powers of P and carries
    # the block ends by P^b, so it rounds otherwise than one prop @ y + forcing
    # per step; the gap to that sequential loop grows with the steps: at most
    # 0.11 n eps relative to the largest position on these strings, 0.36 n eps
    # over 15 more random ones of 1 to 23 masses on the same grids.  Grids: the
    # fewest steps (two blocks, the last of one step), b^2 - 1, b^2 and
    # b^2 + 1 at b = 32 (last blocks of 31, 32 and, at b = 33, 2 steps), a
    # non-square 2000 and 10001 (100 blocks of 101 steps, the last of 2)
    spec = random_spec(np.random.default_rng(n_masses), n_masses + 1, 0.2, 1.0)
    mats = build_matrices(spec)
    l1 = float(spec.lengths[0])
    for steps in (3, 1023, 1024, 1025, 2000, 10001):
        f = smooth_control(TimeGrid(0.004 * steps, steps))
        want = stepped_oracle(mats, f, l1)
        gap = np.max(np.abs(solve_forward_ode(mats, f, l1).states - want))
        assert gap <= steps * np.finfo(float).eps * np.max(np.abs(want)), (steps, gap)


def test_midpoint_rule_is_exact_on_cubics(rng):
    # the four-point rule holds cubics exactly: the interior stencil and the
    # one-sided rules at both ends, down to the four-sample minimum
    for n_samples in (4, 5, 9):
        t = np.linspace(-0.4, 1.3, n_samples)
        mid = t[:-1] + 0.5 * (t[1] - t[0])
        for _ in range(5):
            coeffs = rng.standard_normal(4)
            half = _midpoint_values(np.polynomial.polynomial.polyval(t, coeffs))
            exact = np.polynomial.polynomial.polyval(mid, coeffs)
            scale = np.max(np.abs(exact))
            assert abs(half[0] - exact[0]) <= 1e-14 * scale
            assert abs(half[-1] - exact[-1]) <= 1e-14 * scale
            assert np.max(np.abs(half[1:-1] - exact[1:-1]), initial=0.0) <= 1e-14 * scale


def test_mollified_delta_converges_to_impulse_response():
    # u_1 under a narrowing mollifier approaches sin(2t), time-shifted by the
    # pulse center; compare after the pulse has fully entered
    errors = []
    for width in (0.02, 0.01, 0.005):
        grid = TimeGrid(1.0, 20000)
        f = mollified_delta(grid, width)
        traj = solve_forward_spectral(SINGLE, SINGLE_DATA, f, 0.5)
        start = int(round(10.0 * width / grid.dt))
        t = grid.times[start:]
        errors.append(np.max(np.abs(traj.states[start:, 0] - np.sin(2.0 * (t - 5.0 * width)))))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 2e-4


def test_oracle_equivalence(rng):
    for _ in range(3):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        mats = build_matrices(spec)
        data = compute_spectral_data(mats)
        grid = TimeGrid(1.0, max(1500, int(80 * data.frequencies.max())))
        f = smooth_control(grid)
        l1 = float(spec.lengths[0])
        spectral = solve_forward_spectral(mats, data, f, l1)
        stepped = solve_forward_ode(mats, f, l1)
        assert np.max(np.abs(spectral.states - stepped.states)) < 1e-6


def test_containers_keep_a_frozen_array_and_copy_the_rest():
    # a read-only float64 array that owns its data is kept as it is; a
    # writeable one, a read-only view (its base stays writeable) and an int
    # array are copied, so nothing can change a container's values later
    grid = TimeGrid(1.0, 4)
    containers = {
        "StringSpec": (lambda a: StringSpec(a, [1.0, 1.0]).lengths, (3,)),
        "SystemMatrices": (lambda a: SystemMatrices(a, [1.0, 1.0]).couplings, (3,)),
        "SpectralData": (lambda a: SpectralData(a, np.eye(3)).eigenvalues, (3,)),
        "Waveform": (lambda a: Waveform(grid, a).values, (5,)),
        "Trajectory": (lambda a: Trajectory(grid, a).states, (5, 2)),
        "DiscretizedConnector": (
            lambda a: DiscretizedConnector(TimeGrid(1.0, 2), a, 1.0).cumulative,
            (5,),
        ),
    }
    for name, (held, shape) in containers.items():
        values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        writeable = values.copy()
        kept = held(writeable)
        assert kept is not writeable and not kept.flags.writeable, name
        writeable[0] = -1.0
        assert np.array_equal(kept, values), name
        frozen = values.copy()
        frozen.flags.writeable = False
        assert held(frozen) is frozen, name
        view = values.copy()[:]
        view.flags.writeable = False
        assert held(view) is not view, name
        assert held(values.astype(int)).dtype == np.float64, name


def test_modal_trajectories_are_not_copied(monkeypatch):
    # the delta and spectral solvers freeze their fresh output, and the
    # Trajectory keeps the very array it is handed
    handed = []

    class Recording(Trajectory):
        def __post_init__(self):
            handed.append(self.states)
            super().__post_init__()

    monkeypatch.setattr(forward, "Trajectory", Recording)
    grid = TimeGrid(1.0, 800)
    for solve in (
        lambda: solve_forward_delta(SINGLE_DATA, 0.5, grid),
        lambda: solve_forward_spectral(SINGLE, SINGLE_DATA, smooth_control(grid), 0.5),
    ):
        states = solve().states
        assert states is handed[-1] and not states.flags.writeable


def test_selected_impulse_components_are_columns_of_all():
    # each component is its own contraction of the same tables, so a
    # selection (prop 1's two components, the response's first) is bitwise
    # the matching columns of the full impulse response
    for n in (8, 64, 256):
        data = uniform_eigen(n)
        grid = TimeGrid(1.0, max(4 * n, 64))
        full = _impulse_response(data, 1.0 / n, grid)
        assert full.shape == (grid.n_steps + 1, n - 1)
        selected = _impulse_response(data, 1.0 / n, grid, [0, n // 2 - 1])
        assert np.array_equal(selected, full[:, [0, n // 2 - 1]])
        assert np.array_equal(response_function(data, 1.0 / n, grid).values, full[:, 0])


def test_delta_trajectory_matches_response():
    data = compute_spectral_data(build_matrices(uniform_spec(5)))
    grid = TimeGrid(1.0, 200)
    traj = solve_forward_delta(data, 0.2, grid)
    r = response_function(data, 0.2, grid)
    assert np.allclose(traj.states[:, 0], r.values, atol=1e-13)


def test_continuous_solution_interpolation():
    spec = StringSpec([0.2, 0.3, 0.5], [1.0, 2.0])
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    grid = TimeGrid(1.0, 500)
    f = smooth_control(grid)
    traj = solve_forward_spectral(mats, data, f, 0.2)
    j = 250
    assert continuous_solution(spec, traj, f, 0.0, j) == f.values[j]
    assert continuous_solution(spec, traj, f, 1.0, j) == 0.0
    mid = continuous_solution(spec, traj, f, 0.35, j)  # halfway between x_1 and x_2
    assert mid == pytest.approx(0.5 * (traj.states[j, 0] + traj.states[j, 1]), rel=1e-12)
    with pytest.raises(ValueError):
        continuous_solution(spec, traj, f, 1.5, j)


def test_integral_equation_zero_control():
    grid = TimeGrid(1.0, 50)
    spec = StringSpec([0.2, 0.3, 0.5], [1.0, 2.0])
    f = Waveform(grid, np.zeros(51))
    from krein_string import Trajectory

    traj = Trajectory(grid, np.zeros((51, 2)))
    assert check_integral_equation(spec, traj, f) == 0.0


def test_integral_equation_residual_second_order(rng):
    spec = random_spec(rng, 4)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    residuals = {}
    for n in (1500, 3000):
        grid = TimeGrid(1.0, max(n, int(80 * data.frequencies.max())))
        f = smooth_control(grid)
        traj = solve_forward_spectral(mats, data, f, float(spec.lengths[0]))
        residuals[n] = check_integral_equation(spec, traj, f)
    assert residuals[1500] < 1e-6
    assert residuals[1500] / residuals[3000] > 3.5


def test_causal_convolution_against_dense_quadrature(rng):
    # trapezoid convolution equals the O(n^2) reference sum, for one kernel
    # and for a 2-D kernel (one per column), on the direct and the FFT path
    dt = 0.01
    for shape in ((121,), (121, 3), (701, 3)):
        n = shape[0] - 1
        kernel = rng.standard_normal(shape)
        values = rng.standard_normal(n + 1)
        fast = causal_convolution(kernel, values, dt)
        slow = np.zeros(shape)
        for j in range(1, n + 1):
            w = np.full(j + 1, dt)
            w[0] = w[-1] = 0.5 * dt
            slow[j] = np.sum(w * values[: j + 1] * kernel[j::-1].T, axis=-1)
        assert np.max(np.abs(fast - slow)) < 1e-12, shape


def test_fft_path_is_fftconvolve(rng):
    # above the direct-sum threshold the convolution is the zero-padded FFT
    # product scipy.signal.fftconvolve computes, bit for bit
    dt = 0.01
    for n in (513, 2000):
        values = rng.standard_normal(n)
        for kernel in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            column = values[:, None] if kernel.ndim == 2 else values
            full = fftconvolve(kernel, column, axes=0)[:n]
            expected = dt * (full - 0.5 * kernel * column[0] - 0.5 * kernel[0] * column)
            assert np.array_equal(causal_convolution(kernel, values, dt), expected)


def test_every_dot_product_stays_serial(monkeypatch):
    # OpenBLAS runs a dgemm on one thread while m n k <= _SERIAL_PRODUCT;
    # every np.dot of both solvers at 24 segments and 10000 steps stays
    # within it, the spectral solver's and the oracle's pass 1 through
    # _serial_dot's row blocks
    sizes = []
    dot = np.dot

    def recording(a, b, out=None):
        sizes.append(a.size * (b.shape[1] if b.ndim == 2 else 1))
        return dot(a, b, out=out)

    spec = random_spec(np.random.default_rng(24), 24, 0.2, 1.0)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    l1 = float(spec.lengths[0])
    grid = TimeGrid(4.0, 10000)
    f = Waveform(grid, parse_test_function("gauss:0.3,0.1")(grid.times))
    monkeypatch.setattr(np, "dot", recording)
    solve_forward_spectral(mats, data, f, l1)
    spectral_calls = len(sizes)
    solve_forward_ode(mats, f, l1)
    monkeypatch.undo()
    assert spectral_calls > 1 and len(sizes) > spectral_calls + 100
    assert max(sizes) <= forward._SERIAL_PRODUCT


def test_spectral_solve_peak_memory():
    # a 24-segment, 10000-step trajectory is 10001 x 23 floats (1.75 MiB);
    # with the running sums' tables a chunk of rows at a time, the solve's
    # traced peak is 2.85 times that, against 5.1 times with the tables
    # at full length
    rng = np.random.default_rng(24)
    spec = StringSpec(rng.uniform(0.2, 1.0, 24), rng.uniform(0.2, 1.0, 23))
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    grid = TimeGrid(4.0, 10000)
    f = Waveform(grid, parse_test_function("gauss:0.3,0.1")(grid.times))
    tracemalloc.start()
    try:
        traj = solve_forward_spectral(mats, data, f, float(spec.lengths[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * traj.states.nbytes


def forced_control(grid: TimeGrid) -> Waveform:
    """A pulse on a sine that never decays, so the running sums grow with t."""
    t = grid.times
    return Waveform(grid, parse_test_function("gauss:0.3,0.1")(t) + np.sin(3.0 * t))


@pytest.mark.parametrize("n_masses", [1, 2, 5, 11, 23])
def test_running_sums_are_the_trapezoid_convolution(n_masses, monkeypatch):
    # the running modal sums against the convolution of the impulse response,
    # on the direct (100 steps) and the FFT path; n + 1 = b^2 - 1, b^2 and
    # b^2 + 1 at b = 32 (a last coarse block of 31 rows, a full one, and
    # b = 33 with a last block of 2); and 10000 steps.  Chunks of about
    # _CHUNK_FIELDS fields (two at 10000 steps for 11 masses, four for 23)
    # and of one coarse block.  The prefix sums round once per step: over
    # four seeds of these strings the gap reached 0.024 n eps relative to
    # max|u| at 10000 steps, 0.012 at about 1000 and 0.073 at 100
    spec = random_spec(np.random.default_rng(n_masses), n_masses + 1, 0.2, 1.0)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    l1 = float(spec.lengths[0])
    for chunk in (_CHUNK_FIELDS, 1):
        monkeypatch.setattr(forward, "_CHUNK_FIELDS", chunk)
        for steps in (100, 1022, 1023, 1024, 10000):
            f = forced_control(TimeGrid(0.004 * steps, steps))
            want = causal_convolution(_impulse_response(data, l1, f.grid), f.values, f.grid.dt)
            got = solve_forward_spectral(mats, data, f, l1).states
            assert np.all(got[0] == 0.0)
            gap = np.max(np.abs(got - want))
            assert gap <= steps * np.finfo(float).eps * np.max(np.abs(want)), (chunk, steps, gap)


def test_running_sums_are_causal_to_the_bit():
    # row j reads no control value past t_j: changing f after t_j leaves rows
    # 0..j as they were, inside a chunk, at a chunk's end and in its product
    # row blocks alike
    spec = random_spec(np.random.default_rng(24), 24, 0.2, 1.0)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    l1 = float(spec.lengths[0])
    f = forced_control(TimeGrid(4.0, 10000))
    base = solve_forward_spectral(mats, data, f, l1).states
    for cut in (0, 1, 2827, 2828, 5000, 7777, 9999):
        tampered = f.values.copy()
        tampered[cut + 1 :] += 5.0
        moved = solve_forward_spectral(mats, data, Waveform(f.grid, tampered), l1).states
        assert np.array_equal(moved[: cut + 1], base[: cut + 1]), cut
        assert not np.array_equal(moved[cut + 1 :], base[cut + 1 :]), cut


def test_fft_length_is_scipys_real_length():
    # the transforms once took scipy.fft's next_fast_len(n, real=True); the
    # length fixes the rounding, so every CSV keeps its bytes only if the
    # lengths agree
    from scipy.fft import next_fast_len

    bad = [n for n in range(1, 2**17 + 1) if _next_fast_len(n) != next_fast_len(n, real=True)]
    assert bad == []


# ---------------------------------------------------------------------------
# The per-mode sums the modal kernel replaced, kept as a reference.


def phi_normalized_spectral(mats):
    """Eigenvalues, eigenvectors scaled to phi_1 = 1 (rows) and weights
    omega_k = (M phi^k, phi^k), by dividing each eigenvector by its first
    component."""
    m = mats.masses
    sqrt_m = np.sqrt(m)
    lam, sym = eigh_tridiagonal(mats.diag / m, mats.off_diag / (sqrt_m[:-1] * sqrt_m[1:]))
    vecs = sym / sqrt_m[:, None]
    vecs = vecs / vecs[0, :]
    return lam, vecs.T, np.sum(m[:, None] * vecs**2, axis=0)


def chebyshev_spectral(n):
    """The uniform chain's eigenvalues, phi^k_j = U_{j-1}(-cos(k pi/n))
    = (-1)^(j+1) sin(k j pi/n) / sin(k pi/n) and weights
    omega_k = 1 / (2 sin^2(k pi/n)), from the closed forms; U's recurrence
    would drift by 1.1e-12 at n = 256, above the bound it serves."""
    k = np.arange(1, n)
    lam = -4.0 * n**2 * np.cos(k * np.pi / (2 * n)) ** 2
    sin_k = np.sin(k * np.pi / n)
    sines = np.sin((np.pi / n) * (np.outer(k, k) % (2 * n)))
    phi = np.where(k % 2 == 1, 1.0, -1.0) * sines / sin_k[:, None]
    return lam, phi, 1.0 / (2.0 * sin_k**2)


def per_mode_sums(lam, phi, omega, l1, f):
    """Impulse trajectory, control-driven trajectory and response, each a sum
    over modes of sin(nu_k t)/nu_k phi^k/omega_k, one mode per iteration."""
    grid = f.grid
    t = grid.times
    nu = np.sqrt(-lam)
    delta = np.zeros((len(t), phi.shape[1]))
    driven = np.zeros_like(delta)
    response = np.zeros(len(t))
    for k in range(len(lam)):
        kernel = np.sin(nu[k] * t) / nu[k]
        delta += np.outer(kernel, phi[k] / omega[k])
        driven += np.outer(causal_convolution(kernel, f.values, grid.dt), phi[k] / omega[k])
        response += kernel / omega[k]
    driven[0] = 0.0
    return delta / l1, driven / l1, response / l1


def test_modal_kernel_matches_per_mode_sums(rng):
    # random strings on the direct (400 steps) and the FFT (1000 steps)
    # convolution path, the uniform chain at N = 256 (2048 steps), and a
    # roundtrip-shaped fine grid: 32001 samples on [0, 2T] with nu_max 2T = 1e3
    def unit_grid(data, steps):
        return TimeGrid(1.0, max(steps, int(np.ceil(4.0 * data.frequencies.max()))))

    cases = []
    for steps in (400, 1000, 400, 1000, 400, 1000):
        spec = random_spec(rng, int(rng.integers(2, 25)))
        mats = build_matrices(spec)
        data = compute_spectral_data(mats)
        reference = phi_normalized_spectral(mats)
        cases.append((mats, data, reference, float(spec.lengths[0]), unit_grid(data, steps)))
    n = 256
    data = uniform_eigen(n)
    cases.append((build_matrices(uniform_spec(n)), data, chebyshev_spectral(n), 1.0 / n, unit_grid(data, 0)))
    spec = random_spec(rng, 12)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    long_grid = TimeGrid(1e3 / data.frequencies.max(), 32000)
    cases.append((mats, data, phi_normalized_spectral(mats), float(spec.lengths[0]), long_grid))
    for mats, data, reference, l1, grid in cases:
        f = smooth_control(grid)
        delta, driven, response = per_mode_sums(*reference, l1, f)
        pairs = (
            (solve_forward_delta(data, l1, grid).states, delta),
            (solve_forward_spectral(mats, data, f, l1).states, driven),
            (response_function(data, l1, grid).values, response),
        )
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), mats.order


# ---------------------------------------------------------------------------
# Strings with modes the boundary barely or never sees.


def faint_mode_strings():
    """A 24-segment string on [0.2, 1] whose smallest |v_1k| is below 1e-12,
    and a disorder-0.3 string at N = 128 with a mode whose first component
    is exactly zero in double precision."""
    rng = np.random.default_rng(0)
    faint = StringSpec(rng.uniform(0.2, 1.0, 24), rng.uniform(0.2, 1.0, 23))
    rng = np.random.default_rng(1)
    n = 128
    disordered = StringSpec(
        (1.0 + 0.3 * rng.uniform(-1.0, 1.0, n)) / n,
        (1.0 + 0.3 * rng.uniform(-1.0, 1.0, n - 1)) / n,
    )
    return faint, disordered


def test_strings_with_invisible_modes():
    faint, disordered = faint_mode_strings()
    for spec in (faint, disordered):
        mats = build_matrices(spec)
        data = compute_spectral_data(mats)
        first = data.modes[:, 0]
        if spec is faint:
            assert np.min(np.abs(first)) < 1e-12
        else:
            assert np.any(first == 0.0)
        assert np.all(np.isfinite(data.eigenvalues)) and np.all(np.isfinite(data.modes))
        assert np.array_equal(np.isinf(data.weights), first == 0.0)
        gram = data.modes @ (spec.masses[:, None] * data.modes.T)
        assert np.max(np.abs(gram - np.eye(data.n_modes))) <= 1e-12
        assert np.all(first >= 0.0)

        l1 = float(spec.lengths[0])
        # nu_max * dt = 0.00625: at criterion 1's 0.0125 the spectral
        # solver's O(dt^2) trapezoid error alone is 1.8e-6 on the 128-mass
        # string (it falls fourfold per halving of dt; RK4's is far smaller)
        horizon = 0.5
        grid = TimeGrid(horizon, int(np.ceil(160.0 * data.frequencies.max() * horizon)))
        f = smooth_control(grid)
        spectral = solve_forward_spectral(mats, data, f, l1)
        stepped = solve_forward_ode(mats, f, l1)
        delta = solve_forward_delta(data, l1, grid)
        r = response_function(data, l1, grid)
        for values in (spectral.states, stepped.states, delta.states, r.values):
            assert np.all(np.isfinite(values))
        assert np.max(np.abs(spectral.states - stepped.states)) <= 1e-6
