import collections
import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import hankel, toeplitz

from krein_string import (
    GridError,
    RankError,
    StringSpec,
    TimeGrid,
    Waveform,
    build_connector,
    build_matrices,
    compute_spectral_data,
    recover_string,
    response_function,
    solve_forward_spectral,
)
from krein_string import inverse
from krein_string.errors import RecoveryError
from krein_string.inverse import (
    ConnectorFactorization,
    _cumulative_trapezoid,
    _range_model,
    _rank_by_threshold,
    _trapezoid_gain,
    _trapezoid_weights,
)

from conftest import random_spec
from reference import connector_apply, truncated_solve, uniform_spec, weighted_inner


def exact_response(spec, grid, oversample=8):
    data = compute_spectral_data(build_matrices(spec))
    fine = TimeGrid(2.0 * grid.horizon, 2 * oversample * grid.n_steps)
    return response_function(data, float(spec.lengths[0]), fine)


SINGLE = StringSpec([0.5, 0.5], [1.0])


def dense_kernel(connector):
    """The dense (n+1)^2 kernel K[i, j] = scale (P[2n-i-j] - P[|i-j|]), the
    reference for the FFT apply and the factorization."""
    n = connector.grid.n_steps
    c = connector.cumulative
    return connector.scale * (hankel(c[2 * n :: -1][: n + 1], c[n::-1]) - toeplitz(c[: n + 1]))


def dense_oracle(connector, threshold):
    """Full eigendecomposition of the explicitly weighted kernel, the reference
    for the truncated factorization: (singular values, rank, solve)."""
    sqrt_w = np.sqrt(connector.quad_weights)
    vals, vecs = np.linalg.eigh(sqrt_w[:, None] * dense_kernel(connector) * sqrt_w[None, :])
    order = np.argsort(np.abs(vals))[::-1]
    vals, vecs = vals[order], vecs[:, order]
    rank = _rank_by_threshold(np.abs(vals), threshold)

    def solve(rhs):
        basis = vecs[:, :rank]
        return basis @ ((basis.T @ (sqrt_w * rhs)) / vals[:rank]) / sqrt_w

    return np.abs(vals), rank, solve


def random_connector(rng, n_segments, steps, noise=0.0):
    spec = random_spec(rng, n_segments, lo=0.2, hi=1.0)
    grid = TimeGrid(2.0 * spec.total_length, steps)
    r = exact_response(spec, grid)
    if noise > 0.0:
        r = Waveform(r.grid, r.values + noise * rng.standard_normal(len(r.values)))
    rhs = r.values[(steps - np.arange(steps + 1)) * 8]  # r(T - t), as in recovery
    return build_connector(r, float(spec.lengths[0]), grid), rhs


def test_zero_response_zero_kernel():
    grid = TimeGrid(1.0, 64)
    r = Waveform(TimeGrid(2.0, 128), np.zeros(129))
    connector = build_connector(r, 0.5, grid)
    assert np.all(dense_kernel(connector) == 0.0)


def test_corner_entry_vanishes():
    grid = TimeGrid(1.0, 200)
    r = exact_response(SINGLE, grid)
    kernel = dense_kernel(build_connector(r, 0.5, grid))
    assert kernel[-1, -1] == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(kernel - kernel.T)) == 0.0


def test_single_mass_kernel_closed_form():
    # r = sin 2t gives c(t, s) = sin(2(T-t)) sin(2(T-s)), the rank-one Gram kernel
    grid = TimeGrid(1.0, 400)
    r = exact_response(SINGLE, grid, oversample=16)
    connector = build_connector(r, 0.5, grid)
    t = grid.times
    expected = np.outer(np.sin(2.0 * (1.0 - t)), np.sin(2.0 * (1.0 - t)))
    assert np.max(np.abs(dense_kernel(connector) - expected)) < 1e-8


def test_kernel_is_hankel_minus_toeplitz():
    grid = TimeGrid(1.0, 40)
    r = Waveform(TimeGrid(2.0, 160), np.sin(3.0 * np.linspace(0.0, 2.0, 161)) + 0.1)
    connector = build_connector(r, 0.3, grid)
    n = grid.n_steps
    cumulative = _cumulative_trapezoid(r.values, r.grid.dt)[::2]
    expected = (1.0 / 0.6) * (
        hankel(cumulative[2 * n :: -1][: n + 1], cumulative[n::-1]) - toeplitz(cumulative[: n + 1])
    )
    assert np.array_equal(dense_kernel(connector), expected)


def generic_connector(rng, steps):
    # arbitrary finite samples, not a string's response: the FFT product must
    # reproduce the dense kernel for any antiderivative
    r = Waveform(TimeGrid(2.0, 2 * steps), rng.standard_normal(2 * steps + 1))
    return build_connector(r, 0.3, TimeGrid(1.0, steps))


@pytest.mark.parametrize("steps", [4, 5, 64, 2000])
def test_fft_apply_matches_dense_kernel(rng, steps):
    for connector in (generic_connector(rng, steps), random_connector(rng, 5, steps)[0]):
        kernel, w = dense_kernel(connector), connector.quad_weights
        for x in (rng.standard_normal(steps + 1), rng.standard_normal((steps + 1, 16))):
            expected = kernel @ (w * x if x.ndim == 1 else w[:, None] * x)
            got = connector_apply(connector, x)
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def scipy_fft_apply(connector, x):
    """``connector_apply`` as the scipy.fft transforms computed it, spectra included:
    the product recovery.csv and singular_values.csv were written from."""
    from scipy.fft import irfft, next_fast_len, rfft

    n = connector.grid.n_steps
    c = connector.cumulative
    length = next_fast_len(2 * n + 1, real=True)
    sym = np.zeros(length)
    sym[: n + 1] = c[: n + 1]
    sym[length - n :] = c[n:0:-1]
    shift = np.exp((-2j * np.pi / length) * ((2 * n * np.arange(length // 2 + 1)) % length))
    w = connector.quad_weights
    spectrum = rfft((w * x if x.ndim == 1 else w[:, None] * x).T, length)
    mixed = np.conj(spectrum)
    mixed *= connector.scale * shift * np.conj(rfft(c, length))
    spectrum *= connector.scale * rfft(sym).real
    mixed -= spectrum
    return irfft(mixed, length)[..., : n + 1].T


@pytest.mark.parametrize("steps", [1000, 2000])
def test_fft_apply_is_the_scipy_fft_product(rng, steps):
    # numpy.fft runs the same pocketfft as scipy.fft, at the same lengths, so
    # the products agree to the bit, on a vector, on the 2-column blocks the
    # factorization applies and on wider blocks
    connector = random_connector(rng, 8, steps)[0]
    for shape in ((steps + 1,), (steps + 1, 2), (steps + 1, 8), (steps + 1, 14), (steps + 1, 22)):
        x = rng.standard_normal(shape)
        got = connector_apply(connector, x)
        assert np.array_equal(got, scipy_fft_apply(connector, x)), shape


def test_fft_apply_is_self_adjoint(rng):
    for connector in (generic_connector(rng, 2000), random_connector(rng, 5, 2000)[0]):
        t = connector.grid.times
        f, g = np.sin(2.0 * t) * np.exp(-t), t**2 * np.cos(t)
        lhs = weighted_inner(connector, connector_apply(connector, f), g)
        rhs = weighted_inner(connector, f, connector_apply(connector, g))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_recovery_memory_and_scale(rng):
    # the connector is applied by FFT, so recovery never holds an (n+1)^2 array
    spec = random_spec(rng, 5, lo=0.2, hi=1.0)
    l1 = float(spec.lengths[0])
    grid = TimeGrid(2.0 * spec.total_length, 2000)
    r = exact_response(spec, grid)
    tracemalloc.start()
    try:
        recover_string(r, l1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (grid.n_steps + 1) ** 2 * 8 / 4
    grid = TimeGrid(2.0 * spec.total_length, 8000)
    result = recover_string(exact_response(spec, grid), l1, grid)
    assert len(result.recovered_masses) == 4
    assert np.max(np.abs(result.recovered_masses - spec.masses) / spec.masses) <= 1e-5


def test_build_connector_grid_validation():
    grid = TimeGrid(1.0, 100)
    with pytest.raises(GridError, match="kernel integrates r up to 2T"):
        build_connector(Waveform(TimeGrid(1.5, 300), np.zeros(301)), 0.5, grid)
    with pytest.raises(GridError, match="must divide"):
        build_connector(Waveform(TimeGrid(2.0, 150), np.zeros(151)), 0.5, grid)


def test_gram_identity(rng):
    spec = random_spec(rng, 4, lo=0.1, hi=1.0)
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    l1 = float(spec.lengths[0])
    grid = TimeGrid(1.5, 1500)
    connector = build_connector(exact_response(spec, grid, oversample=2), l1, grid)
    t = grid.times
    f = Waveform(grid, np.sin(2.0 * t) * np.exp(-t))
    g = Waveform(grid, t**2 * np.cos(t))
    lhs = weighted_inner(connector, connector_apply(connector, f.values), g.values)
    u_f = solve_forward_spectral(mats, data, f, l1).states[-1]
    u_g = solve_forward_spectral(mats, data, g, l1).states[-1]
    rhs = float(np.sum(spec.masses * u_f * u_g))
    assert lhs == pytest.approx(rhs, rel=1e-5)


def test_kernel_positive_semidefinite(rng):
    spec = random_spec(rng, 3, lo=0.2, hi=1.0)
    grid = TimeGrid(1.0, 400)
    connector = build_connector(exact_response(spec, grid), float(spec.lengths[0]), grid)
    fact = ConnectorFactorization(connector)
    sqrt_w = np.sqrt(connector.quad_weights)
    sym = sqrt_w[:, None] * dense_kernel(connector) * sqrt_w[None, :]
    eigenvalues = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    assert eigenvalues[0] > -1e-12 * fact.singular_values[0]


def test_factorization_matches_dense_oracle(rng):
    for n_segments in range(2, 9):
        for noise, threshold in ((0.0, 1e-8), (1e-6, 1e-4)):
            connector, rhs = random_connector(rng, n_segments, 800, noise)
            fact = ConnectorFactorization(connector, threshold)
            sv, rank, solve = dense_oracle(connector, threshold)
            assert len(fact.singular_values) < len(sv)  # the truncated path ran
            assert fact.rank == rank
            assert np.allclose(fact.singular_values[:rank], sv[:rank], rtol=1e-10, atol=0.0)
            expected = solve(rhs)
            values = truncated_solve(fact, rhs)
            assert np.max(np.abs(values - expected)) <= 1e-8 * np.max(np.abs(expected))


@pytest.mark.parametrize("steps", [4, 5, 7, 12, 15])
def test_complete_basis_matches_dense_oracle_under_noise(rng, steps):
    # under 16 steps no growth passes the cap; a noise floor leaves fewer than
    # half of the Ritz values below the floor, so the basis grows to span the
    # grid (under 12 steps before its first Rayleigh-Ritz step) and must stop
    # there with the exact pairs instead of growing past it
    connector, rhs = random_connector(rng, 4, steps, noise=1e-3)
    fact = ConnectorFactorization(connector)
    assert len(fact.singular_values) == steps + 1
    assert_matches_dense_oracle(fact, connector, rhs, 1e-8, 1e-8)


def test_factorization_full_basis_limit(rng):
    # a noise floor far above the cut leaves rank ~ n: no Ritz value of the
    # 12-column basis falls below the floor, and 24 columns, rounded up to
    # 32, would pass the cap of 201 // 8 = 25, so the factorization refuses
    # with its evidence
    connector, _ = random_connector(rng, 4, 200, noise=1e-3)
    with pytest.raises(RankError) as excinfo:
        ConnectorFactorization(connector)
    message = str(excinfo.value)
    assert "0 of the 12 Ritz values" in message
    assert "rank cap of 25 on the 200-step grid" in message
    assert "--threshold" in message and "--steps" in message


@pytest.mark.parametrize(
    "segments, steps, horizon, draw, cap",
    [
        (12, 200, 1.0, 0, "rank cap of 25 on the 200-step grid"),
        (20, 500, 1.5, 2, "rank cap of 62 on the 500-step grid"),
    ],
)
def test_refusal_follows_the_doubling_schedule(segments, steps, horizon, draw, cap):
    # two survey strings whose needed basis (20 and 34 columns: twice the
    # Ritz values above the floor) fits under the cap, but not once rounded up
    # to 16, 32, 64, ...; let through at their own width by the older
    # sketch, they came back with relative errors of 29.8 and 448
    rng = np.random.default_rng([7, segments, steps, int(10 * horizon), draw, ord("A")])
    spec = StringSpec(rng.uniform(0.5, 1.0, segments), rng.uniform(0.5, 1.0, segments - 1))
    grid = TimeGrid(horizon * spec.total_length, steps)
    with pytest.raises(RankError, match=cap):
        recover_string(exact_response(spec, grid), float(spec.lengths[0]), grid)


def assert_matches_dense_oracle(fact, connector, rhs, threshold, solve_tol):
    sv, rank, solve = dense_oracle(connector, threshold)
    assert fact.rank == rank
    assert np.max(np.abs(fact.singular_values[:rank] - sv[:rank])) <= 1e-13 * sv[0]
    vecs = fact._vecs
    assert np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1]))) <= 1e-12
    expected = solve(rhs)
    got = truncated_solve(fact, rhs)
    assert np.max(np.abs(got - expected)) <= solve_tol * np.max(np.abs(expected))


def test_grown_block_matches_dense_oracle_random(rng):
    # ranks 9-11 (fewer with the noisy cut) leave fewer than half of the first
    # 12-column basis below the floor, so the Krylov basis grows, 2 columns a
    # pass, and each new block must stay orthogonal to the old columns
    widths = []
    for n_segments in (10, 11, 12):
        for noise, threshold in ((0.0, 1e-8), (1e-6, 1e-4)):
            connector, rhs = random_connector(rng, n_segments, 800, noise)
            fact = ConnectorFactorization(connector, threshold)
            assert_matches_dense_oracle(fact, connector, rhs, threshold, 1e-8)
            widths.append(len(fact.singular_values))
    assert widths == [18, 16, 20, 14, 22, 20]


@pytest.mark.parametrize("n_masses, steps, width", [(16, 800, 28), (32, 800, 50), (64, 1100, 92)])
def test_grown_block_matches_dense_oracle_uniform(n_masses, steps, width):
    # the uniform chain at T=1 has rank 14, 25 and 46: the Krylov basis grows
    # from 12 columns until half its Ritz values lie below the floor, and at
    # N=64 it must not give way to the full eigendecomposition
    grid = TimeGrid(1.0, steps)
    r = exact_response(uniform_spec(n_masses), grid)
    rhs = r.values[(steps - np.arange(steps + 1)) * 8]
    connector = build_connector(r, 1.0 / n_masses, grid)
    fact = ConnectorFactorization(connector)
    assert len(fact.singular_values) == width < steps + 1
    assert_matches_dense_oracle(fact, connector, rhs, 1e-8, 1e-7)


@pytest.mark.parametrize("n_segments, steps", [(2, 6), (3, 40), (5, 800), (12, 800)])
def test_factorization_applies_the_kernel_once_per_column(rng, n_segments, steps, monkeypatch):
    # block Krylov: each basis column passes through the kernel exactly once
    connector, _ = random_connector(rng, n_segments, steps)
    product = type(connector)._kernel_product
    columns = []

    def counted(self, block):
        columns.append(1 if block.ndim == 1 else block.shape[1])
        return product(self, block)

    monkeypatch.setattr(type(connector), "_kernel_product", counted)
    fact = ConnectorFactorization(connector)
    assert sum(columns) == len(fact.singular_values) == fact._vecs.shape[1]


def test_factorization_is_reproducible(rng):
    connector, rhs = random_connector(rng, 5, 800)
    first = ConnectorFactorization(connector)
    second = ConnectorFactorization(connector)
    assert np.array_equal(first.singular_values, second.singular_values)
    assert np.array_equal(truncated_solve(first, rhs), truncated_solve(second, rhs))


def test_numerical_rank_family(rng):
    for n_segments in (2, 4):
        spec = random_spec(rng, n_segments, lo=0.2, hi=1.0)
        T = 2.0 * spec.total_length
        grid = TimeGrid(T, 900)
        connector = build_connector(
            exact_response(spec, grid, oversample=16), float(spec.lengths[0]), grid
        )
        fact = ConnectorFactorization(connector, 1e-8)
        assert fact.rank == n_segments - 1


def test_factorization_solve_zero_rhs():
    grid = TimeGrid(1.0, 300)
    connector = build_connector(exact_response(SINGLE, grid), 0.5, grid)
    values = truncated_solve(ConnectorFactorization(connector), np.zeros(301))
    assert np.max(np.abs(values)) < 1e-12


def test_factorization_solve_single_mass():
    # (C f_1, f_1) must invert to m_1 = 1
    grid = TimeGrid(1.0, 1000)
    r = exact_response(SINGLE, grid)
    connector = build_connector(r, 0.5, grid)
    rhs = r.values[(grid.n_steps - np.arange(grid.n_steps + 1)) * 8]
    f1 = truncated_solve(ConnectorFactorization(connector), rhs)
    gram = weighted_inner(connector, connector_apply(connector, f1), f1)
    assert gram > 0.0
    assert 1.0 / gram == pytest.approx(1.0, abs=1e-4)


def test_recover_residual_guard_names_step(monkeypatch):
    # 1e-6 noise leaves the first Krein solve a residual near 1e-6, far
    # above this bound
    monkeypatch.setattr(inverse, "MAX_RESIDUAL", 1e-8)
    grid = TimeGrid(1.0, 500)
    r = exact_response(SINGLE, grid)
    noise = 1e-6 * np.random.default_rng(0).standard_normal(len(r.values))
    noisy = Waveform(r.grid, r.values + noise)
    with pytest.raises(RecoveryError, match="residual") as excinfo:
        recover_string(noisy, 0.5, grid)
    assert excinfo.value.step == 1


@pytest.mark.parametrize("threshold", [0.0, 1.0, float("nan")])
def test_threshold_is_checked_before_the_connector_is_built(threshold, monkeypatch):
    grid = TimeGrid(1.0, 100)
    r = exact_response(SINGLE, grid)

    def build(*args):
        raise AssertionError("the connector was built")

    monkeypatch.setattr(inverse, "build_connector", build)
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\), got "):
        recover_string(r, 0.5, grid, threshold)


def test_rank_zero_raises():
    grid = TimeGrid(1.0, 120)
    connector = build_connector(Waveform(TimeGrid(2.0, 240), np.zeros(241)), 0.5, grid)
    assert ConnectorFactorization(connector).rank == 0
    with pytest.raises(RankError):
        recover_string(Waveform(TimeGrid(2.0, 240), np.zeros(241)), 0.5, grid)


def sine_basis(nu, grid):
    """The sampled sin nu_k (T - t), orthonormalized in the trapezoid inner
    product, and the matrix that maps their coefficients to the basis'."""
    sines = np.sin(np.outer(grid.horizon - grid.times, nu))
    sqrt_w = np.sqrt(_trapezoid_weights(grid.n_steps, grid.dt))
    orthonormal, triangle = np.linalg.qr(sqrt_w[:, None] * sines)
    return orthonormal / sqrt_w[:, None], triangle


@pytest.mark.parametrize("steps", [20, 500, 2000])
def test_range_curvature_is_exact_on_sine_sums(rng, steps):
    # the interior second difference fit on a sine basis gives back the nu_k,
    # and F = Q diag(-nu^2) Q^-1 maps the coordinates of a sampled sine sum
    # to those of its second derivative, both to rounding
    nu = np.array([1.3, 2.9, 4.4, 7.1])
    grid = TimeGrid(1.7, steps)
    basis, triangle = sine_basis(nu, grid)
    got, modes = _range_model(basis, grid.dt)
    assert np.allclose(np.sort(got), nu, rtol=1e-9, atol=0.0)
    curvature = ((modes * -(got**2)) @ np.linalg.inv(modes)).real
    weights = rng.standard_normal(len(nu))
    expected = triangle @ (-(nu**2) * weights)
    assert np.max(np.abs(curvature @ (triangle @ weights) - expected)) <= 1e-9 * nu[-1] ** 2


@pytest.mark.parametrize("step", [1e-3, 0.02, 0.3])
def test_trapezoid_gain_undoes_the_running_integral(step):
    # the trapezoid running integral of sin(nu t), divided by kappa(nu), is
    # the exact integral (1 - cos nu t) / nu
    t = step * np.arange(401)
    for nu in (0.7, 3.0, 9.5):
        got = _cumulative_trapezoid(np.sin(nu * t), step) / _trapezoid_gain(np.array(nu), step)
        assert np.max(np.abs(got - (1.0 - np.cos(nu * t)) / nu)) <= 1e-12


@pytest.mark.parametrize(
    "columns, value",
    [
        # e^t: mu = (e^h - 2 + e^-h)/h^2, 1 to six digits
        (lambda t: [np.sin(2.0 * t), np.exp(t)], "1"),
        # e^((-1 +- 5i) t): mu is about (-1 +- 5i)^2 = -24 -+ 10i
        (
            lambda t: [np.exp(-t) * np.sin(5.0 * t), np.exp(-t) * np.cos(5.0 * t)],
            r"-23\.99\d*[+-]9\.99\d*j",
        ),
    ],
)
def test_range_model_refuses_what_is_not_sines(columns, value):
    # a growing exponential has a positive eigenvalue, a damped sine a complex
    # pair: neither is clipped, and the message names the value
    grid = TimeGrid(2.0, 400)
    basis = np.linalg.qr(np.column_stack(columns(grid.times)))[0]
    message = rf"eigenvalue {value} lies outside \(-4/h\^2, 0\) = \(-160000, 0\)"
    with pytest.raises(RecoveryError, match=message) as excinfo:
        _range_model(basis, grid.dt)
    assert excinfo.value.step is None


def test_recover_needs_four_nodes():
    # the range model is fit on the n - 1 interior nodes, more than the rank:
    # one mass needs four nodes (steps >= 3), two masses five
    two = StringSpec([0.3, 0.2, 0.5], [1.0, 2.0])
    for spec, rank, steps in ((SINGLE, 1, (1, 2)), (two, 2, (3,))):
        l1 = float(spec.lengths[0])
        for n in steps:
            grid = TimeGrid(1.0, n)
            message = f"recovery of rank {rank} needs more than {rank + 1} steps, got {n} "
            with pytest.raises(GridError, match=message):
                recover_string(exact_response(spec, grid), l1, grid)
        grid = TimeGrid(1.0, rank + 2)
        assert len(recover_string(exact_response(spec, grid), l1, grid).recovered_masses) == rank


def test_recover_single_mass():
    grid = TimeGrid(1.0, 2000)
    result = recover_string(exact_response(SINGLE, grid), 0.5, grid)
    assert len(result.recovered_masses) == 1
    assert result.recovered_masses[0] == pytest.approx(1.0, abs=1e-2)
    assert result.recovered_lengths[1] == pytest.approx(0.5, abs=1e-2)
    # exact data lie in the range to rounding (7.9e-16 measured)
    assert result.diagnostics.residual < 1e-12
    # the old 1e-2 absolute bound on the l_1 = 0.5 estimate, relative
    assert abs(result.diagnostics.endpoint_gap) <= 2e-2


@pytest.mark.parametrize("steps, width", [(6, 7), (40, 12)])
def test_recover_single_mass_on_short_grids(steps, width):
    # at 6 steps the Krylov basis spans the grid before its sixth block, so
    # its Ritz pairs are exact; at 40 steps rank 1 stops the basis at the
    # first Rayleigh-Ritz step, six 2-column blocks
    grid = TimeGrid(1.0, steps)
    result = recover_string(exact_response(SINGLE, grid), 0.5, grid)
    assert len(result.diagnostics.singular_values) == width
    assert len(result.recovered_masses) == 1
    assert result.recovered_masses[0] == pytest.approx(1.0, abs=2e-4)


def test_response_fixes_the_string_up_to_scale():
    # lengths times c and masses over c leave M^-1 A, the nu_k and v_1k^2 / l_1
    # unchanged, so the response too: l_1 picks c.  Recovery at c l_1 returns
    # the c-scaled string with the errors and endpoint_gap of c = 1; with c a
    # power of two every step scales exactly, so the gap is equal to the bit
    rng = np.random.default_rng([7, 5, 0])
    spec = StringSpec(rng.uniform(0.5, 1.0, 5), rng.uniform(0.5, 1.0, 4))
    grid = TimeGrid(1.5 * spec.total_length, 2000)
    r = exact_response(spec, grid)
    l1 = float(spec.lengths[0])
    outcomes = {}
    for c in (1.0, 0.5, 2.0):
        scaled = StringSpec(c * spec.lengths, spec.masses / c)
        gap = np.max(np.abs(exact_response(scaled, grid).values - r.values))
        assert gap <= 1e-14 * np.max(np.abs(r.values))
        result = recover_string(r, c * l1, grid)
        assert len(result.recovered_masses) == 4
        err_m = np.max(np.abs(result.recovered_masses - scaled.masses) / scaled.masses)
        err_l = np.max(np.abs(result.recovered_lengths - scaled.lengths) / scaled.lengths)
        outcomes[c] = (err_m, err_l, result.diagnostics.endpoint_gap)
    err_m, err_l, endpoint_gap = outcomes[1.0]
    assert max(err_m, err_l) < 1e-4
    for c in (0.5, 2.0):
        assert abs(outcomes[c][0] - err_m) <= 1e-12
        assert abs(outcomes[c][1] - err_l) <= 1e-12
        assert outcomes[c][2] == endpoint_gap


def test_recover_four_segment_string():
    spec = StringSpec([0.2, 0.3, 0.1, 0.4], [0.5, 1.0, 0.7])
    T = 2.0
    grid = TimeGrid(T, 2000)
    result = recover_string(exact_response(spec, grid), 0.2, grid)
    assert len(result.recovered_masses) == 3
    assert np.max(np.abs(result.recovered_masses - spec.masses) / spec.masses) < 1e-2
    assert np.max(np.abs(result.recovered_lengths - spec.lengths) / spec.lengths) < 1e-2


def test_recovery_telescoping_and_signs(rng):
    spec = random_spec(rng, 4, lo=0.2, hi=1.0)
    grid = TimeGrid(2.0 * spec.total_length, 1600)
    result = recover_string(exact_response(spec, grid), float(spec.lengths[0]), grid)
    a = result.recovered_a
    b = result.recovered_b
    assert np.all(a > 0.0)
    assert np.all(b < 0.0)
    # a_k = -b_k - a_{k-1} holds exactly by construction, a_0 = 1/l_1
    a_prev = 1.0 / float(spec.lengths[0])
    for k in range(len(a)):
        assert a[k] == -b[k] - a_prev
        a_prev = a[k]
    mats = build_matrices(spec)
    assert np.allclose(b, mats.diag, rtol=1e-3)


def test_recovery_under_noise(rng):
    # additive Gaussian noise on the response with the looser truncation level
    spec = StringSpec([0.3, 0.4, 0.3], [0.8, 0.6])
    grid = TimeGrid(2.0, 1500)
    r = exact_response(spec, grid)
    noisy = r.values + 1e-6 * rng.standard_normal(len(r.values))
    result = recover_string(
        Waveform(r.grid, noisy),
        0.3,
        grid,
        1e-4,
    )
    # the noise leaves r(T - t) a part outside the range near its own size
    # (1.0e-6 to 1.05e-6 relative over seeds 0-4)
    assert 1e-7 < result.diagnostics.residual < 1e-5
    assert len(result.recovered_masses) == 2
    assert np.max(np.abs(result.recovered_masses - spec.masses) / spec.masses) < 0.1
    assert np.max(np.abs(result.recovered_lengths - spec.lengths) / spec.lengths) < 0.1


def test_twelve_segments_at_500_steps():
    # the range model's curvature and kappa leave rounding-level error where
    # finite-difference curvature on the sampled image gave 2.9e-1 on these
    # strings; over draws 0-39 the worse of err_m and err_l spread from 1.5e-10
    # to 9.8e-7, so the bound sits at the top of that spread
    for draw in range(8):
        rng = np.random.default_rng([7, 12, draw])
        spec = StringSpec(rng.uniform(0.5, 1.0, 12), rng.uniform(0.5, 1.0, 11))
        grid = TimeGrid(spec.total_length, 500)
        result = recover_string(exact_response(spec, grid), float(spec.lengths[0]), grid)
        assert len(result.recovered_masses) == 11
        err_m = np.max(np.abs(result.recovered_masses - spec.masses) / spec.masses)
        err_l = np.max(np.abs(result.recovered_lengths - spec.lengths) / spec.lengths)
        assert max(err_m, err_l) <= 1e-6, draw


def load_survey():
    path = Path(__file__).resolve().parents[1] / "scripts" / "survey_recovery.py"
    spec = importlib.util.spec_from_file_location("survey_recovery", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_subset_is_never_silently_wrong():
    # every third case of the recovery survey (240 strings, 153 of them ok):
    # a full mass count is within 1e-2, never beyond it ("bad") or above the
    # true count ("long"), and the grid minimum refuses only grids with no
    # more steps than segments
    survey = load_survey()
    records = [survey.record(*case) for case in itertools.islice(survey.cases(), 0, None, 3)]
    statuses = collections.Counter(rec["status"] for rec in records)
    assert statuses["bad"] == statuses["long"] == 0, statuses
    assert statuses["ok"] >= 150, statuses
    assert all(rec["n"] <= rec["segs"] for rec in records if rec["status"] == "GridError")
