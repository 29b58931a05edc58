import numpy as np
import pytest

from krein_string import (
    StringSpec,
    TimeGrid,
    build_matrices,
    compute_spectral_data,
    mollified_delta,
    solve_forward_ode,
    solve_forward_spectral,
)

from conftest import random_spec
from reference import evaluate_polynomials, spectral_function, uniform_spec

SINGLE = build_matrices(StringSpec([0.5, 0.5], [1.0]))


def test_polynomials_single_mass_at_eigenvalue():
    assert np.allclose(evaluate_polynomials(SINGLE, -4.0), [1.0, 0.0])


def test_polynomials_start_at_one(rng):
    for _ in range(10):
        mats = build_matrices(random_spec(rng, int(rng.integers(2, 8))))
        lam = float(rng.uniform(-50.0, 0.0))
        assert evaluate_polynomials(mats, lam)[0] == 1.0


def test_polynomials_uniform_three_terminal_root():
    # -4 N^2 cos^2(k pi / 2N) with N=3, k=2 gives -9
    mats = build_matrices(uniform_spec(3))
    phi = evaluate_polynomials(mats, -9.0)
    assert abs(phi[-1]) < 1e-12


def test_spectral_data_single_mass():
    data = compute_spectral_data(SINGLE)
    assert data.eigenvalues == pytest.approx([-4.0])
    assert data.weights == pytest.approx([1.0])
    assert np.allclose(data.modes, [[1.0]])


# Long middle segments all but decouple the unit masses: the first string's
# eigenvalues are -1 and -(1 + 2e-12), and the second's middle pair is equal
# in double precision.
CLUSTERED = [
    StringSpec([1.0, 1e12, 1.0], [1.0, 1.0]),
    StringSpec([1.0, 1e9, 1.0, 1e9, 1.0], [1.0, 1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize("spec", CLUSTERED, ids=["gap-2e-12", "gap-0"])
def test_clustered_spectrum_is_solved(spec):
    # inside a cluster the modes are whichever rotation eigh returns, so
    # single weights are not pinned (on the second string they read 1 and
    # 1e18); their sum is, and the modal solver matches the RK4 oracle to
    # criterion 1's 1e-6
    mats = build_matrices(spec)
    data = compute_spectral_data(mats)
    assert abs(np.sum(data.modes[:, 0] ** 2) - 1.0 / spec.masses[0]) <= 1e-12
    grid = TimeGrid(4.0, 10000)
    f = mollified_delta(grid, 0.1)
    modal = solve_forward_spectral(mats, data, f, 1.0).states
    assert np.max(np.abs(modal - solve_forward_ode(mats, f, 1.0).states)) <= 1e-6


def test_spectral_data_uniform_two():
    data = compute_spectral_data(build_matrices(uniform_spec(2)))
    assert data.eigenvalues == pytest.approx([-8.0])


def test_spectral_data_uniform_weights():
    n = 6
    data = compute_spectral_data(build_matrices(uniform_spec(n)))
    k = np.arange(1, n)
    assert np.allclose(data.weights, 1.0 / (2.0 * np.sin(k * np.pi / n) ** 2), rtol=1e-12)


def test_generalized_eigen_residual(rng):
    for _ in range(10):
        spec = random_spec(rng, int(rng.integers(2, 9)))
        mats = build_matrices(spec)
        data = compute_spectral_data(mats)
        assert np.all(data.eigenvalues < 0.0)
        assert np.all(np.diff(data.eigenvalues) > 0.0)
        assert np.all(data.weights > 0.0)
        for k in range(data.n_modes):
            residual = mats.stiffness @ data.modes[k] - data.eigenvalues[k] * (
                mats.masses * data.modes[k]
            )
            assert np.max(np.abs(residual)) < 1e-9 * max(1.0, abs(data.eigenvalues[k]))


def test_mass_orthogonality(rng):
    for _ in range(5):
        spec = random_spec(rng, 7)
        data = compute_spectral_data(build_matrices(spec))
        gram = data.modes @ np.diag(spec.masses) @ data.modes.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9 * np.max(np.diag(gram))


def test_eigenvalues_are_terminal_roots(rng):
    # brute-force bisection on phi_N finds the same spectrum for N <= 8
    for trial in range(5):
        spec = random_spec(rng, 8)
        mats = build_matrices(spec)
        data = compute_spectral_data(mats)
        roots = _bisect_roots(mats, float(data.eigenvalues[0]) * 1.05, 0.0, 4000)
        assert len(roots) == data.n_modes
        assert np.allclose(roots, data.eigenvalues, rtol=1e-8, atol=1e-8)


def _bisect_roots(mats, lo, hi, n_grid):
    grid = np.linspace(lo, hi, n_grid)
    terminal = np.array([evaluate_polynomials(mats, lam)[-1] for lam in grid])
    roots = []
    for i in np.nonzero(np.sign(terminal[:-1]) * np.sign(terminal[1:]) < 0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = terminal[i]
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = evaluate_polynomials(mats, mid)[-1]
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.array(roots)


def test_spectral_function_steps():
    data = compute_spectral_data(SINGLE)
    assert spectral_function(data, 0.0) == pytest.approx(1.0)
    assert spectral_function(data, -5.0) == 0.0
    assert spectral_function(data, -4.0) == 0.0  # right-continuous: strict inequality


def test_spectral_function_uniform_three():
    # eigenvalues -27, -9; only -27 lies below -20, and 1/omega_1 = 2 sin^2(pi/3)
    data = compute_spectral_data(build_matrices(uniform_spec(3)))
    assert spectral_function(data, -20.0) == pytest.approx(1.5, rel=1e-12)


@pytest.mark.parametrize("n_segments", [4, 24, 128, 256])
def test_dense_eigh_matches_the_tridiagonal_solvers(n_segments):
    # the package solves the tridiagonal M^{-1/2} A M^{-1/2} as a dense
    # matrix with numpy, so scipy.linalg is imported here only
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

    from krein_string.forward import _max_frequency

    mats = build_matrices(random_spec(np.random.default_rng(n_segments), n_segments, 0.2, 1.0))
    sqrt_m = np.sqrt(mats.masses)
    reduced = (mats.diag / mats.masses, mats.off_diag / (sqrt_m[:-1] * sqrt_m[1:]))
    lam, vecs = eigh_tridiagonal(*reduced)
    modes = vecs.T / sqrt_m
    modes[modes[:, 0] < 0.0] *= -1.0
    scale = np.max(np.abs(lam))

    data = compute_spectral_data(mats)
    assert np.max(np.abs(data.eigenvalues - lam)) <= 1e-12 * scale
    assert np.max(np.abs(data.modes - modes)) <= 1e-12 * np.max(np.abs(modes))
    nu_max = np.sqrt(-eigvalsh_tridiagonal(*reduced)[0])
    assert abs(_max_frequency(mats) - nu_max) <= 1e-12 * nu_max
