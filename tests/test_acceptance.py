"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see every line.  Each
criterion is evaluated at its stated tolerance; the printed line carries the
measured quantity so a failure is diagnosable from the log alone.

Criterion 4 compares the finite-chain impulse solution with its Bessel closed
form at 1e-8 over t in (0, 1].  ``delta_solution`` is the closed form of the
semi-infinite chain; the N-segment chain, fixed at both ends, adds the
method-of-images terms, so the reference is the image sum built on it.  One
more test holds the library's ``image_sum`` to that reference.
"""

import time

import numpy as np

import krein_string as ks
from krein_string.cli import main as cli_main
from krein_string.inverse import ConnectorFactorization
from krein_string.uniform import constant_one, gaussian_bump, image_sum

from conftest import random_spec
from reference import (
    check_integral_equation,
    chebyshev_u,
    connector_apply,
    uniform_spec,
    weighted_inner,
)

SUITE_SEED = 2024


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def forward_suite():
    """The 20-string random family shared by criteria 1 and 2."""
    rng = np.random.default_rng(SUITE_SEED)
    for _ in range(20):
        n_segments = int(rng.integers(2, 9))
        yield ks.StringSpec(
            lengths=rng.uniform(0.1, 2.0, n_segments),
            masses=rng.uniform(0.1, 2.0, n_segments - 1),
        )


def suite_grid(data: ks.SpectralData, horizon: float = 1.0, factor: int = 80) -> ks.TimeGrid:
    n = max(1500, int(np.ceil(factor * float(data.frequencies.max()) * horizon)))
    return ks.TimeGrid(horizon, n)


def smooth_control(grid: ks.TimeGrid) -> ks.Waveform:
    t = grid.times
    return ks.Waveform(grid, np.sin(3.0 * t) * np.exp(-t))


def test_criterion_1_forward_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for spec in forward_suite():
        mats = ks.build_matrices(spec)
        data = ks.compute_spectral_data(mats)
        grid = suite_grid(data)
        f = smooth_control(grid)
        l1 = float(spec.lengths[0])
        spectral = ks.solve_forward_spectral(mats, data, f, l1)
        stepped = ks.solve_forward_ode(mats, f, l1)
        worst = max(worst, float(np.max(np.abs(spectral.states - stepped.states))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, "forward oracle equivalence", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_integral_equation_residual():
    worst = 0.0
    worst_ratio = np.inf
    for spec in forward_suite():
        mats = ks.build_matrices(spec)
        data = ks.compute_spectral_data(mats)
        residuals = {}
        base = suite_grid(data)
        for n_steps in (base.n_steps, 2 * base.n_steps):
            grid = ks.TimeGrid(base.horizon, n_steps)
            f = smooth_control(grid)
            traj = ks.solve_forward_spectral(mats, data, f, float(spec.lengths[0]))
            residuals[n_steps] = check_integral_equation(spec, traj, f)
        worst = max(worst, residuals[base.n_steps])
        if residuals[base.n_steps] > 1e-12:  # single-mass strings sit at rounding level
            worst_ratio = min(worst_ratio, residuals[base.n_steps] / residuals[2 * base.n_steps])
    ok = worst <= 1e-6 and worst_ratio >= 3.5
    report(2, "integral-equation residual", ok, f"max residual {worst:.2e}, min halving ratio {worst_ratio:.2f}")
    assert worst <= 1e-6
    assert worst_ratio >= 3.5


def test_criterion_3_uniform_closed_forms():
    eig_err = 0.0
    for n in range(2, 51):
        closed = ks.uniform_eigen(n)
        generic = ks.compute_spectral_data(ks.build_matrices(uniform_spec(n)))
        eig_err = max(
            eig_err,
            float(np.max(np.abs(closed.eigenvalues - generic.eigenvalues) / np.abs(generic.eigenvalues))),
        )

    ort_err = 0.0
    for n in (8, 32, 64):
        x_k = np.cos(np.arange(1, n) * np.pi / n)
        table = np.array([chebyshev_u(i, x_k) for i in range(n - 1)])
        gram = table @ ((1.0 - x_k**2)[:, None] * table.T)
        ort_err = max(ort_err, float(np.max(np.abs(gram - np.eye(n - 1) * n / 2.0))))

    rec_err = 0.0
    for n in (1, 2, 6, 20, 60):
        for x in np.geomspace(0.05, 500.0, 25):
            lhs = ks.bessel_j(n - 1, x) + ks.bessel_j(n + 1, x)
            rec_err = max(rec_err, abs(lhs - 2.0 * n / x * ks.bessel_j(n, x)))

    ok = eig_err <= 1e-9 and ort_err <= 1e-10 and rec_err <= 1e-10
    report(
        3,
        "uniform closed forms",
        ok,
        f"eig rel {eig_err:.1e}, orthogonality {ort_err:.1e}, recurrence {rec_err:.1e}",
    )
    assert eig_err <= 1e-9
    assert ort_err <= 1e-10
    assert rec_err <= 1e-10


def image_term(n: int, k: int, t: float) -> float:
    """g_k(t) = (2k/t) J_{2|k|}(2nt), the semi-infinite closed form continued
    oddly to k < 0; it solves the uniform lattice equation at every k != 0."""
    return 2.0 * k / t * ks.bessel_j(2 * abs(k), 2.0 * n * t)


def image_correction(n: int, j: int, times: np.ndarray, max_pairs: int = 4) -> np.ndarray:
    """sum_{m != 0} g_{j+2mn}(t), the reflections that turn the semi-infinite
    closed form into the impulse response of the n-segment chain.

    Pairs m = +-1, +-2, ... are added until the next pair is below 1e-16
    everywhere; running out of pairs first is an error, so the truncation
    cannot hide a mismatch.
    """
    total = np.zeros_like(times)
    for m in range(1, max_pairs + 1):
        pair = np.array(
            [image_term(n, j + 2 * m * n, t) + image_term(n, j - 2 * m * n, t) for t in times]
        )
        if np.max(np.abs(pair)) < 1e-16:
            return total
        total += pair
    raise AssertionError(f"image sum for N={n}, j={j} not converged within {max_pairs} pairs")


def test_image_sum_matches_the_scalar_reference():
    # the library's vectorized sum, which uniform-sweep --prop 1 compares with
    for n in (4, 8, 16, 64):
        times = np.linspace(0.0, 1.0, 4 * n + 1)[1:]
        for j in range(1, n):
            reference = ks.delta_solution(n, j, times) + image_correction(n, j, times)
            assert np.max(np.abs(image_sum(n, j, times) - reference)) <= 1e-14


def test_criterion_4_impulse_closed_form():
    """Impulse solver against the finite chain's Bessel closed form.

    ``delta_solution`` gives (2j/t) J_{2j}(2Nt), the impulse response of the
    semi-infinite uniform chain.  The N-segment chain is fixed at k = 0 and
    k = N; because g_k(t) = (2k/t) J_{2|k|}(2Nt) is odd in k and solves the
    lattice equation away from k = 0, the image sum
    u_j(t) = sum_m g_{j+2mN}(t) vanishes at both ends and is the exact finite
    solution.  Its m = 0 term is ``delta_solution``; the rest is the image
    correction.  The geometric reflected front reaches x = j/N only at
    t = 2 - j/N >= 1, but the lattice's dispersive precursor of the first
    image is already visible by t = 1: the correction is about 1.2e-1 (N=4),
    1.2e-2 (N=8) and 9.5e-5 (N=16), which is how far the bare semi-infinite
    formula misses the finite solution.
    """
    worst = 0.0
    details = []
    for n in (4, 8, 16):
        data = ks.uniform_eigen(n)
        grid = ks.TimeGrid(1.0, max(200, 16 * n))
        traj = ks.solve_forward_delta(data, 1.0 / n, grid)
        times = grid.times[1:]
        gap = images = 0.0
        for j in (1, n // 2):
            semi_infinite = np.array([ks.delta_solution(n, j, t) for t in times])
            correction = image_correction(n, j, times)
            gap = max(gap, float(np.max(np.abs(semi_infinite + correction - traj.states[1:, j - 1]))))
            images = max(images, float(np.max(np.abs(correction))))
        details.append(f"N={n}: {gap:.1e} (images {images:.1e})")
        worst = max(worst, gap)
    ok = worst <= 1e-8
    detail = ", ".join(details)
    report(4, "impulse-response closed form", ok, detail + " vs 1e-8")
    assert worst <= 1e-8, (
        "impulse solution departs from the finite-chain image sum "
        f"({detail}); the image correction in parentheses is the gap to the "
        "semi-infinite closed form alone"
    )


def test_criterion_5_response_concentration():
    integral_err = 0.0
    bound_worst = 0.0
    for n in (8, 16, 32, 64):
        res = ks.pair_response(n, constant_one(), tol=0.02)
        integral_err = max(integral_err, abs(res.value - 1.0))
        bound_worst = max(bound_worst, res.truncation_bound)

    xi = gaussian_bump(0.0, 0.3)
    errors = [abs(ks.pair_response(n, xi).value - 1.0) for n in (8, 16, 32, 64)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = integral_err <= 0.02 and bound_worst <= 0.02 and min(ratios) >= 1.5
    report(
        5,
        "response concentrates at t=0",
        ok,
        f"|int r_N - 1| <= {integral_err:.1e} (bound {bound_worst:.1e}), "
        f"ladder ratios {['%.2f' % r for r in ratios]}",
    )
    assert integral_err <= 0.02
    assert bound_worst <= 0.02
    assert min(ratios) >= 1.5


def test_criterion_6_corrected_response():
    xi = gaussian_bump(0.0, 0.3)
    target = float(xi.derivative(0.0))
    errors = [abs(ks.pair_corrected_response(n, xi).value - target) for n in (8, 16, 32, 64)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = min(ratios) >= 1.5
    report(
        6,
        "corrected response pairs like a derivative",
        ok,
        f"errors {['%.2e' % e for e in errors]}, ratios {['%.2f' % r for r in ratios]}",
    )
    assert min(ratios) >= 1.5


def test_criterion_7_solution_convergence():
    pairs = [(t, k) for t in (0.3, 0.7) for k in (1, 2, 3)]
    ladder = np.array([8, 16, 32, 64, 128])
    worst_at_128 = 0.0
    r_squared = []
    for t, k in pairs:
        errors = np.array(
            [abs(ks.pair_solution_with_sine(n, t, k) - np.sin(k * t)) for n in ladder]
        )
        worst_at_128 = max(worst_at_128, errors[-1])
        design = np.vstack([1.0 / ladder, np.ones_like(ladder, dtype=float)]).T
        coef, *_ = np.linalg.lstsq(design, errors, rcond=None)
        predicted = design @ coef
        ss_res = float(np.sum((errors - predicted) ** 2))
        ss_tot = float(np.sum((errors - errors.mean()) ** 2))
        r_squared.append(1.0 - ss_res / ss_tot)
    mean_r2 = float(np.mean(r_squared))
    ok = worst_at_128 <= 0.05 and mean_r2 >= 0.9
    report(
        7,
        "interpolated impulse approaches traveling pulse",
        ok,
        f"max error at N=128 {worst_at_128:.2e}, mean R^2 {mean_r2:.3f} "
        f"(per-pair {['%.2f' % r for r in r_squared]})",
    )
    assert worst_at_128 <= 0.05
    assert mean_r2 >= 0.9


def test_criterion_8_connector_gram():
    rng = np.random.default_rng(SUITE_SEED + 1)
    worst = 0.0
    for trial in range(3):
        n_segments = int(rng.integers(2, 6))
        spec = random_spec(rng, n_segments, lo=0.1, hi=1.0)
        mats = ks.build_matrices(spec)
        data = ks.compute_spectral_data(mats)
        l1 = float(spec.lengths[0])
        grid = ks.TimeGrid(1.5, 2000)
        fine = ks.TimeGrid(3.0, 4000)
        connector = ks.build_connector(ks.response_function(data, l1, fine), l1, grid)
        t = grid.times
        f = ks.Waveform(grid, np.sin((2 + trial) * t) * np.exp(-t))
        g = ks.Waveform(grid, t**2 * np.cos(t))
        lhs = weighted_inner(connector, connector_apply(connector, f.values), g.values)
        u_f = ks.solve_forward_spectral(mats, data, f, l1).states[-1]
        u_g = ks.solve_forward_spectral(mats, data, g, l1).states[-1]
        rhs = float(np.sum(spec.masses * u_f * u_g))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-3
    report(8, "connector Gram identity", ok, f"max relative gap {worst:.2e} at 2000 nodes")
    assert worst <= 1e-3


def test_criterion_9_connector_rank():
    rng = np.random.default_rng(SUITE_SEED + 2)
    results = {}
    for n_segments in range(2, 7):
        spec = random_spec(rng, n_segments, lo=0.2, hi=1.0)
        data = ks.compute_spectral_data(ks.build_matrices(spec))
        l1 = float(spec.lengths[0])
        horizon = 2.0 * spec.total_length
        grid = ks.TimeGrid(horizon, 1200)
        fine = ks.TimeGrid(2.0 * horizon, 2 * 16 * 1200)
        connector = ks.build_connector(ks.response_function(data, l1, fine), l1, grid)
        fact = ConnectorFactorization(connector, 1e-8)
        above = int(np.sum(fact.singular_values >= 1e-8 * fact.singular_values[0]))
        results[n_segments] = above
    ok = all(results[n] == n - 1 for n in results)
    report(
        9,
        "connector rank = N-1",
        ok,
        ", ".join(f"N={n}: {r}" for n, r in results.items()),
    )
    for n_segments, above in results.items():
        assert above == n_segments - 1


def test_criterion_10_inverse_round_trip():
    rng = np.random.default_rng(SUITE_SEED + 3)
    details = []
    ok = True
    for n_segments in range(2, 6):
        spec = random_spec(rng, n_segments, lo=0.1, hi=1.0)
        mats = ks.build_matrices(spec)
        data = ks.compute_spectral_data(mats)
        l1 = float(spec.lengths[0])
        horizon = 2.0 * spec.total_length
        grid = ks.TimeGrid(horizon, 2000)
        fine = ks.TimeGrid(2.0 * horizon, 2 * 8 * 2000)
        r = ks.response_function(data, l1, fine)

        start = time.perf_counter()
        result = ks.recover_string(r, l1, grid)
        elapsed = time.perf_counter() - start

        err_m = float(np.max(np.abs(result.recovered_masses - spec.masses) / spec.masses))
        err_l = float(np.max(np.abs(result.recovered_lengths - spec.lengths) / spec.lengths))
        state_err = 0.0
        for k, control in enumerate(result.controls):
            u_final = ks.solve_forward_spectral(mats, data, control, l1).states[-1]
            target = np.zeros(n_segments - 1)
            target[k] = 1.0
            state_err = max(state_err, float(np.max(np.abs(spec.masses * u_final - target))))
        details.append(
            f"N={n_segments}: m {err_m:.1e}, l {err_l:.1e}, d_k {state_err:.1e}, {elapsed:.1f}s"
        )
        ok = ok and err_m <= 1e-2 and err_l <= 1e-2 and state_err <= 5e-2 and elapsed < 60.0
    report(10, "inverse round trip", ok, "; ".join(details))
    assert ok, "; ".join(details)


def test_criterion_11_deterministic_cli(tmp_path):
    spec_path = tmp_path / "string.txt"
    spec_path.write_text("lengths=0.4,0.3,0.3\nmasses=0.8,0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    args = [
        "roundtrip", "--spec", str(spec_path), "--T", "2.0", "--steps", "1000",
        "--seed", "7", "--out", str(out),
    ]
    assert cli_main(list(args)) == 0
    first = {n: (out / n).read_bytes() for n in ("recovery.csv", "singular_values.csv")}
    assert cli_main(list(args)) == 0
    identical = all((out / n).read_bytes() == body for n, body in first.items())

    assert cli_main(["spectral", "--spec", str(spec_path), "--out", str(out)]) == 0
    spectral_first = (out / "spectral.csv").read_bytes()
    assert cli_main(["spectral", "--spec", str(spec_path), "--out", str(out)]) == 0
    identical = identical and (out / "spectral.csv").read_bytes() == spectral_first

    report(11, "deterministic CLI output", identical, "byte-identical reruns")
    assert identical
