import numpy as np
import pytest
import scipy.special

from krein_string import (
    TruncationError,
    build_matrices,
    compute_spectral_data,
    delta_solution,
    pair_corrected_response,
    pair_response,
    pair_solution_with_sine,
    parse_test_function,
    uniform_eigen,
)
from krein_string.cli import main
from krein_string import uniform
from krein_string.uniform import constant_one, gaussian_bump, image_sum

from reference import chebyshev_u, plain_image_sum, uniform_spec


def test_uniform_spec_values():
    spec = uniform_spec(2)
    assert np.allclose(spec.lengths, [0.5, 0.5])
    assert np.allclose(spec.masses, [0.5])
    with pytest.raises(ValueError):
        uniform_spec(1)
    assert uniform_spec(4).n_masses == 3


def test_uniform_matrices():
    mats = build_matrices(uniform_spec(3))
    assert np.allclose(mats.stiffness, 3.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))
    assert np.allclose(np.diag(mats.masses), np.eye(2) / 3.0)
    mats4 = build_matrices(uniform_spec(4))
    expected = 4.0 * (np.diag([-2.0] * 3) + np.diag([1.0] * 2, 1) + np.diag([1.0] * 2, -1))
    assert np.allclose(mats4.stiffness, expected)


def test_chebyshev_low_degrees():
    x = np.linspace(-1.0, 1.0, 41)
    assert np.allclose(chebyshev_u(0, x), 1.0)
    assert np.allclose(chebyshev_u(1, x), 2.0 * x)
    assert np.allclose(chebyshev_u(2, x), 4.0 * x**2 - 1.0)
    assert chebyshev_u(1, 0.3) == pytest.approx(0.6)


def test_chebyshev_boundary_value():
    for m in range(0, 25):
        assert chebyshev_u(m, 1.0) == pytest.approx(m + 1, rel=1e-12)


def test_chebyshev_discrete_orthogonality():
    # sum_{k=1}^{N-1} U_i(x_k) U_j(x_k) (1 - x_k^2) = 0 or N/2 at x_k = cos(k pi/N)
    for n in (4, 16, 64):
        x_k = np.cos(np.arange(1, n) * np.pi / n)
        weight = 1.0 - x_k**2
        table = np.array([chebyshev_u(i, x_k) for i in range(n - 1)])
        gram = table @ (weight[:, None] * table.T)
        assert np.max(np.abs(gram - np.eye(n - 1) * n / 2.0)) < 1e-10


def test_uniform_eigen_closed_forms():
    assert uniform_eigen(2).eigenvalues == pytest.approx([-8.0])
    assert uniform_eigen(3).eigenvalues == pytest.approx([-27.0, -9.0])
    n = 9
    data = uniform_eigen(n)
    k = np.arange(1, n)
    # |b_k|^2 = N / (2 sin^2(k pi / N)), so omega_k = |b_k|^2 / N
    assert np.allclose(data.weights, 1.0 / (2.0 * np.sin(k * np.pi / n) ** 2), rtol=1e-12)


def test_uniform_eigen_table_is_chebyshev_u():
    # the modes are the U_{j-1}(-cos(k pi / n)) table, each row scaled by
    # 1/sqrt(omega_k) with omega_k from the definition; the reference's own
    # recurrence drifts by 1.1e-12 at n = 256
    for n in (2, 3, 8, 64, 256):
        x_k = np.cos(np.arange(1, n) * np.pi / n)
        table = np.column_stack([chebyshev_u(j, -x_k) for j in range(n - 1)])
        weights = np.sum(table**2, axis=1, keepdims=True) / n
        assert np.max(np.abs(uniform_eigen(n).modes - table / np.sqrt(weights))) <= 2e-12


def test_uniform_eigen_modes_to_rounding():
    # v_kj = sqrt(2) (-1)^(j+1) sin(k j pi / n) against 30 digits: within
    # 9.2e-16 at both sizes, where a Chebyshev recurrence is 6.8e-14 and
    # 1.1e-12 off
    import mpmath

    for n in (64, 256):
        with mpmath.workdps(30):
            sines = [float(mpmath.sqrt(2) * mpmath.sinpi(mpmath.mpf(m) / n)) for m in range(2 * n)]
        sines = np.array(sines)
        k = np.arange(1, n)
        exact = np.where(k % 2 == 1, 1.0, -1.0) * sines[np.outer(k, k) % (2 * n)]
        assert np.max(np.abs(uniform_eigen(n).modes - exact)) <= 2e-15


def test_uniform_eigen_matches_generic_solver():
    for n in (2, 5, 17, 50):
        closed = uniform_eigen(n)
        generic = compute_spectral_data(build_matrices(uniform_spec(n)))
        assert np.allclose(closed.eigenvalues, generic.eigenvalues, rtol=1e-9)
        assert np.allclose(closed.weights, generic.weights, rtol=1e-9)
        assert np.allclose(closed.modes, generic.modes, rtol=1e-7, atol=1e-9)


def test_delta_solution_forms():
    # at one time (a float back) and at an array of times (an array back)
    n = 8
    for t in (0.37, np.linspace(0.01, 3.0, 300)):
        for j in (1, 4, 7):
            direct = delta_solution(n, j, t)
            x = 2.0 * n * np.asarray(t)
            alt = n * (scipy.special.jv(2 * j - 1, x) + scipy.special.jv(2 * j + 1, x))
            assert isinstance(direct, float) == (np.ndim(t) == 0)
            assert np.max(np.abs(direct - alt)) <= 1e-12
    with pytest.raises(ValueError):
        delta_solution(8, 8, 0.5)
    with pytest.raises(ValueError):
        delta_solution(8, 1, 0.0)
    with pytest.raises(ValueError):
        delta_solution(8, 1, np.array([0.5, 0.0]))


def test_delta_solution_small_time_limit():
    # J_{2j}(s) ~ s^{2j}, so u_j -> 0 as t -> 0+
    assert abs(delta_solution(6, 2, 1e-4)) < 1e-9


def test_uniform_response_basics():
    # the semi-infinite chain's response r_N(t) = (2/t) J_2(2Nt) is u_1
    expected = 2.0 / 0.3 * scipy.special.jv(2, 3.0)
    assert delta_solution(5, 1, 0.3) == pytest.approx(expected, rel=1e-14)
    # small-t growth r_N(t) ~ N^2 t
    n, t = 7, 1e-5
    assert delta_solution(n, 1, t) == pytest.approx(n * n * t, rel=1e-4)


def test_parse_test_function():
    xi = parse_test_function("gauss:0.0,0.3")
    assert float(xi(0.0)) == pytest.approx(1.0)
    assert float(xi.derivative(0.0)) == 0.0
    rc = parse_test_function("rcos:0.5,0.2")
    assert float(rc(0.5)) == pytest.approx(1.0)
    assert float(rc(0.71)) == 0.0
    assert float(parse_test_function("sine:2.0")(0.25)) == pytest.approx(np.sin(0.5))
    assert float(parse_test_function("one")(3.0)) == 1.0
    with pytest.raises(ValueError):
        parse_test_function("spline:1")
    with pytest.raises(ValueError):
        parse_test_function("gauss:1")


def test_pair_response_unit_mass():
    res = pair_response(16, constant_one(), tol=0.02)
    assert res.value == pytest.approx(1.0, abs=0.02)
    assert res.truncation_bound <= 0.02


def gauss_pairing(n: int, width: float) -> float:
    """Closed form of int_0^inf (2/t) J_2(2nt) exp(-t^2 / 2w^2) dt, which is
    1 - (1 - e^-x)/x with x = 2 n^2 w^2 (checked against mpmath quadrature
    at 30 digits to 1e-15)."""
    x = 2.0 * n * n * width * width
    return 1.0 - (1.0 - np.exp(-x)) / x


def test_pair_response_against_time_domain_oracle():
    for n in (8, 16, 32, 64, 128, 256):
        res = pair_response(n, gaussian_bump(0.0, 0.3))
        assert res.value == pytest.approx(gauss_pairing(n, 0.3), abs=1e-7)


def test_corrected_response_against_closed_form(tmp_path):
    # prop 3 through the CLI: n (<r_n, xi> - 1) = -n (1 - e^-x)/x, which the
    # pairing's end term must hold to 1e-3 relative as n multiplies its error
    out = tmp_path / "out"
    assert main(["uniform-sweep", "--prop", "3", "--N", "256,1024,4096", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "uniform_prop3.csv", delimiter=",", skiprows=2)
    for n, value in zip((256, 1024, 4096), rows[:, 2]):
        assert value == pytest.approx(n * (gauss_pairing(n, 0.3) - 1.0), rel=1e-3)


def test_pair_response_truncation_error():
    # a non-decaying test function cannot meet a tight tail tolerance
    with pytest.raises(TruncationError):
        pair_response(8, constant_one(), tol=1e-6)


def test_pair_response_concentrates_at_zero():
    xi = gaussian_bump(0.0, 0.3)
    errors = [abs(pair_response(n, xi).value - 1.0) for n in (8, 16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 1.5


def test_corrected_response_pairs_like_derivative():
    # centered Gaussian: xi'(0) = 0, so the corrected pairing must sink to zero
    xi = gaussian_bump(0.0, 0.3)
    values = [abs(pair_corrected_response(n, xi).value) for n in (8, 16, 32, 64)]
    for coarse, fine in zip(values, values[1:]):
        assert coarse / fine >= 1.5
    # off-center Gaussian: pairing approaches xi'(0) != 0
    xi_off = gaussian_bump(0.4, 0.3)
    target = float(xi_off.derivative(0.0))
    errors = [abs(pair_corrected_response(n, xi_off).value - target) for n in (16, 32, 64)]
    assert errors[-1] < errors[0]
    assert errors[-1] < 0.05 * abs(target)


def test_pair_solution_with_sine_exact_segments(monkeypatch):
    # the affine-times-sine quadrature is exact for arbitrary nodal data
    n, k = 16, 3
    rng = np.random.default_rng(5)
    fake = rng.standard_normal(2 * n + 1)

    import krein_string.uniform as uni

    monkeypatch.setattr(uni, "bessel_j_ladder", lambda n_max, x: fake[: n_max + 1])
    got = uni.pair_solution_with_sine(n, 0.5, k)

    j = np.arange(1, n)
    nodes = np.concatenate([[0.0], n * (fake[2 * j - 1] + fake[2 * j + 1]), [0.0]])
    xs = np.linspace(0.0, 1.0, 2 * 10**5 + 1)
    u = np.interp(xs, np.arange(n + 1) / n, nodes)
    ref = np.trapezoid(u * np.sin(k * xs), xs)
    assert got == pytest.approx(ref, abs=1e-8)


def test_pair_solution_with_sine_converges():
    for t, k in ((0.3, 1), (0.7, 2)):
        errors = [abs(pair_solution_with_sine(n, t, k) - np.sin(k * t)) for n in (16, 64, 128)]
        assert errors[-1] < 0.002
        assert errors[0] > errors[-1]


def test_pair_solution_with_sine_small_angle_form():
    # pre-reflection check of the closed form sin(2 N t sin(k / 2N))
    n, t, k = 64, 0.3, 2
    value = pair_solution_with_sine(n, t, k)
    assert value == pytest.approx(np.sin(2 * n * t * np.sin(k / (2 * n))), abs=2e-4)


def test_pair_solution_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_solution_with_sine(8, -0.1, 1)
    with pytest.raises(ValueError):
        pair_solution_with_sine(8, 0.5, 0)


def test_bessel_calls_go_through_module_names(monkeypatch):
    # the closed forms and pairings take J_n through uniform's module-level
    # names, so rebinding those names reroutes every call (a reference sweep on
    # other Bessel values, or timing spans around them)
    import krein_string.uniform as uni

    calls = []
    for name in ("bessel_j_grid", "bessel_j_ladder"):
        original = getattr(uni, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(uni, name, counted)

    for run, used in (
        (lambda: pair_response(8, gaussian_bump(0.0, 0.3)), "bessel_j_grid"),
        (lambda: delta_solution(8, 2, np.linspace(0.1, 1.0, 10)), "bessel_j_grid"),
        (lambda: pair_solution_with_sine(8, 0.3, 1), "bessel_j_ladder"),
    ):
        calls.clear()
        run()
        assert calls and set(calls) == {used}


def test_image_sum_skips_only_the_pair_that_stops_it(monkeypatch):
    # the a-priori bound on |J_nu| stops the sum before the pair the plain
    # loop evaluates and then drops, so the values are those of the loop, bit
    # for bit, with fewer Bessel calls; on prop 1's grids (t up to 1, 4N
    # steps) and up to t = 3
    calls = []
    grid = uniform.bessel_j_grid

    def counted(*args):
        calls.append(args[0])
        return grid(*args)

    monkeypatch.setattr(uniform, "bessel_j_grid", counted)
    saved = 0
    for n in (8, 16, 32, 64, 128, 256):
        for horizon in (1.0, 3.0):
            times = np.linspace(0.0, horizon, max(4 * n, 64) + 1)[1:]
            for j in sorted({1, n // 2, n - 1}):
                calls.clear()
                got = image_sum(n, j, times)
                used = len(calls)
                calls.clear()
                assert np.array_equal(got, plain_image_sum(n, j, times)), (n, horizon, j)
                saved += len(calls) - used
    assert saved > 0


def test_closed_forms_refuse_non_finite_times():
    # NaN passes a "t <= 0" check, and a NaN pair never falls below the image
    # sum's stop; image_sum calls delta_solution first, so this cannot hang
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            image_sum(8, 1, np.array([0.5, bad]))
        with pytest.raises(ValueError, match="finite"):
            delta_solution(8, 1, bad)


def test_pairings_against_jv(monkeypatch):
    # J_2 by its recurrence against scipy's general-order jv in the pairings:
    # the response pairing moved by at most 7.8e-16 at N = 8..256, and the
    # corrected response multiplies that by N
    xi = gaussian_bump(0.0, 0.3)
    ns = (8, 16, 32, 64, 128, 256)
    own = [(pair_response(n, xi).value, pair_corrected_response(n, xi).value) for n in ns]
    monkeypatch.setattr(uniform, "bessel_j_grid", lambda n, xs: scipy.special.jv(n, np.asarray(xs, dtype=float)))
    for n, (response, corrected) in zip(ns, own):
        assert abs(response - pair_response(n, xi).value) <= 2e-15, n
        assert abs(corrected - pair_corrected_response(n, xi).value) <= n * 2e-15, n
