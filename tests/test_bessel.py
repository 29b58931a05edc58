import numpy as np
import pytest
import scipy.special

from krein_string.uniform import bessel_j, bessel_j_grid, bessel_j_ladder


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0


def test_small_argument_leading_order():
    # J_2(s) ~ s^2 / 8
    for s in (1e-4, 1e-3, 1e-2):
        assert bessel_j(2, s) == pytest.approx(s * s / 8.0, rel=1e-3)


def test_against_library_oracle():
    # accuracy claim: <= 1e-12 absolute for n <= 200, x <= 1e4
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(250):
        n = int(rng.integers(0, 201))
        x = float(10 ** rng.uniform(-2, 4))
        worst = max(worst, abs(bessel_j(n, x) - scipy.special.jv(n, x)))
    assert worst < 1e-12


def test_three_term_recurrence_identity():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x) on a log-spaced sample
    worst = 0.0
    for n in (1, 2, 5, 12, 30, 60):
        for x in np.geomspace(0.05, 500.0, 40):
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = 2.0 * n / x * bessel_j(n, x)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


def test_generating_series_for_sine():
    # sin(z sin theta) = 2 sum_k J_{2k+1}(z) sin((2k+1) theta)
    for z in (0.7, 3.0, 11.5, 40.0):
        ladder = bessel_j_ladder(int(z) + 60, z)
        for theta in (0.3, 1.0, 1.4):
            k = np.arange(0, (len(ladder) - 1) // 2)
            series = 2.0 * np.sum(ladder[2 * k + 1] * np.sin((2 * k + 1) * theta))
            assert series == pytest.approx(np.sin(z * np.sin(theta)), abs=1e-12)


def test_ladder_matches_scalar():
    ladder = bessel_j_ladder(40, 17.3)
    for n in (0, 3, 17, 40):
        assert ladder[n] == pytest.approx(bessel_j(n, 17.3), abs=1e-14)


def test_ladder_against_oracle():
    for x in (0.5, 8.0, 33.0, 260.0):
        ladder = bessel_j_ladder(128, x)
        ref = scipy.special.jv(np.arange(129), x)
        assert np.max(np.abs(ladder - ref)) < 1e-12


def test_grid_against_oracle():
    xs = np.concatenate(
        [
            np.linspace(0.0, 8.0, 101),
            np.geomspace(8.0, 36000.0, 400),
        ]
    )
    for n in (0, 2, 5):
        got = bessel_j_grid(n, xs)
        ref = scipy.special.jv(n, xs)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_grid_matches_scalar():
    xs = np.array([0.0, 0.3, 7.9, 8.1, 120.0, 2500.0])
    got = bessel_j_grid(2, xs)
    for x, val in zip(xs, got):
        assert val == pytest.approx(bessel_j(2, float(x)), abs=1e-13)


def test_hankel_branch_from_twenty():
    # large arguments at small orders (x > 20, 4 n^2 < x / 10), the range of a
    # Hankel-expansion evaluation
    for n in range(8):
        xs = np.linspace(max(20.0, 40.0 * n * n), 2000.0, 4001)
        ref = scipy.special.jv(n, xs)
        assert np.max(np.abs(bessel_j_grid(n, xs) - ref)) < 5e-15
        scalar = np.array([bessel_j(n, float(x)) for x in xs[::40]])
        assert np.max(np.abs(scalar - ref[::40])) < 5e-15


def test_grid_matches_scalar_across_twenty():
    xs = np.array([16.5, 18.0, 19.5, 19.999, 20.0, 20.001, 20.5, 22.0])
    for n in (0, 1, 2):
        got = bessel_j_grid(n, xs)
        scalar = np.array([bessel_j(n, float(x)) for x in xs])
        assert np.max(np.abs(got - scalar)) < 5e-15
    # the scalar and the vectorized values are bitwise equal above x = 20
    hankel = xs > 20.0
    scalar = np.array([bessel_j(0, float(x)) for x in xs[hankel]])
    assert np.array_equal(bessel_j_grid(0, xs)[hankel], scalar)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(2, -1.0)
    with pytest.raises(ValueError):
        bessel_j_grid(2, np.array([1.0, -2.0]))
    # jv itself accepts negative orders, J_{-n} = (-1)^n J_n
    with pytest.raises(ValueError):
        bessel_j_grid(-2, np.array([1.0]))
    with pytest.raises(ValueError):
        bessel_j_ladder(-1, 1.0)
    # NaN fails "x < 0" too; jv returns NaN for it and 0 at infinity
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            bessel_j(2, bad)
        with pytest.raises(ValueError, match="finite"):
            bessel_j_grid(2, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            bessel_j_grid(5, np.array([bad]))
        with pytest.raises(ValueError, match="finite"):
            bessel_j_ladder(3, bad)


def test_wrappers_against_extended_precision():
    # an oracle independent of scipy.special.jv, which the wrappers call: mpmath
    # at 30 digits over the ranges the uniform sweeps reach
    import mpmath

    with mpmath.workdps(30):

        def extended(n, x):
            return float(mpmath.besselj(int(n), mpmath.mpf(float(x))))

        # random orders 0..512 at x up to 1500, uniform and log-uniform in x
        rng = np.random.default_rng(512)
        orders = rng.integers(0, 513, 200)
        xs = np.concatenate([rng.uniform(0.0, 1500.0, 100), 10 ** rng.uniform(-2.0, np.log10(1500.0), 100)])
        ref = np.array([extended(n, x) for n, x in zip(orders, xs)])
        scalar = np.array([bessel_j(int(n), float(x)) for n, x in zip(orders, xs)])
        grid = np.array([bessel_j_grid(int(n), [x])[0] for n, x in zip(orders, xs)])
        assert np.max(np.abs(scalar - ref)) < 1e-13
        assert np.max(np.abs(grid - ref)) < 1e-13

        # the order-2 pairing grid, by J_2's recurrence: ds = 0.05 up to the
        # largest truncation point the sweeps reach (prop 3 at N = 256), every
        # 29th point; within 2.1e-15 of the reference when measured
        s_max = 20.0 * 1.5**10
        s = np.linspace(0.0, s_max, int(np.ceil(s_max / 0.05)) + 1)[1::29]
        ref = np.array([extended(2, x) for x in s])
        assert np.max(np.abs(bessel_j_grid(2, s) - ref)) < 1e-13
        # below 0.1 J_2 is jv's, where the recurrence's two terms cancel (16
        # relative at x = 1e-8); held relative to J_2, since J_2(0) = 0 exactly,
        # and within 5.4e-15 when measured
        s = np.geomspace(1e-8, 0.1, 200)
        ref = np.array([extended(2, x) for x in s])
        assert np.max(np.abs(bessel_j_grid(2, s) - ref) / ref) < 1e-13
        assert bessel_j_grid(2, [0.0])[0] == 0.0

        # whole ladders to order 512, as the sine pairings and prop 1 use them
        for x in (76.8, 153.6, 512.0):
            ref = np.array([extended(n, x) for n in range(513)])
            assert np.max(np.abs(bessel_j_ladder(512, x) - ref)) < 1e-13
