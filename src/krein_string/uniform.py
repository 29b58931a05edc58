"""Uniform point-mass approximation of the unit-density string on (0, 1).

With n segments of length 1/n and n-1 masses of 1/n, eigenpairs are
available in closed form through Chebyshev polynomials of the second kind.
The impulse-driven solution of the semi-infinite chain has the Bessel
components

    g_j(t) = (2j/t) J_{2j}(2nt) = n (J_{2j-1}(2nt) + J_{2j+1}(2nt)),

and the n-segment chain, fixed at both ends, adds the method-of-images terms:
u_j(t) = sum_m g_{j+2mn}(t), with g_{-k} = -g_k (``image_sum``).

The pairing routines here drive the convergence experiments: the response
(2/t) J_2(2nt) integrates to one and concentrates at t = 0 as n grows, the
corrected response n (u_1 - delta) pairs like a derivative at zero, and the
interpolated impulse solution paired with sine modes approaches sin(kt),
exposing the emergent unit wave speed.  The two response pairings take one
trapezoid in s = 2nt and add its Euler-Maclaurin end term at s = 0
(``pair_response``); for a Gaussian xi, whose pairing has a closed form,
they are within 2e-8 of it at n = 8..256.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The pairings call the Bessel functions through these module names, so a
# caller can rebind all three together.  bessel_j is unused here but stays:
# the benchmark's uniform sweep reads all three names off this module, and
# its tracer rebinds each of them.
from .bessel import bessel_j, bessel_j_grid, bessel_j_ladder  # noqa: F401
from .errors import TruncationError
from .spectral import SpectralData

# |J_2(s)| <= _J2_ENVELOPE / sqrt(s) for s >= 1/2; used in truncation bounds.
_J2_ENVELOPE = 0.9


def uniform_eigen(n: int) -> SpectralData:
    """Closed-form spectral data of the uniform string.

    lambda_k = -4 n^2 cos^2(k pi / 2n) ascending in k.  The eigenvector with
    first component one is phi^k_j = U_{j-1}(-cos(k pi / n))
    = (-1)^(j+1) sin(k j pi / n) / sin(k pi / n), and sum_j sin^2(k j pi / n)
    = n/2, so the mass-orthonormal modes are
    v_kj = sqrt(2) (-1)^(j+1) sin(k j pi / n).  k j is reduced mod 2n in
    integers first, so the sine's argument stays in [0, 2 pi).
    """
    if n < 2:
        raise ValueError("uniform case needs n >= 2")
    k = np.arange(1, n)
    lam = -4.0 * n**2 * np.cos(k * np.pi / (2 * n)) ** 2
    sign = np.where(k % 2 == 1, 1.0, -1.0)
    modes = np.sqrt(2.0) * sign * np.sin((np.pi / n) * (np.outer(k, k) % (2 * n)))
    return SpectralData(eigenvalues=lam, modes=modes)


def delta_solution(n: int, j: int, t):
    """Semi-infinite-chain impulse component (2j/t) J_{2j}(2nt) at a positive
    time, or at an array of them in one ``bessel_j_grid`` call.

    The n-segment string's component adds the image terms
    sum_{m != 0} g_{j+2mn}(t), where g_k(t) = (2k/t) J_{2|k|}(2nt); see
    ``image_sum``.
    """
    if not 1 <= j <= n - 1:
        raise ValueError(f"component index {j} outside 1..{n - 1}")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times <= 0.0):
        raise ValueError("t must be positive")
    values = 2.0 * j / times * bessel_j_grid(2 * j, 2.0 * n * times)
    return float(values[0]) if np.ndim(t) == 0 else values


def image_sum(n: int, j: int, times: np.ndarray) -> np.ndarray:
    """Impulse component u_j of the n-segment chain at an array of positive
    times: the image sum sum_m g_{j+2mn}(t), whose m = 0 term is
    ``delta_solution``.

    Pairs m = +-1, +-2, ... are added until the next pair is below 1e-16 at
    every time.
    """
    times = np.asarray(times, dtype=float)
    x = 2.0 * n * times
    total = delta_solution(n, j, times)
    for m in itertools.count(1):
        above, below = j + 2 * m * n, 2 * m * n - j
        pair = 2.0 / times * (above * bessel_j_grid(2 * above, x) - below * bessel_j_grid(2 * below, x))
        if np.max(np.abs(pair)) < 1e-16:
            return total
        total += pair


# ---------------------------------------------------------------------------
# Test functions for distributional pairings.


@dataclass(frozen=True)
class TestFunction:
    """Smooth test function with its analytic derivative and a bound on
    sup_{tau >= t} |xi(tau)| used by truncation estimates."""

    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    tail_sup: Callable[[float], float]

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


def _center_width(center: float, width: float) -> tuple[float, float]:
    c, w = float(center), float(width)
    if not (math.isfinite(c) and math.isfinite(w) and w > 0.0):
        raise ValueError(f"center and width must be finite, width > 0; got {c!r}, {w!r}")
    return c, w


def gaussian_bump(center: float, width: float) -> TestFunction:
    c, w = _center_width(center, width)

    def fn(t):
        return np.exp(-0.5 * ((t - c) / w) ** 2)

    def deriv(t):
        return -((t - c) / w**2) * fn(t)

    def tail(t):
        return 1.0 if t <= c else float(np.exp(-0.5 * ((t - c) / w) ** 2))

    return TestFunction(fn, deriv, tail)


def raised_cosine(center: float, halfwidth: float) -> TestFunction:
    c, w = _center_width(center, halfwidth)

    def fn(t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t - c) < w
        out = np.zeros_like(t)
        out[inside] = 0.5 * (1.0 + np.cos(np.pi * (t[inside] - c) / w))
        return out

    def deriv(t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t - c) < w
        out = np.zeros_like(t)
        out[inside] = -0.5 * np.pi / w * np.sin(np.pi * (t[inside] - c) / w)
        return out

    def tail(t):
        return 1.0 if t < c + w else 0.0

    return TestFunction(fn, deriv, tail)


def sine_mode(k: float) -> TestFunction:
    k = float(k)
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k!r}")
    return TestFunction(
        lambda t: np.sin(k * np.asarray(t, dtype=float)),
        lambda t: k * np.cos(k * np.asarray(t, dtype=float)),
        lambda t: 1.0,
    )


def constant_one() -> TestFunction:
    return TestFunction(
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: 1.0,
    )


def parse_test_function(descriptor: str) -> TestFunction:
    """Build a test function from a CLI descriptor like ``gauss:0.0,0.3``."""
    name, _, args = descriptor.partition(":")
    try:
        if name == "gauss":
            c, w = (float(v) for v in args.split(","))
            return gaussian_bump(c, w)
        if name == "rcos":
            c, w = (float(v) for v in args.split(","))
            return raised_cosine(c, w)
        if name == "sine":
            return sine_mode(float(args))
        if name == "one":
            return constant_one()
    except ValueError as exc:
        raise ValueError(f"bad test-function arguments in {descriptor!r}: {exc}") from exc
    raise ValueError(f"unknown test function {name!r}")


# ---------------------------------------------------------------------------
# Distributional pairings.


# Trapezoid step and the largest truncation point of the pairings, in s = 2nt.
_DS = 0.05
_S_CAP = 5e5


@dataclass(frozen=True)
class PairingResult:
    value: float
    truncation_bound: float


def _truncation_bound(n: int, xi: TestFunction, s_max: float) -> float:
    # tail of int (2/s)|J_2(s)| |xi(s/2n)| ds, with |J_2| <= 0.9/sqrt(s)
    return 4.0 * _J2_ENVELOPE * float(xi.tail_sup(s_max / (2.0 * n))) / math.sqrt(s_max)


def pair_response(n: int, xi: TestFunction, tol: float = 1e-4) -> PairingResult:
    """<r_n, xi> = int_0^inf (2/t) J_2(2nt) xi(t) dt after the substitution
    s = 2nt, truncated at the first s_max where the documented tail bound
    drops below tol (``TruncationError`` if none does up to s = 5e5).

    One trapezoid of g(s) = (2/s) J_2(s) xi(s/2n) on [0, s_max] at the step
    h = s_max/m <= 0.05, plus the end term xi(0) (h^2/48 + h^4/5760).  By
    Euler-Maclaurin the trapezoid exceeds the integral by
    (h^2/12)(g'(s_max) - g'(0)) - (h^4/720)(g'''(s_max) - g'''(0)) + O(h^6),
    and (2/s) J_2(s) = s/4 - s^3/48 + ... gives g'(0) = xi(0)/4 and
    g'''(0) = -xi(0)/8 + O(1/n^2), so the end term removes both terms at
    s = 0.  The h^4 one is about 1e-9, but the corrected response multiplies
    it by n.  The terms at s_max are left out: g'(s_max) is of order
    sup xi / s_max^(3/2), so (h^2/12) g'(s_max) sits below the tail bound by
    a factor of about h^2/s_max.
    """
    s_max = 20.0
    while _truncation_bound(n, xi, s_max) > tol:
        s_max *= 1.5
        if s_max > _S_CAP:
            raise TruncationError(
                f"tail bound {_truncation_bound(n, xi, s_max):.3e} still above "
                f"tol={tol:.1e} at s_max={s_max:.3e}"
            )
    m = math.ceil(s_max / _DS)
    h = s_max / m
    s = np.linspace(0.0, s_max, m + 1)[1:]
    g = (2.0 / s) * bessel_j_grid(2, s) * xi(s / (2.0 * n))
    end = float(xi(0.0)) * (h**2 / 48.0 + h**4 / 5760.0)
    # the trapezoid's first node is g(0) = 0
    value = h * (float(np.sum(g)) - 0.5 * float(g[-1])) + end
    return PairingResult(value=value, truncation_bound=_truncation_bound(n, xi, s_max))


def pair_corrected_response(n: int, xi: TestFunction, tol: float = 1e-7) -> PairingResult:
    """Pairing of the corrected response n (u_1 - delta) with xi.

    Converges to xi'(0), the pairing with -delta', as n grows.
    """
    base = pair_response(n, xi, tol)
    return PairingResult(
        value=n * (base.value - float(xi(0.0))),
        truncation_bound=n * base.truncation_bound,
    )


def pair_solution_with_sine(n: int, t: float, k: int) -> float:
    """Exact integral of the affine-interpolated impulse solution at time t
    against sin(kx) on (0, 1)."""
    if not 0.0 < t:
        raise ValueError("t must be positive")
    if k <= 0:
        raise ValueError("k must be a positive integer")
    ladder = bessel_j_ladder(2 * n, 2.0 * n * t)
    j = np.arange(1, n)
    u = np.zeros(n + 1)
    u[1:n] = n * (ladder[2 * j - 1] + ladder[2 * j + 1])
    xs = np.arange(n + 1) / n

    x0, x1 = xs[:-1], xs[1:]
    u0, u1 = u[:-1], u[1:]
    beta = (u1 - u0) * n
    alpha = u0 - beta * x0
    # int sin(kx) dx and int x sin(kx) dx over each segment, closed form
    f_const = (-np.cos(k * x1) + np.cos(k * x0)) / k
    f_linear = (np.sin(k * x1) - k * x1 * np.cos(k * x1) - np.sin(k * x0) + k * x0 * np.cos(k * x0)) / k**2
    return float(np.sum(alpha * f_const + beta * f_linear))
