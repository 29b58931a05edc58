"""First-kind Bessel functions J_n via Miller's downward recurrence.

Three evaluation branches, selected per point:

* ascending power series when it is cancellation-free (x <= 8 or x^2 <= 2n),
* Miller's downward recurrence normalized by J_0 + 2 sum J_{2k} = 1 for
  moderate arguments,
* the Hankel large-argument expansion for x > 20 when the order is small
  enough for the series to converge (4 n^2 < x / 10), which spares the
  quadrature grids of the pairings a Miller sweep about x steps long per
  bucket.  On those ranges it is within a few 1e-15 of the library oracle;
  below x = 20 its smallest term grows past that (2e-13 at x = 16).

Absolute accuracy is a few 1e-14 for n <= 200, x <= 1e4 (validated against
an independent library oracle in the test suite).  ``bessel_j_ladder``
exposes the whole order ladder Miller produces in one sweep, which the
uniform-string solutions consume; ``bessel_j_grid`` vectorizes a fixed
order over argument arrays for quadrature, bucketing arguments so one
common start order serves each bucket without overflow.
"""

from __future__ import annotations

import numpy as np

_SERIES_X_MAX = 8.0
_ASYMPTOTIC_X_MIN = 20.0
_RESCALE = 1e250
_BUCKET_RATIO = 1.3


def _start_order(n: int, x: float) -> int:
    # pad above max(n, x) so the minimal solution dominates by > 1e16
    m = int(max(n + 15, x + 9.0 * x ** (1.0 / 3.0) + 22.0))
    return m + (m % 2)


def _series(n: int, x: float) -> float:
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    total = term
    k = 0
    while k < 400:
        k += 1
        term *= -(half * half) / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def _miller_scalar(n: int, x: float) -> float:
    m_start = _start_order(n, x)
    j_up = 0.0
    j_cur = 1e-300
    norm = 0.0
    target = 0.0
    for m in range(m_start, 0, -1):
        j_down = (2.0 * m / x) * j_cur - j_up
        j_up, j_cur = j_cur, j_down
        order = m - 1
        if order == n:
            target = j_cur
        if order > 0 and order % 2 == 0:
            norm += 2.0 * j_cur
        if abs(j_cur) > _RESCALE:
            j_cur /= _RESCALE
            j_up /= _RESCALE
            norm /= _RESCALE
            target /= _RESCALE
    norm += j_cur  # j_cur is now the unnormalized J_0
    return target / norm


def _asymptotic(n: int, x: float) -> float:
    mu = 4.0 * n * n
    p = 1.0
    q = (mu - 1.0) / (8.0 * x)
    term_p = 1.0
    term_q = q
    for k in range(1, 30):
        term_p *= -(mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2) / ((2 * k - 1) * (2 * k) * 64.0 * x * x)
        term_q *= -(mu - (4 * k - 1) ** 2) * (mu - (4 * k + 1) ** 2) / ((2 * k) * (2 * k + 1) * 64.0 * x * x)
        if abs(term_p) < 1e-17 and abs(term_q) < 1e-17:
            break
        p += term_p
        q += term_q
    chi = x - (2 * n + 1) * np.pi / 4.0
    return float(np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi)))


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0, x >= 0."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if x < 0.0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= _SERIES_X_MAX or x * x <= 2.0 * n:
        return _series(n, x)
    if x > _ASYMPTOTIC_X_MIN and 4.0 * n * n < 0.1 * x:
        return _asymptotic(n, x)
    return _miller_scalar(n, x)


def bessel_j_ladder(n_max: int, x: float) -> np.ndarray:
    """All of J_0(x) .. J_{n_max}(x) from a single downward sweep."""
    if n_max < 0:
        raise ValueError("order must be non-negative")
    if x < 0.0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    if x <= _SERIES_X_MAX:
        return np.array([_series(n, x) for n in range(n_max + 1)])
    m_start = _start_order(n_max, x)
    ladder = np.zeros(m_start + 2)
    ladder[m_start] = 1e-300
    norm = 0.0
    for m in range(m_start, 0, -1):
        ladder[m - 1] = (2.0 * m / x) * ladder[m] - ladder[m + 1]
        order = m - 1
        if order > 0 and order % 2 == 0:
            norm += 2.0 * ladder[m - 1]
        if abs(ladder[m - 1]) > _RESCALE:
            ladder[m - 1 :] /= _RESCALE
            norm /= _RESCALE
    norm += ladder[0]
    return ladder[: n_max + 1] / norm


def _series_grid(n: int, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    term = np.ones_like(x)
    for i in range(1, n + 1):
        term = term * half / i
    total = term.copy()
    for k in range(1, 120):
        term = term * (-(half * half) / (k * (n + k)))
        total += term
        if np.max(np.abs(term)) <= 1e-17:
            break
    return total


def _asymptotic_grid(n: int, x: np.ndarray) -> np.ndarray:
    mu = 4.0 * n * n
    p = np.ones_like(x)
    q = (mu - 1.0) / (8.0 * x)
    term_p = np.ones_like(x)
    term_q = q.copy()
    inv_sq = 1.0 / (64.0 * x * x)
    for k in range(1, 30):
        term_p = term_p * (-(mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2) * inv_sq / ((2 * k - 1) * (2 * k)))
        term_q = term_q * (-(mu - (4 * k - 1) ** 2) * (mu - (4 * k + 1) ** 2) * inv_sq / ((2 * k) * (2 * k + 1)))
        if np.max(np.abs(term_p)) < 1e-17 and np.max(np.abs(term_q)) < 1e-17:
            break
        p += term_p
        q += term_q
    chi = x - (2 * n + 1) * np.pi / 4.0
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _miller_bucket(n: int, x: np.ndarray) -> np.ndarray:
    # common start order for the whole bucket; x spans at most _BUCKET_RATIO
    m_start = _start_order(n, float(x[-1]))
    inv_x = 1.0 / x
    j_up = np.zeros_like(x)
    j_cur = np.full_like(x, 1e-300)
    norm = np.zeros_like(x)
    target = np.zeros_like(x)
    for m in range(m_start, 0, -1):
        j_down = (2.0 * m) * inv_x * j_cur - j_up
        j_up = j_cur
        j_cur = j_down
        order = m - 1
        if order == n:
            target = j_cur.copy()
        if order > 0 and order % 2 == 0:
            norm += 2.0 * j_cur
        if np.max(np.abs(j_cur)) > _RESCALE:
            j_cur /= _RESCALE
            j_up /= _RESCALE
            norm /= _RESCALE
            target /= _RESCALE
    norm += j_cur
    return target / norm


def bessel_j_grid(n: int, xs) -> np.ndarray:
    """Vectorized J_n over an array of non-negative arguments."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError("arguments must be non-negative")
    out = np.empty_like(xs)
    series_mask = (xs <= _SERIES_X_MAX) | (xs * xs <= 2.0 * n)
    if np.any(series_mask):
        out[series_mask] = _series_grid(n, xs[series_mask])
        zero = xs == 0.0
        if np.any(zero):
            out[zero] = 1.0 if n == 0 else 0.0
    asym_mask = ~series_mask & (xs > _ASYMPTOTIC_X_MIN) & (4.0 * n * n < 0.1 * xs)
    if np.any(asym_mask):
        out[asym_mask] = _asymptotic_grid(n, xs[asym_mask])
    rest = ~series_mask & ~asym_mask
    if np.any(rest):
        idx = np.nonzero(rest)[0]
        x_rest = xs[idx]
        order = np.argsort(x_rest, kind="stable")
        res = np.empty_like(x_rest)
        lo = 0
        while lo < len(order):
            x_lo = x_rest[order[lo]]
            hi = lo
            while hi < len(order) and x_rest[order[hi]] <= _BUCKET_RATIO * x_lo:
                hi += 1
            sel = order[lo:hi]
            res[sel] = _miller_bucket(n, x_rest[sel])
            lo = hi
        out[idx] = res
    return out
