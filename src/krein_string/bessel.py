"""First-kind Bessel functions J_n of integer order n >= 0 at x >= 0.

Thin wrappers over the compiled ``scipy.special`` functions: a scalar value,
a fixed order over an array of arguments (the quadrature grids of the
pairings) and the whole order ladder J_0(x) .. J_{n_max}(x) at one argument
(the uniform-string solutions).  Order 2, the order of every pairing grid,
comes from J_0 and J_1 by the recurrence J_2(x) = (2/x) J_1(x) - J_0(x)
(DLMF 10.6.1), several times cheaper than the general-order ``jv``; below
x = 0.1, where its two terms cancel (a relative error of about
5e-15 / x^2), ``jv`` gives it.  Every other order is ``jv``'s.  The scipy
functions are imported when a wrapper is called, so only the
uniform-string pairings load ``scipy.special``; every other command runs
on numpy alone.  All three wrappers reject negative orders and negative or
non-finite arguments, which ``jv`` would accept.  On the ranges the uniform
sweeps reach (orders up to 512, x up to 1500) the values are within 1e-13
absolute of an extended-precision reference, which the test suite checks.
"""

from __future__ import annotations

import numpy as np


def _jv(n: int, x, ladder: bool = False) -> np.ndarray:
    """J at order n, or at each order 0..n if ``ladder``, once n is checked
    to be non-negative and every argument to be finite and non-negative."""
    from scipy.special import j0, j1, jv

    if n < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    # NaN fails both comparisons
    if not np.all((x >= 0.0) & (x < np.inf)):
        raise ValueError("argument must be finite and non-negative")
    if ladder or n != 2:
        return jv(np.arange(n + 1) if ladder else n, x)
    out = np.empty(x.shape)
    # the recurrence's two terms cancel below 0.1
    small = x < 0.1
    out[small] = jv(2, x[small])
    large = x[~small]
    out[~small] = 2.0 / large * j1(large) - j0(large)
    return out


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0, x >= 0."""
    return float(_jv(n, x))


def bessel_j_ladder(n_max: int, x: float) -> np.ndarray:
    """All of J_0(x) .. J_{n_max}(x)."""
    return _jv(n_max, x, ladder=True)


def bessel_j_grid(n: int, xs) -> np.ndarray:
    """Vectorized J_n over an array of finite, non-negative arguments."""
    return _jv(n, xs)
