"""First-kind Bessel functions J_n of integer order n >= 0 at x >= 0.

Thin wrappers over the compiled ``scipy.special.jv``: a scalar value, a fixed
order over an array of arguments (the quadrature grids of the pairings) and
the whole order ladder J_0(x) .. J_{n_max}(x) at one argument (the
uniform-string solutions).  ``jv`` is imported when a wrapper is called, so
only the uniform-string pairings load ``scipy.special``; every other command
runs on numpy alone.  All three reject negative orders and arguments, which
``jv`` would accept.  On the ranges the uniform sweeps reach (orders up to
512, x up to 1500) the values are within 1e-13 absolute of an
extended-precision reference, which the test suite checks.
"""

from __future__ import annotations

import numpy as np


def _jv(n: int, x, ladder: bool = False) -> np.ndarray:
    """``jv`` at order n, or at each order 0..n if ``ladder``, once n and
    every argument are checked to be non-negative."""
    from scipy.special import jv

    if n < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("argument must be non-negative")
    return jv(np.arange(n + 1) if ladder else n, x)


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0, x >= 0."""
    return float(_jv(n, x))


def bessel_j_ladder(n_max: int, x: float) -> np.ndarray:
    """All of J_0(x) .. J_{n_max}(x)."""
    return _jv(n_max, x, ladder=True)


def bessel_j_grid(n: int, xs) -> np.ndarray:
    """Vectorized J_n over an array of non-negative arguments."""
    return _jv(n, xs)
