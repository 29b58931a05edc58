"""Spectral data of the string: orthogonal polynomials, eigenvalues, modes.

The polynomials phi_n(lam) solve the three-term Cauchy problem

    a_n phi_{n+1} + a_{n-1} phi_{n-1} + b_n phi_n = lam m_n phi_n,
    phi_0 = 0, phi_1 = 1,

and lam is an eigenvalue of A phi = lam M phi exactly when the terminal
value phi_N(lam) vanishes.  Eigenpairs come from the symmetric reduction
M^{-1/2} A M^{-1/2}, solved as a dense symmetric matrix by
``np.linalg.eigh`` (bitwise what scipy's tridiagonal solver returns, without
loading scipy.linalg), and are kept as
mass-orthonormal modes v_k with first component v_1k >= 0.  The eigenvector
with phi_1 = 1 is v_k / v_1k, so omega_k = (M phi^k, phi^k) = 1/v_1k^2 and
mu(lam) = sum_{lam_k < lam} v_1k^2; nothing divides by v_1k, and a mode the
boundary cannot see (v_1k = 0) has weight ``inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError
from .model import SystemMatrices, _as_readonly

# Relative eigenvalue gap below which the spectrum is reported degenerate;
# the finite string always has simple spectrum, so this flags bad scaling.
GAP_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending, all negative) and mass-orthonormal modes, one
    per row of ``modes``, signed so that the first component is >= 0."""

    eigenvalues: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "modes"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def frequencies(self) -> np.ndarray:
        """Modal frequencies sqrt(|lambda_k|)."""
        return np.sqrt(-self.eigenvalues)

    @property
    def weights(self) -> np.ndarray:
        """omega_k = (M phi^k, phi^k) = 1/v_1k^2; ``inf`` where v_1k = 0."""
        with np.errstate(divide="ignore"):
            return 1.0 / self.modes[:, 0] ** 2


def symmetric_reduction(mats: SystemMatrices) -> np.ndarray:
    """The tridiagonal M^{-1/2} A M^{-1/2} as a dense symmetric array."""
    sqrt_m = np.sqrt(mats.masses)
    off = mats.off_diag / (sqrt_m[:-1] * sqrt_m[1:])
    return np.diag(mats.diag / mats.masses) + np.diag(off, 1) + np.diag(off, -1)


def evaluate_polynomials(mats: SystemMatrices, lam: float) -> np.ndarray:
    """Run the Cauchy recursion; returns (phi_1(lam), ..., phi_N(lam)).

    The terminal entry phi_N vanishes exactly at eigenvalues of the
    generalized problem.
    """
    a = mats.couplings
    b = mats.diag
    m = mats.masses
    n_state = mats.order
    out = np.empty(n_state + 1)
    phi_prev = 0.0
    phi = 1.0
    out[0] = phi
    for n in range(1, n_state + 1):
        phi_next = ((lam * m[n - 1] - b[n - 1]) * phi - a[n - 1] * phi_prev) / a[n]
        phi_prev, phi = phi, phi_next
        out[n] = phi
    return out


def compute_spectral_data(mats: SystemMatrices) -> SpectralData:
    """Eigenvalues and mass-orthonormal modes of A phi = lam M phi."""
    lam, sym_vecs = np.linalg.eigh(symmetric_reduction(mats))

    if mats.order > 1:
        gaps = np.diff(lam) / np.max(np.abs(lam))
        worst = int(np.argmin(gaps))
        if gaps[worst] < GAP_TOL:
            raise DegenerateSpectrumError(
                f"near-multiple eigenvalues: relative gap {gaps[worst]:.3e} "
                f"between modes {worst + 1} and {worst + 2} "
                f"(lambda={lam[worst]:.6e}, {lam[worst + 1]:.6e})"
            )

    modes = sym_vecs.T / np.sqrt(mats.masses)
    modes[modes[:, 0] < 0.0] *= -1.0
    return SpectralData(eigenvalues=lam, modes=modes)


def spectral_function(data: SpectralData, lam: float) -> float:
    """Right-continuous step function mu(lam) = sum_{lam_k < lam} 1/omega_k."""
    return float(np.sum(data.modes[data.eigenvalues < lam, 0] ** 2))
