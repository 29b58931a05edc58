"""Spectral data of the string: eigenvalues and mass-orthonormal modes.

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

The couplings are nonzero, so the spectrum is simple (Gantmacher and Krein),
but a nearly decoupled string has eigenvalues equal to rounding.  Such a
cluster is kept: its modes are any mass-orthonormal basis that ``eigh``
returns, so only the summed v_1k^2 of the cluster is fixed, and every modal
sum over it is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemMatrices, _as_readonly


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


def compute_spectral_data(mats: SystemMatrices) -> SpectralData:
    """Eigenvalues and mass-orthonormal modes of A phi = lam M phi."""
    lam, sym_vecs = np.linalg.eigh(symmetric_reduction(mats))
    modes = sym_vecs.T / np.sqrt(mats.masses)
    modes[modes[:, 0] < 0.0] *= -1.0
    return SpectralData(eigenvalues=lam, modes=modes)
