"""String recovery from the boundary response via the connecting operator.

The connecting operator on controls has kernel

    c(t, s) = (1/(2 l_1)) [P(2T - s - t) - P(|t - s|)],   P(tau) = int_0^tau r,

which reproduces the Gram identity (C f, g) = (M u^f(T), u^g(T)) of the
control map; it has exact rank N-1 for an N-segment string.  The control
steering the system to the first special state solves (C f_1)(t) = r(T - t);
masses, stiffness entries, and segment lengths then follow from the
recursion

    m_k = 1/(C f_k, f_k),  b_k = m_k^2 ((C f_k)'', f_k),  a_k = -b_k - a_{k-1},
    C f_{k+1} = (m_k (C f_k)'' - a_{k-1} C f_{k-1} - b_k C f_k) / a_k,

with a_0 = 1/l_1 in the parameter line (the image recursion starts with no
predecessor term), and l_{k+1} = 1/a_k.

On the grid t_i = i dt the kernel is a Hankel-minus-Toeplitz matrix in the
2n+1 samples of P, so the connector keeps only those samples and applies the
kernel matrix-free: one real FFT of the input, one of the output, O(n log n)
per column.  All solves share one truncated eigendecomposition of the
quadrature-weighted kernel.  Because the kernel has rank N-1, that
decomposition is computed from a seeded randomized block Krylov range finder
(block Lanczos with full reorthogonalization; Musco & Musco, "Randomized
Block Krylov Methods for Stronger and Faster Approximate SVD", NeurIPS 2015)
that only applies the kernel to thin blocks, once per basis column: each
block is the image of the one before it, orthogonalized against the basis.
Rayleigh-Ritz on span[W, A W, A^2 W, ...] runs from the sixth block on, and
the basis stops growing once half of its Ritz values lie below the rank
cut's band.  The kernel's images of the basis columns are kept, so each
Krein solve reads C f from them without applying the kernel again.  This is
the only factorization: no (n+1)^2 array is formed.  On grids under 16 steps
the basis may grow to span the grid, and then its pairs are exact; on longer
grids a numerical rank that a basis of an eighth of the grid cannot hold (a
noise floor above the threshold, or too few steps per mass) raises
``RankError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, RankError, RecoveryError, SpecError
from .forward import TimeGrid, Waveform, _next_fast_len
from .model import _as_readonly

A_DIVISION_GUARD = 1e-10
# Largest relative residual a Krein solve may leave before recovery fails.
MAX_RESIDUAL = 5e-2

# Block Krylov range finder: block width and the fixed sketch seed (reruns
# stay byte-identical).  A basis is refused when the width it would need,
# rounded up to the doubling schedule CAP_BLOCK, 2 CAP_BLOCK, ..., passes
# MAX_BASIS_FRACTION of the grid nodes (or CAP_BLOCK, if that is more): a
# rank that needs more is a noise floor above the threshold, not a string.
SKETCH_BLOCK = 2
SKETCH_SEED = 20110
CAP_BLOCK = 16
MAX_BASIS_FRACTION = 1.0 / 8.0


@dataclass(frozen=True)
class Regularization:
    """Truncation threshold, relative to sigma_max."""

    threshold: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold!r}")


@dataclass(frozen=True)
class DiscretizedConnector:
    """Connector on the control grid t_0..t_n, held as the 2n+1 samples
    ``cumulative[m] = P(m dt)`` of the antiderivative of r and the scale
    1/(2 l_1); the trapezoid weights follow from the grid.

    The kernel K[i, j] = scale (P[2n-i-j] - P[|i-j|]) is never stored.  With
    y = w x, (K y)_i = scale (conv(P, y)[2n-i] - conv(sym, y)[n+i]) for the
    even sequence sym[k] = P[|k|], k = -n..n.  Both convolutions are exact
    in a circular transform of length L >= 2n+1 (every index they read lies
    within [0, 2n] or [-n, n]), so ``_kernel_product`` takes one real FFT of
    y and one inverse: the Hankel half's index reversal is the spectrum
    exp(-2 pi i (2n k mod L) / L) conj(P^) conj(y^), and the Toeplitz half's
    spectrum is real because sym is even.  Both spectra are computed once,
    here, with the scale folded in.
    """

    grid: TimeGrid
    cumulative: np.ndarray
    scale: float
    quad_weights: np.ndarray = field(init=False)
    _fft_length: int = field(init=False, repr=False)
    _hankel_spectrum: np.ndarray = field(init=False, repr=False)
    _toeplitz_spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n_steps
        cumulative = _as_readonly(self.cumulative)
        if cumulative.shape != (2 * n + 1,):
            raise GridError(
                f"connector needs the 2n+1 = {2 * n + 1} antiderivative samples "
                f"of a {n}-step grid, got shape {cumulative.shape}"
            )
        length = _next_fast_len(2 * n + 1)
        sym = np.zeros(length)
        sym[: n + 1] = cumulative[: n + 1]
        sym[length - n :] = cumulative[n:0:-1]
        # 2nk is reduced mod L in integers, so exp adds the only rounding
        shift = np.exp((-2j * np.pi / length) * ((2 * n * np.arange(length // 2 + 1)) % length))
        weights = _trapezoid_weights(n, self.grid.dt)
        weights.flags.writeable = False
        for name, value in (
            ("cumulative", cumulative),
            ("quad_weights", weights),
            ("_fft_length", length),
            ("_hankel_spectrum", self.scale * shift * np.conj(np.fft.rfft(cumulative, length))),
            ("_toeplitz_spectrum", self.scale * np.fft.rfft(sym).real),
        ):
            object.__setattr__(self, name, value)

    def _kernel_product(self, block: np.ndarray) -> np.ndarray:
        """kernel @ block for a vector or an (n+1, k) block, by one forward and
        one inverse real FFT per column.  The columns are copied into the
        rows of a zero-padded C-contiguous (k, L) array: ``numpy.fft``
        transforms contiguous rows faster than the strided columns of the
        block.  The inverse transform writes back into that array."""
        nodes = len(self.quad_weights)
        columns = block.reshape(nodes, -1).T
        padded = np.zeros((len(columns), self._fft_length))
        padded[:, :nodes] = columns
        spectrum = np.fft.rfft(padded)
        mixed = np.conj(spectrum)
        mixed *= self._hankel_spectrum
        spectrum *= self._toeplitz_spectrum
        mixed -= spectrum
        np.fft.irfft(mixed, self._fft_length, out=padded)
        return padded[:, :nodes].T.reshape(block.shape)

    def weighted_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(self.quad_weights * u * v))


def _trapezoid_weights(n_steps: int, dt: float) -> np.ndarray:
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), out=out[1:])
    return out


def build_connector(r: Waveform, l1: float, grid: TimeGrid) -> DiscretizedConnector:
    """The connector of a response sampled on [0, 2T]: the antiderivative of
    r on the control step and the FFT spectra that apply the kernel; no
    (n+1)^2 matrix is formed.

    ``r`` must live on a grid spanning twice the control horizon whose step
    divides the control step; sampling r finer than the control grid drives
    the cumulative-trapezoid error below the rank-detection floor.
    """
    if not (np.isfinite(l1) and l1 > 0.0):
        raise SpecError(f"l1 must be finite and positive, got {l1!r}")
    n = grid.n_steps
    if not np.isclose(r.grid.horizon, 2.0 * grid.horizon, rtol=1e-9, atol=0.0):
        raise GridError(
            f"response covers [0, {r.grid.horizon}], need [0, {2.0 * grid.horizon}] "
            "(the kernel integrates r up to 2T)"
        )
    if r.grid.n_steps % (2 * n) != 0:
        raise GridError(
            f"response step must divide the control step: {r.grid.n_steps} "
            f"samples cannot map onto {2 * n}"
        )
    bad = np.flatnonzero(~np.isfinite(r.values))
    if len(bad):
        i = int(bad[0])
        raise GridError(
            f"response sample {i} (t={float(r.grid.times[i])!r}) is "
            f"{float(r.values[i])!r}; the kernel needs finite samples"
        )
    q = r.grid.n_steps // (2 * n)
    cumulative = _cumulative_trapezoid(r.values, r.grid.dt)[::q]
    return DiscretizedConnector(grid=grid, cumulative=cumulative, scale=1.0 / (2.0 * l1))


class ConnectorFactorization:
    """Shared truncated eigendecomposition of the weighted kernel.

    The kernel is symmetric positive semi-definite in the trapezoid inner
    product, so its weighted form D K D (D = diag(sqrt(w))) is an ordinary
    symmetric eigenproblem; truncation keeps singular values above
    ``reg.threshold * sigma_max`` with the cut refined to the largest
    relative gap when values straddle the threshold.

    D K D is applied implicitly by block Krylov iteration: a seeded
    Gaussian block of ``SKETCH_BLOCK`` columns is orthonormalized, D K D is
    applied to it once, and that image, orthogonalized against the basis by
    projecting, QR, projecting and QR again, is the next block.  The basis
    and its image D K D Q are kept.  From the sixth block on (and whenever
    the basis spans the n+1 grid nodes), Rayleigh-Ritz on the whole basis
    gives its Ritz values, and the basis stops growing once at least half of
    them fall below the bottom of the tie-break band,
    ``threshold / 10 * sigma_max``, so the cut and its gap lie inside it.
    ``singular_values`` then holds the basis' Ritz values, largest first,
    and the Ritz vectors' images are kept next to them for ``solve``.  A
    basis that spans the grid is returned at once, whatever the rank: its
    Ritz pairs are exact.  When twice the number of Ritz values at or above
    the floor, rounded up to ``CAP_BLOCK``, 2 ``CAP_BLOCK``, ..., passes the
    rank cap, the rank is near n, and ``RankError`` names the basis width,
    how many of its Ritz values fell below the floor, and the grid size; on
    grids under 16 steps none is refused.
    """

    def __init__(self, connector: DiscretizedConnector, reg: Regularization | None = None):
        self.connector = connector
        self.reg = reg or Regularization()
        self._sqrt_w = np.sqrt(connector.quad_weights)
        vals, vecs, images = self._ritz_pairs()
        order = np.argsort(np.abs(vals))[::-1]
        self.singular_values = np.abs(vals)[order]
        self._vals = vals[order]
        self._vecs = vecs[:, order]
        self._images = images[:, order]
        self.rank = _rank_by_threshold(self.singular_values, self.reg.threshold)
        self.last_image: np.ndarray | None = None

    def _apply_weighted(self, block: np.ndarray) -> np.ndarray:
        """D K D applied to the columns of ``block``."""
        sqrt_w = self._sqrt_w[:, None]
        return sqrt_w * self.connector._kernel_product(sqrt_w * block)

    def _ritz_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ritz values, Ritz vectors and the vectors' images under D K D.

        The basis, its image and the projection basis.T @ image grow in
        place, in storage that doubles when it is full; each pass projects
        only its new block, and the stop test needs only the Ritz values."""
        size = len(self._sqrt_w)
        floor = self.reg.threshold / 10.0
        cap = max(int(MAX_BASIS_FRACTION * size), CAP_BLOCK)
        block = np.random.default_rng(SKETCH_SEED).standard_normal((size, SKETCH_BLOCK))
        basis = image = np.empty((size, 0))
        projected = np.empty((0, 0))
        width = 0
        while True:
            start, width = width, width + block.shape[1]
            if width > basis.shape[1]:
                room = min(2 * width, size)
                basis, image = _with_room(basis, size, room), _with_room(image, size, room)
                projected = _with_room(projected[:start, :start], room, room)
            basis[:, start:width] = self._orthonormalize(block, basis[:, :start] if start else None)
            image[:, start:width] = self._apply_weighted(basis[:, start:width])
            projected[start:width, :width] = basis[:, start:width].T @ image[:, :width]
            projected[:start, start:width] = projected[start:width, :start].T
            if width >= 6 * SKETCH_BLOCK or width == size:
                magnitude = np.abs(np.linalg.eigvalsh(projected[:width, :width]))
                top = magnitude.max()
                below = np.count_nonzero(magnitude < floor * top)
                if top == 0.0 or below >= width // 2 or width == size:
                    ritz, coords = np.linalg.eigh(projected[:width, :width])
                    return ritz, basis[:, :width] @ coords, image[:, :width] @ coords
                scheduled = CAP_BLOCK
                while scheduled < min(2 * (width - below), size):
                    scheduled *= 2
                if scheduled > cap:
                    raise RankError(
                        f"connector rank is near the grid size: {below} of the {width} Ritz "
                        f"values of the sketch basis fall below threshold/10 * sigma_max "
                        f"= {floor * top:.3e}, fewer than half, and {scheduled} columns "
                        f"would pass the rank cap of {cap} on the {size - 1}-step grid; "
                        f"raise --threshold above the noise floor, or --steps if the grid "
                        f"has too few steps per mass"
                    )
            block = image[:, start:width][:, : size - width]

    @staticmethod
    def _orthonormalize(block: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
        """Orthonormal columns spanning ``block`` with ``basis`` projected out.

        Twice, in the order project then QR: a projected block whose columns
        lie near span(basis) is numerically rank-deficient, and Householder QR
        fills its deficient columns with directions that need not be
        orthogonal to ``basis``; only a second projection of the normalized
        columns removes those.
        """
        if basis is None:
            return np.linalg.qr(block)[0]
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
            block = np.linalg.qr(block)[0]
        return block

    def solve(self, rhs_values: np.ndarray) -> tuple[np.ndarray, float]:
        """Minimum-norm truncated solution of (C f) = rhs; returns
        (solution values, relative weighted residual).  The residual is
        measured against the full (untruncated) operator: f lies in the
        basis span, so C f is read from the kept images, and is kept as
        ``last_image`` for the caller."""
        if self.rank == 0:
            raise RankError("connector has numerical rank 0")
        weighted_rhs = self._sqrt_w * rhs_values
        basis = self._vecs[:, : self.rank]
        coeffs = (basis.T @ weighted_rhs) / self._vals[: self.rank]
        solution = (basis @ coeffs) / self._sqrt_w
        applied = self._images[:, : self.rank] @ coeffs
        self.last_image = applied / self._sqrt_w
        rhs_norm = float(np.linalg.norm(weighted_rhs))
        residual = float(np.linalg.norm(applied - weighted_rhs)) / max(rhs_norm, 1e-300)
        return solution, residual


def _with_room(array: np.ndarray, rows: int, columns: int) -> np.ndarray:
    """``array`` copied into the leading corner of new column-major storage
    of shape (rows, columns)."""
    grown = np.empty((rows, columns), order="F")
    grown[: array.shape[0], : array.shape[1]] = array
    return grown


def _rank_by_threshold(singular_values: np.ndarray, threshold: float) -> int:
    if len(singular_values) == 0 or singular_values[0] == 0.0:
        return 0
    rel = singular_values / singular_values[0]
    count = int(np.sum(rel >= threshold))
    # tie-break: values within a decade of the threshold move the cut to the
    # largest relative gap inside that band
    band = (rel >= threshold / 10.0) & (rel <= threshold * 10.0)
    idx = np.nonzero(band)[0]
    if len(idx) == 0:
        return count
    lo = max(int(idx[0]) - 1, 0)
    hi = min(int(idx[-1]) + 1, len(rel) - 1)
    if hi == lo:
        return count
    ratios = rel[lo:hi] / np.maximum(rel[lo + 1 : hi + 1], 1e-300)
    return lo + int(np.argmax(ratios)) + 1


def _second_diff(values: np.ndarray, dt: float) -> np.ndarray:
    """Second differences, one-sided second-order stencils at the ends; they
    read four nodes at each end."""
    out = np.empty_like(values)
    out[1:-1] = values[2:] - 2.0 * values[1:-1] + values[:-2]
    out[0] = 2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]
    out[-1] = 2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]
    return out / dt**2


@dataclass(frozen=True)
class RecoveryDiagnostics:
    """The factorization's Ritz values (largest first) and rank, each step's
    relative residual, and ``endpoint_gap``: -||f_1||^2 / (f_1'(T) l_1) - 1,
    which vanishes for the exact f_1 at any l_1, so it measures the
    discretization error of f_1 at t = T (NaN if f_1'(T) = 0)."""

    singular_values: np.ndarray
    rank: int
    residuals: np.ndarray
    endpoint_gap: float


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered string parameters plus the special-state controls."""

    recovered_masses: np.ndarray
    recovered_b: np.ndarray
    recovered_a: np.ndarray
    recovered_lengths: np.ndarray
    controls: tuple[Waveform, ...]
    diagnostics: RecoveryDiagnostics


def recover_string(
    r: Waveform,
    l1: float,
    grid: TimeGrid,
    reg: Regularization | None = None,
) -> RecoveryResult:
    """Full reconstruction from the response on [0, 2T].

    The mass count is read off the connector's numerical rank; the loop
    then alternates Krein solves with the parameter recursion.  The response
    fixes the string only up to the scaling (c l, m / c), so the first
    segment length is an input that picks c: recovery at c l_1 returns the
    c-scaled string.
    """
    if grid.n_steps < 3:
        raise GridError(
            f"recovery needs at least 4 control-grid nodes for the curvature "
            f"stencil (steps >= 3), got {grid.n_steps + 1}"
        )
    connector = build_connector(r, l1, grid)
    fact = ConnectorFactorization(connector, reg)
    n_detected = fact.rank
    if n_detected == 0:
        raise RankError("connector has numerical rank 0: response carries no string")

    n = grid.n_steps
    q = r.grid.n_steps // (2 * n)
    rhs = r.values[(n - np.arange(n + 1)) * q]  # r(T - t) on the control grid

    masses: list[float] = []
    b_entries: list[float] = []
    a_entries: list[float] = []
    controls: list[Waveform] = []
    residuals: list[float] = []

    image = np.zeros(n + 1)  # C f_0 = 0: no predecessor term at step 1
    a_param = 1.0 / l1

    for k in range(1, n_detected + 1):
        f_values, residual = fact.solve(rhs)
        if residual > MAX_RESIDUAL:
            raise RecoveryError(
                f"step {k}: Krein solve residual {residual:.3e} exceeds {MAX_RESIDUAL:.1e}",
                step=k,
            )
        image_prev, image = image, fact.last_image
        controls.append(Waveform(grid=grid, values=f_values))
        residuals.append(residual)
        gram = connector.weighted_inner(image, f_values)
        if gram <= 0.0:
            raise RecoveryError(
                f"step {k}: (C f_k, f_k) = {gram:.3e} would give a negative mass",
                step=k,
            )
        m_k = 1.0 / gram
        curvature = _second_diff(image, grid.dt)
        b_k = m_k**2 * connector.weighted_inner(curvature, f_values)
        a_k = -b_k - a_param
        if abs(a_k) < A_DIVISION_GUARD:
            raise RecoveryError(
                f"step {k}: recovered a_{k} = {a_k:.3e} below division guard", step=k
            )
        masses.append(m_k)
        b_entries.append(b_k)
        a_entries.append(a_k)
        rhs = (m_k * curvature - a_param * image_prev - b_k * image) / a_k
        a_param = a_k

    lengths = np.concatenate(([l1], 1.0 / np.array(a_entries)))
    f1 = controls[0].values
    deriv_end = (3.0 * f1[-1] - 4.0 * f1[-2] + f1[-3]) / (2.0 * grid.dt)
    norm_sq = connector.weighted_inner(f1, f1)
    endpoint_gap = -norm_sq / (deriv_end * l1) - 1.0 if deriv_end != 0.0 else np.nan

    diagnostics = RecoveryDiagnostics(
        singular_values=fact.singular_values,
        rank=n_detected,
        residuals=np.array(residuals),
        endpoint_gap=float(endpoint_gap),
    )
    return RecoveryResult(
        recovered_masses=np.array(masses),
        recovered_b=np.array(b_entries),
        recovered_a=np.array(a_entries),
        recovered_lengths=lengths,
        controls=tuple(controls),
        diagnostics=diagnostics,
    )
