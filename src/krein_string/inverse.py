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
2n+1 samples of P, applied matrix-free by FFT in O(n log n) per column.  Its
truncated eigendecomposition in the quadrature-weighted form comes from a
seeded randomized block Krylov range finder (Musco & Musco, NeurIPS 2015;
``ConnectorFactorization``) that applies the kernel once per basis column;
no (n+1)^2 array is formed.

The recursion runs in the coordinates of the kept Ritz vectors.  Every C f_k
lies in the range R = span{sin nu_k (T - t)}, and the grid's second
difference scales each sampled sine by -(4/h^2) sin^2(nu h/2); fit on the
Ritz vectors (ESPRIT's shift invariance: Roy & Kailath, IEEE Trans. ASSP 37,
1989), it gives the nu_k and the exact curvature -nu_k^2 on R.  The
trapezoid weighs each mode by kappa(nu) = (nu h_r/2) cot(nu h_r/2), which
the solve divides out (Trefethen & Weideman, SIAM Review 56, 2014).  Each
step is O(rank^2); only the controls f_k are formed on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, RankError, RecoveryError, SpecError
from .forward import TimeGrid, Waveform, _next_fast_len
from .model import _as_readonly

A_DIVISION_GUARD = 1e-10
# Default cut: singular values below DEFAULT_THRESHOLD * sigma_max are dropped.
DEFAULT_THRESHOLD = 1e-8
# Largest relative part of r(T - t) outside the connector's range (step 1's
# Krein solve residual) before recovery fails.
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


def _trapezoid_weights(n_steps: int, dt: float) -> np.ndarray:
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _cumulative_trapezoid(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), out=out[1:])
    return out


def _trapezoid_gain(nu: np.ndarray, step: float) -> np.ndarray:
    """kappa(nu) = (nu step / 2) cot(nu step / 2): on a grid of that step the
    trapezoid running integral of sin(nu t) or cos(nu t) is exactly kappa(nu)
    times the integral."""
    half = 0.5 * nu * step
    return half / np.tan(half)


def build_connector(r: Waveform, l1: float, grid: TimeGrid) -> DiscretizedConnector:
    """The connector of a response sampled on [0, 2T]: the antiderivative of
    r on the control step and the FFT spectra that apply the kernel; no
    (n+1)^2 matrix is formed.

    ``r`` must live on a grid spanning twice the control horizon whose step
    divides the control step.  The cumulative trapezoid scales each mode of
    r by kappa(nu) exactly (``_trapezoid_gain``), and recovery divides that
    factor out, so a finer response step is not what makes the integral
    exact.
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
    ``threshold * sigma_max`` with the cut refined to the largest
    relative gap when values straddle the threshold (``recover_string``
    checks that the threshold lies in (0, 1)).

    D K D is applied implicitly by block Krylov iteration: a seeded
    Gaussian block of ``SKETCH_BLOCK`` columns is orthonormalized, D K D is
    applied to it once, and that image, orthogonalized against the basis by
    projecting, QR, projecting and QR again, is the next block.  From the
    sixth block on (and whenever the basis spans the n+1 grid nodes),
    Rayleigh-Ritz on the whole basis gives its Ritz values, and the basis
    stops growing once at least half of them fall below the bottom of the
    tie-break band, ``threshold / 10 * sigma_max``, so the cut and its gap
    lie inside it.  ``singular_values`` holds the magnitudes of the Ritz
    values, largest first, and ``_vals`` and ``_vecs`` the signed values and
    their vectors; the basis' images are not kept.  A basis that spans the
    grid is returned at once, whatever the rank: its Ritz pairs are exact.
    When twice the number of Ritz values at or above the floor, rounded up
    to ``CAP_BLOCK``, 2 ``CAP_BLOCK``, ..., passes the rank cap, the rank is
    near n, and ``RankError`` names the basis width, how many of its Ritz
    values fell below the floor, and the grid size; on grids under 16 steps
    none is refused.
    """

    def __init__(self, connector: DiscretizedConnector, threshold: float = DEFAULT_THRESHOLD):
        self._sqrt_w = np.sqrt(connector.quad_weights)
        vals, vecs = self._ritz_pairs(connector, threshold)
        order = np.argsort(np.abs(vals))[::-1]
        self.singular_values = np.abs(vals)[order]
        self._vals = vals[order]
        self._vecs = vecs[:, order]
        self.rank = _rank_by_threshold(self.singular_values, threshold)

    def _ritz_pairs(
        self, connector: DiscretizedConnector, threshold: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ritz values and Ritz vectors of D K D.

        The basis, its image and the projection basis.T @ image grow in
        place, in storage that doubles when it is full; each pass projects
        only its new block, into the lower triangle, which is all that
        ``eigvalsh`` and ``eigh`` read.  The stop test needs only the Ritz
        values."""
        size = len(self._sqrt_w)
        sqrt_w = self._sqrt_w[:, None]
        floor = threshold / 10.0
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
            weighted = sqrt_w * basis[:, start:width]
            image[:, start:width] = sqrt_w * connector._kernel_product(weighted)
            projected[start:width, :width] = basis[:, start:width].T @ image[:, :width]
            if width >= 6 * SKETCH_BLOCK or width == size:
                magnitude = np.abs(np.linalg.eigvalsh(projected[:width, :width]))
                top = magnitude.max()
                below = np.count_nonzero(magnitude < floor * top)
                if top == 0.0 or below >= width // 2 or width == size:
                    ritz, coords = np.linalg.eigh(projected[:width, :width])
                    return ritz, basis[:, :width] @ coords
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


def _range_model(basis: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies nu_k and modes Q of span(basis), sampled at step h, with
    B q_k a multiple of sin nu_k (T - t).  The interior second difference
    scales a sampled sine by mu = -(4/h^2) sin^2(nu h/2); M = Q diag(mu) Q^-1
    is fit to B's interior rows by the normal equations, and a mu off the
    real line or outside (-4/h^2, 0) fits no sine: ``RecoveryError``."""
    inner = basis[1:-1]
    second_diff = (basis[2:] - 2.0 * inner + basis[:-2]) / h**2
    mu, modes = np.linalg.eig(np.linalg.solve(inner.T @ inner, inner.T @ second_diff))
    bound = 4.0 / h**2
    split = np.sqrt(np.finfo(float).eps) * bound  # how far rounding moves a close pair
    outside = (np.abs(mu.imag) > split) | (mu.real <= -bound) | (mu.real >= 0.0)
    if np.any(outside):
        raise RecoveryError(
            f"the connector's range is not sampled sines: second-difference eigenvalue "
            f"{mu[outside][0]:.6g} lies outside (-4/h^2, 0) = ({-bound:.6g}, 0)"
        )
    return (2.0 / h) * np.arcsin(np.sqrt(-mu.real / bound)), modes


@dataclass(frozen=True)
class RecoveryDiagnostics:
    """The factorization's Ritz values (largest first; the rank is the
    recovered mass count), the relative part of r(T - t) outside the range
    (step 1's Krein solve residual; later steps stay in the range), and
    ``endpoint_gap``: -||f_1||^2 / (f_1'(T) l_1) - 1, zero for the exact f_1
    at any l_1, so it measures how far the range model is from sampled sines
    (NaN if f_1'(T) = 0)."""

    singular_values: np.ndarray
    residual: float
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
    threshold: float = DEFAULT_THRESHOLD,
) -> RecoveryResult:
    """Full reconstruction from the response on [0, 2T].

    The mass count is read off the connector's numerical rank: singular
    values below ``threshold * sigma_max`` are cut, with ``threshold`` in
    (0, 1).  Each step holds C f_k = B d by its coordinates d in
    B = V / sqrt(w), V the kept Ritz vectors.  The response fixes the string
    only up to the scaling (c l, m / c), so the first segment length is an
    input that picks c: recovery at c l_1 returns the c-scaled string.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold!r}")
    fact = ConnectorFactorization(build_connector(r, l1, grid), threshold)
    rank = fact.rank
    if rank == 0:
        raise RankError("connector has numerical rank 0: response carries no string")
    n, h = grid.n_steps, grid.dt
    if n - 1 <= rank:
        raise GridError(
            f"recovery of rank {rank} needs more than {rank + 1} steps, got {n} "
            f"({n / rank:.3g} per mass): the range model is fit on the n - 1 interior nodes"
        )

    sigma, vecs, sqrt_w = fact._vals[:rank], fact._vecs[:, :rank], fact._sqrt_w
    basis = vecs / sqrt_w[:, None]  # B: orthonormal in the trapezoid inner product
    nu, modes = _range_model(basis, h)
    inv_modes = np.linalg.inv(modes)
    curvature = ((modes * -(nu**2)) @ inv_modes).real  # F: d^2/dt^2 on the range
    trapezoid = ((modes * _trapezoid_gain(nu, r.grid.dt)) @ inv_modes).real  # G

    q = r.grid.n_steps // (2 * n)
    weighted_rhs = sqrt_w * r.values[(n - np.arange(n + 1)) * q]  # r(T - t) on the control grid
    coords = vecs.T @ weighted_rhs
    rhs_norm = max(float(np.linalg.norm(weighted_rhs)), 1e-300)
    residual = float(np.linalg.norm(weighted_rhs - vecs @ coords)) / rhs_norm
    if residual > MAX_RESIDUAL:
        raise RecoveryError(
            f"step 1: Krein solve residual {residual:.3e} exceeds {MAX_RESIDUAL:.1e}", step=1
        )

    entries: list[tuple[float, float, float]] = []  # (m_k, b_k, a_k)
    coefficients: list[np.ndarray] = []
    coords_prev = np.zeros(rank)  # C f_0 = 0: no predecessor term at step 1
    a_param = 1.0 / l1

    for k in range(1, rank + 1):
        coeffs = (trapezoid @ coords) / sigma
        coefficients.append(coeffs)
        gram = float(coords @ coeffs)
        if gram <= 0.0:
            raise RecoveryError(f"step {k}: (C f_k, f_k) = {gram:.3e} is not positive", step=k)
        m_k = 1.0 / gram
        curved = curvature @ coords
        b_k = m_k**2 * float(curved @ coeffs)
        a_k = -b_k - a_param
        if a_k < A_DIVISION_GUARD:
            raise RecoveryError(
                f"step {k}: recovered a_{k} = {a_k:.3e} below the division guard: "
                f"l_{k + 1} = 1/a_{k} must be a positive length",
                step=k,
            )
        entries.append((m_k, b_k, a_k))
        coords_prev, coords = coords, (m_k * curved - a_param * coords_prev - b_k * coords) / a_k
        a_param = a_k

    masses, b_entries, a_entries = (np.array(column) for column in zip(*entries))
    lengths = np.concatenate(([l1], 1.0 / a_entries))
    # f_1 = B c_f lies in the range, and its mode B q_k is alpha_k sin nu_k (T - t),
    # so alpha_k is read off the row of t = T - h: f_1'(T) = -sum (Q^-1 c_f)_k nu_k alpha_k
    f1 = coefficients[0]
    alpha = (basis[n - 1] @ modes) / np.sin(nu * h)
    deriv_end = -float(np.sum((inv_modes @ f1) * nu * alpha).real)
    endpoint_gap = -float(f1 @ f1) / (deriv_end * l1) - 1.0 if deriv_end != 0.0 else np.nan
    return RecoveryResult(
        recovered_masses=masses,
        recovered_b=b_entries,
        recovered_a=a_entries,
        recovered_lengths=lengths,
        controls=tuple(Waveform(grid=grid, values=f) for f in np.array(coefficients) @ basis.T),
        diagnostics=RecoveryDiagnostics(
            singular_values=fact.singular_values,
            residual=residual,
            endpoint_gap=float(endpoint_gap),
        ),
    )
