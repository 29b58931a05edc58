"""String specifications and the matrices of the equivalent ODE system.

A finite point-mass string on (0, l) is described by N segment lengths
l_1..l_N and N-1 interior masses m_1..m_{N-1} sitting at the segment
joints.  Displacements of the masses obey

    M u_tt = -A u + (f(t)/l_1, 0, ..., 0)

with M = diag(m_i) and A the symmetric tridiagonal matrix with
off-diagonal entries a_i = 1/l_{i+1} and diagonal entries
b_i = -(l_i + l_{i+1})/(l_i l_{i+1}).  A is negative definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError

# Values below this would make the stiffness entries blow up / go singular.
MIN_POSITIVE = 1e-12


def _as_readonly(values) -> np.ndarray:
    """``values`` as a read-only float64 array: kept as it is if it already
    is one and owns its data (no other array can write to it), copied
    otherwise."""
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StringSpec:
    """Validated string: segment lengths and interior point masses.

    ``lengths`` has ``n_masses + 1`` entries; every value is strictly
    positive (at least ``MIN_POSITIVE``).  Instances are immutable.
    """

    lengths: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lengths", _as_readonly(self.lengths))
        object.__setattr__(self, "masses", _as_readonly(self.masses))
        if self.lengths.ndim != 1 or self.masses.ndim != 1:
            raise SpecError("lengths and masses must be flat sequences")
        if len(self.lengths) < 2:
            raise SpecError("need at least two segments (one interior mass)")
        if len(self.masses) != len(self.lengths) - 1:
            raise SpecError(
                f"count mismatch: {len(self.lengths)} lengths need "
                f"{len(self.lengths) - 1} masses, got {len(self.masses)}"
            )
        if not np.all(np.isfinite(self.lengths)) or not np.all(np.isfinite(self.masses)):
            raise SpecError("lengths and masses must be finite")
        if np.any(self.lengths < MIN_POSITIVE):
            raise SpecError("non-positive length (values below 1e-12 rejected)")
        if np.any(self.masses < MIN_POSITIVE):
            raise SpecError("non-positive mass (values below 1e-12 rejected)")

    @property
    def n_masses(self) -> int:
        return len(self.masses)

    @property
    def n_segments(self) -> int:
        return len(self.lengths)

    @property
    def total_length(self) -> float:
        return float(np.sum(self.lengths))


@dataclass(frozen=True)
class SystemMatrices:
    """Stiffness/mass pair of the string's ODE system.

    ``couplings`` holds the full sequence a_0..a_{N-1} = 1/l_1..1/l_N; the
    stiffness matrix of order N-1 uses a_1..a_{N-2} off-diagonal, and the
    two edge values enter the diagonal and close the polynomial recursion
    of :mod:`spectral`.
    """

    couplings: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "couplings", _as_readonly(self.couplings))
        object.__setattr__(self, "masses", _as_readonly(self.masses))

    @property
    def order(self) -> int:
        """Dimension of the inner (state) space, N-1."""
        return len(self.masses)

    @property
    def diag(self) -> np.ndarray:
        """Diagonal entries b_1..b_{N-1}, strictly negative."""
        return -(self.couplings[:-1] + self.couplings[1:])

    @property
    def off_diag(self) -> np.ndarray:
        """Off-diagonal entries a_1..a_{N-2} (empty for a single mass)."""
        return self.couplings[1:-1]

    @property
    def stiffness(self) -> np.ndarray:
        """Dense symmetric tridiagonal A (order N-1)."""
        n = self.order
        a = np.diag(self.diag)
        if n > 1:
            off = self.off_diag
            a += np.diag(off, 1) + np.diag(off, -1)
        return a


def build_matrices(spec: StringSpec) -> SystemMatrices:
    """Assemble the stiffness/mass pair from a validated spec."""
    return SystemMatrices(couplings=1.0 / spec.lengths, masses=spec.masses)


# ---------------------------------------------------------------------------
# Spec file format: one key per line, comma-separated reals, '#' comments.


def parse_spec_text(text: str) -> StringSpec:
    """Parse the flat key-value spec format.

    Example::

        lengths=0.25,0.25,0.25,0.25
        masses=0.3,0.5,0.2
    """
    record: dict[str, list[float]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("lengths", "masses"):
            raise SpecError(f"line {lineno}: unknown key {key!r}")
        if key in record:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        try:
            record[key] = [float(tok) for tok in value.split(",") if tok.strip()]
        except ValueError as exc:
            raise SpecError(f"line {lineno}: bad number in {value!r}") from exc
    missing = {"lengths", "masses"} - record.keys()
    if missing:
        raise SpecError(f"missing keys: {sorted(missing)}")
    return StringSpec(record["lengths"], record["masses"])


def read_spec_file(path) -> StringSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())
