import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krein_string import SpecError, StringSpec, build_matrices
from krein_string.model import parse_spec_text

from conftest import random_spec
from reference import format_spec, positions

positive = st.floats(min_value=0.1, max_value=2.0, allow_nan=False)


@st.composite
def specs(draw, max_masses=9):
    n = draw(st.integers(min_value=2, max_value=max_masses + 1))
    lengths = draw(st.lists(positive, min_size=n, max_size=n))
    masses = draw(st.lists(positive, min_size=n - 1, max_size=n - 1))
    return StringSpec(lengths, masses)


def test_validate_minimal_single_mass():
    spec = parse_spec_text("lengths=0.5,0.5\nmasses=1.0\n")
    assert spec.n_masses == 1
    assert spec.n_segments == 2


def test_validate_rejects_negative_length():
    with pytest.raises(SpecError, match="non-positive length"):
        StringSpec([0.5, -0.5], [1.0])


def test_validate_rejects_count_mismatch():
    with pytest.raises(SpecError, match="count mismatch"):
        StringSpec([0.25, 0.25, 0.25, 0.25], [0.3, 0.5])


def test_build_matrices_single_mass():
    mats = build_matrices(StringSpec([0.5, 0.5], [1.0]))
    assert np.array_equal(mats.stiffness, [[-4.0]])
    assert np.array_equal(np.diag(mats.masses), [[1.0]])


def test_build_matrices_uniform_three():
    # three equal segments on (0,1): A = 3 * [[-2, 1], [1, -2]], M = I/3
    mats = build_matrices(StringSpec([1 / 3] * 3, [1 / 3] * 2))
    assert np.allclose(mats.stiffness, 3.0 * np.array([[-2.0, 1.0], [1.0, -2.0]]))
    assert np.allclose(np.diag(mats.masses), np.eye(2) / 3.0)


def test_build_matrices_mixed_lengths():
    # frozen from exact rational arithmetic: a_1 = 10/3, b_1 = -25/3, b_2 = -16/3
    mats = build_matrices(StringSpec([0.2, 0.3, 0.5], [1.0, 2.0]))
    assert mats.off_diag == pytest.approx([10.0 / 3.0], rel=1e-15)
    assert mats.diag == pytest.approx([-25.0 / 3.0, -16.0 / 3.0], rel=1e-15)
    assert mats.couplings == pytest.approx([5.0, 10.0 / 3.0, 2.0], rel=1e-15)


def test_positions_prefix_sums():
    assert np.allclose(positions(StringSpec([0.5, 0.5], [1.0])), [0.0, 0.5, 1.0])
    assert np.allclose(
        positions(StringSpec([0.25] * 4, [0.25] * 3)), [0.0, 0.25, 0.5, 0.75, 1.0]
    )
    assert np.allclose(positions(StringSpec([0.2, 0.3, 0.5], [1.0, 2.0])), [0.0, 0.2, 0.5, 1.0])


@given(specs())
@settings(max_examples=60, deadline=None)
def test_matrix_entry_relations(spec):
    # -b_i = 1/l_i + 1/l_{i+1}; off-diagonals positive, diagonal negative
    mats = build_matrices(spec)
    assert np.all(mats.diag < 0.0)
    assert np.all(mats.off_diag > 0.0)
    assert np.allclose(-mats.diag, 1.0 / spec.lengths[:-1] + 1.0 / spec.lengths[1:], rtol=1e-13)


@given(specs())
@settings(max_examples=40, deadline=None)
def test_stiffness_negative_definite(spec):
    eigenvalues = np.linalg.eigvalsh(build_matrices(spec).stiffness)
    assert np.max(eigenvalues) < 0.0


@given(specs())
@settings(max_examples=40, deadline=None)
def test_positions_increasing(spec):
    xs = positions(spec)
    assert np.all(np.diff(xs) > 0.0)
    assert xs[-1] == pytest.approx(spec.total_length)


def test_parse_spec_text():
    spec = parse_spec_text(
        """
        # a comment
        lengths=0.25,0.25,0.25,0.25
        masses=0.3,0.5,0.2  # trailing comment
        """
    )
    assert spec.n_masses == 3
    assert np.allclose(spec.masses, [0.3, 0.5, 0.2])


@pytest.mark.parametrize(
    "text, message",
    [
        ("lengths=0.5,0.5\nmasses=1.0\nlengths=0.1,0.9\n", "duplicate key"),
        ("lengths=0.5,0.5\n", "missing keys"),
        ("spam=1\n", "unknown key"),
        ("lengths 0.5\n", "expected key=value"),
        ("lengths=0.5,abc\nmasses=1.0\n", "bad number"),
    ],
)
def test_parse_spec_errors(text, message):
    with pytest.raises(SpecError, match=message):
        parse_spec_text(text)


def test_spec_file_round_trip(rng):
    spec = random_spec(rng, 5)
    again = parse_spec_text(format_spec(spec))
    assert np.array_equal(again.lengths, spec.lengths)
    assert np.array_equal(again.masses, spec.masses)
