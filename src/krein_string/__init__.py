"""Forward and inverse dynamics of finite Krein-Stieltjes strings.

Point masses on an interval are driven by a Dirichlet boundary control;
the package solves the forward motion spectrally and by time stepping,
computes the boundary response function, reconstructs the string from
that response through the connecting operator and a Krein-type equation,
and reproduces the constant-density limit experiments of the uniform
point-mass approximation.
"""

from .errors import (
    GridError,
    KreinStringError,
    RankError,
    RecoveryError,
    SpecError,
    StabilityError,
    TruncationError,
)
from .model import (
    StringSpec,
    SystemMatrices,
    build_matrices,
    read_spec_file,
)
from .spectral import SpectralData, compute_spectral_data
from .forward import (
    TimeGrid,
    Trajectory,
    Waveform,
    mollified_delta,
    response_function,
    solve_forward_delta,
    solve_forward_ode,
    solve_forward_spectral,
)
from .inverse import (
    DiscretizedConnector,
    RecoveryResult,
    build_connector,
    recover_string,
)
from .uniform import (
    TestFunction,
    bessel_j,
    bessel_j_grid,
    bessel_j_ladder,
    delta_solution,
    pair_corrected_response,
    pair_response,
    pair_solution_with_sine,
    parse_test_function,
    uniform_eigen,
)

__version__ = "0.1.0"
