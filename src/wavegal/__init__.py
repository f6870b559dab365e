"""Interface-enriched biorthogonal wavelet Galerkin method in 1D.

Solves -(a u')' = f - g * delta_gamma on (0,1) with homogeneous
Dirichlet conditions, using an H1-rescaled spline wavelet basis on [0,1]
enriched near the interface point, and provides the verification and
convergence-measurement tooling around it.

The system, the problems and the diagnostics need only numpy.  The
solver names below (`_SOLVER_NAMES`) come from `wavegal.galerkin`, which
loads scipy; they are imported on first access, so `import wavegal`
alone loads no scipy module.
"""

from .piecewise import Interval, PiecewisePolynomial, inner_product
from .wavelets import (
    SystemFormatError,
    SystemVerificationError,
    VerificationReport,
    WaveletSystem,
    builtin_order2_system,
    full_verification,
    load_system,
    save_system,
)
from .basis import (
    BasisFunction,
    EnrichedBasis,
    enriched_basis,
    interface_set,
    truncated_basis,
)
from .analysis import (
    ConvergenceRecord,
    DecayProbe,
    ErrorPair,
    coefficient_decay_probe,
    convergence_orders,
    error_norms,
    evaluate_solution,
    tail_energy,
    write_records_csv,
)
from .expressions import Expression, ExpressionError, parse_expression
from .problems import (
    BUILTIN_PROBLEMS,
    ExactSolution,
    InterfaceProblem,
    builtin_problem,
    problem_from_spec,
)

__version__ = "0.1.0"

# the names of `wavegal.galerkin`, resolved on first access (PEP 562)
_SOLVER_NAMES = (
    "LinearSystem",
    "DiscreteSolution",
    "SolverError",
    "assemble",
    "assemble_load",
    "assemble_stiffness",
    "condition_number",
    "solve",
)


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import galerkin

    value = globals()[name] = getattr(galerkin, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOLVER_NAMES))
