"""East model simulation and verification laboratory."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    Configuration,
    Delta,
    Exterior,
    MeasureSpec,
    ModelParams,
    ProductBernoulli,
    Region,
    Site,
    Window,
    east_constraint,
    initial_rows,
)
from .sim import BatchLog, simulate, simulate_batch  # noqa: F401
from .estimators import (  # noqa: F401
    DecaySeries,
    FitResult,
    Observable,
    estimate_persistence,
    estimate_relaxation,
    fit_exponential,
    replica_batches,
)
from .theory import (  # noqa: F401
    ConstantsReport,
    PathCheck,
    certify_paths,
    compute_constants,
    fk_cascade_probe,
    oriented_path_check,
)

# The exact engine, and scipy with it, loads when one of its names is first read.
_EXACT_NAMES = frozenset({
    "Generator",
    "SpectrumResult",
    "build_generator",
    "east1d_gap",
    "evolve_expectation",
    "killed_operator",
    "spectral_gap",
})


def __getattr__(name: str):
    if name in _EXACT_NAMES:
        from . import exact

        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
