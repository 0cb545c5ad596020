"""East model simulation and verification laboratory."""

__version__ = "0.1.0"

from .lattice import (  # noqa: F401
    BlockedMeasureError,
    Configuration,
    Delta,
    Exterior,
    MeasureSpec,
    ModelParams,
    ProductBernoulli,
    Region,
    Site,
    Window,
    build_lambda_region,
    condition_C_params,
    east_constraint,
    initial_rows,
    sample_initial,
    spin_at_site,
)
from .sim import BatchLog, EventLog, RingRecord, simulate, simulate_batch  # noqa: F401
from .exact import (  # noqa: F401
    Generator,
    SpectrumResult,
    build_generator,
    east1d_gap,
    evolve_expectation,
    mu_expectation,
    spectral_gap,
)
from .estimators import (  # noqa: F401
    DecaySeries,
    FitResult,
    Observable,
    estimate_persistence,
    estimate_relaxation,
    fit_exponential,
    occupation_statistics,
    replica_batches,
)
from .theory import (  # noqa: F401
    ConstantsReport,
    GeometrySet,
    PathCheck,
    certify_paths,
    compute_constants,
    fk_cascade_probe,
    hyperplane_hit_profile,
    oriented_path_check,
)
