"""Phase-type distributions of Markov chain models.

The package computes multi-exponential survival functions of
continuous-time Markov chains with one observed state (the direct
problem) and recovers transition rates from survival parameters (the
inverse problem), including enumeration of the distinct models that
explain the same data equally well.
"""

__version__ = "0.1.0"

from .direct import (
    PhaseTypeParams,
    Spectrum,
    SymmetricMoments,
    density,
    mean_time,
    moments,
    moments_from_generator,
    params_from_moments,
    phase_type_params,
    spectrum,
    survival,
)
from .errors import (
    DegenerateSpectrum,
    DomainViolation,
    GenericBranchMiss,
    InvalidDensity,
    M3HypersurfaceMiss,
    NegativeDiscriminant,
    NoBranchMatches,
    NoSolution,
    NonErgodic,
    PhasekitError,
    SingularSteadyState,
    WrongArity,
    ZeroPivot,
)
from .inverse import (
    InverseSolution,
    invert,
    invert_generic,
    invert_thomas,
    invert_unbranched,
    roundtrip_residual,
)
from .models import (
    Generator,
    ModelId,
    SOLVABLE_N3,
    ValidationReport,
    arc_list,
    build_generator,
    model_from_string,
    unbranched_chain,
    validate,
)
from .rashomon import (
    ExperimentConfig,
    ExperimentReport,
    Markers,
    VariantReport,
    discrimination_experiment,
    enumerate_variants,
    map_m4_to_m9,
    map_m8_to_m9,
    map_m9_to_m4,
    map_m9_to_m8,
    markers,
    sigma_m9,
)
from .simple_systems import (
    ModelSystems,
    SimpleSystem,
    load_systems,
    match_systems,
    solve_for_moments,
)
from .stochastic import (
    EventTrace,
    FitConfig,
    FitResult,
    empirical_survival,
    fit_multiexp,
    ks_statistic,
    read_trace_csv,
    simulate_events,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
