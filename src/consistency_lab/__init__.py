"""Distinguishability bounds, partition tests, and discernible test schedules."""

__version__ = "0.1.0"

# No computation calls ``quadrature``; it is loaded with the package because the
# benchmark's traced run (bench/tracing.py) looks up ``quadrature.integrate``.
from . import quadrature
from .distances import (
    HullDistanceResult,
    density_total_variation,
    hull_variation,
    kraft_bound,
    ks_distance,
    total_variation,
)
from .errors import (
    ConstructionError,
    DegenerateScenarioError,
    NumericError,
    ResourceLimitError,
    ValidationError,
)
from .measures import (
    DensitySpec,
    FiniteMeasure,
    GaussianSequenceModel,
    Partition,
    PoissonModel,
    discretize,
    mixture,
    normalize,
)
from .partition_tests import (
    FrequencyTest,
    LinearFunctionalTest,
    PoissonTwoStageTest,
    UnionTest,
    exact_error,
    exact_errors,
    separation,
)
from .scheduler import (
    TestFamilyMember,
    TestSchedule,
    block_lengths,
    interleave,
)
from .simulation import (
    RngSpec,
    SimulationReport,
    discernibility_paths,
    estimate_error,
    poisson_atom_tail_bound,
    wilson_interval,
)
from .scenarios import (
    Scenario,
    build_nested_family,
    nested_schedule,
    run_scenario,
    scenario_from_dict,
    scenario_kolmogorov_family,
    scenario_mazur_mixture,
    scenario_nested_alternatives,
    scenario_poisson,
    scenario_signal_detection,
    scenario_sine_indistinguishable,
)
