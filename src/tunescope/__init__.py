"""tunescope: black-box characterization of tuning landscapes.

Probe any stimulus -> response function with constrained stochastic
search: find optimal stimuli on the energy sphere, trace invariance and
selectivity paths at fixed angular distances, and summarize the
landscape with a set of normalized representation measures.
"""

from .measures import MeasureReport
from .search import (
    SearchConfig,
    invariance_path,
    optimal_stimulus,
    selectivity_path,
)
from .stimulus import (
    Stimulus,
    StimulusSet,
    angular_distance,
    project_sphere,
    random_orthogonal_unit,
    sample_pink_noise,
)
from .targets import (
    HyperRanges,
    TargetHandle,
    default_l1_spec,
    default_l2_spec,
    linear_neuron,
    quadratic_neuron,
    sample_network_population,
    unit_view,
)

__version__ = "0.1.0"

__all__ = [
    "Stimulus",
    "StimulusSet",
    "project_sphere",
    "sample_pink_noise",
    "random_orthogonal_unit",
    "angular_distance",
    "TargetHandle",
    "HyperRanges",
    "linear_neuron",
    "quadratic_neuron",
    "unit_view",
    "default_l1_spec",
    "default_l2_spec",
    "sample_network_population",
    "SearchConfig",
    "optimal_stimulus",
    "invariance_path",
    "selectivity_path",
    "MeasureReport",
    "__version__",
]
