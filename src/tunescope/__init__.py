"""tunescope: black-box characterization of tuning landscapes.

Probe any stimulus -> response function with constrained stochastic
search: find optimal stimuli on the energy sphere, trace invariance and
selectivity paths at fixed angular distances, and summarize the
landscape with a set of normalized representation measures.
"""

__version__ = "0.1.0"
