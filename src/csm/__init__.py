"""Discrete score estimation over neighborhood graphs.

Learn the relative-difference score of a discrete distribution from
samples, sample from it with Metropolis-Hastings or Langevin dynamics,
and denoise tent-perturbed data in closed form.
"""

__version__ = "0.1.0"

from .graphs import DiscreteSpace, NeighborhoodStructure, build_reverse_index, build_structure, is_weakly_connected
from .exact import TabularDistribution, kl_and_tv, reconstruct_density

__all__ = [
    "DiscreteSpace",
    "NeighborhoodStructure",
    "TabularDistribution",
    "build_reverse_index",
    "build_structure",
    "is_weakly_connected",
    "kl_and_tv",
    "reconstruct_density",
]
