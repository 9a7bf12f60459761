from .config import GaussianPriorConfig, McmcOptions, PriorConfig
from .state import ChainSamples, GaussianSamplerState, PosteriorSamples, SamplerState
from .variants import fit

__all__ = [
    "GaussianPriorConfig",
    "McmcOptions",
    "PriorConfig",
    "ChainSamples",
    "GaussianSamplerState",
    "PosteriorSamples",
    "SamplerState",
    "fit",
]
