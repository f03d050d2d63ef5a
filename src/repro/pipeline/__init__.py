"""Pipeline: microarchitecture configs, PMCs, and the simulated CPU."""

from .config import (ALL_MICROARCHES, AMD_MICROARCHES, INTEL_11TH,
                     INTEL_12TH, INTEL_13TH, INTEL_9TH, INTEL_MICROARCHES,
                     Microarch, ZEN1, ZEN2, ZEN3, ZEN4, by_name)
from .cpu import CPU, EpisodeRecord, MSRState, Reach
from .pmc import EVENTS, PMC

__all__ = [
    "ALL_MICROARCHES",
    "AMD_MICROARCHES",
    "CPU",
    "EVENTS",
    "EpisodeRecord",
    "INTEL_11TH",
    "INTEL_12TH",
    "INTEL_13TH",
    "INTEL_9TH",
    "INTEL_MICROARCHES",
    "MSRState",
    "Microarch",
    "PMC",
    "Reach",
    "ZEN1",
    "ZEN2",
    "ZEN3",
    "ZEN4",
    "by_name",
]
