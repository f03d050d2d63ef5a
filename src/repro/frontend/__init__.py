"""Branch-prediction frontend: BTB, RSB, PHT, µop cache, BPU."""

from .bpu import BPU, Prediction
from .btb import (BTB, BTBEntry, BTBIndexing, ZEN1_ALIAS_PATTERN,
                  ZEN1_TAG_FUNCTIONS, ZEN3_ALIAS_PATTERNS,
                  ZEN3_BTB_FUNCTIONS, ZEN3_SUPPLEMENTAL_FUNCTION,
                  ZEN3_TAG_FUNCTIONS)
from .cond import ConditionalPredictor
from .rsb import RSB
from .uopcache import UopCache

__all__ = [
    "BPU",
    "BTB",
    "BTBEntry",
    "BTBIndexing",
    "ConditionalPredictor",
    "Prediction",
    "RSB",
    "UopCache",
    "ZEN1_ALIAS_PATTERN",
    "ZEN1_TAG_FUNCTIONS",
    "ZEN3_ALIAS_PATTERNS",
    "ZEN3_BTB_FUNCTIONS",
    "ZEN3_SUPPLEMENTAL_FUNCTION",
    "ZEN3_TAG_FUNCTIONS",
]
