"""Low-level utilities shared across the repro packages.

The submodules are deliberately tiny and dependency-free so that every other
layer (memory substrate, predictor core, harness) can build on them without
import cycles.
"""

from repro.util.bitmaps import (
    bitmap_from_nodes,
    bitmap_mask,
    format_bitmap,
    iter_set_bits,
    popcount,
)
from repro.util.rng import DeterministicRng

__all__ = [
    "bitmap_from_nodes",
    "bitmap_mask",
    "format_bitmap",
    "iter_set_bits",
    "popcount",
    "DeterministicRng",
]
