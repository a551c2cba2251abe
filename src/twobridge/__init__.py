"""Trace identities, cusp shapes and end invariants of hyperbolic
2-bridge links, driven by Markoff maps on the Farey tessellation."""

__version__ = "0.1.0"

from .slopes import (  # noqa: F401
    Slope,
    INFINITY,
    continued_fraction,
    farey_chain,
    fundamental_intervals,
    is_hyperbolic,
    num_components,
)
