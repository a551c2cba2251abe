"""Summation-kernel backend selection.

The compiled Cython kernel is preferred when built; set
``TWOBRIDGE_KERNEL=python`` to force the pure-Python fallback (used by the
parity tests and the benchmark).  Both expose ``explore`` with the same
contract and the module-level deferral kinds, except the scan-only census
cap (``CellOutcome.census_cap``), which only the pure-Python kernel reads;
``mcshane.census_scan`` enforces it after every call.
"""

import os

from . import _series_fallback as python_kernel

compiled_kernel = None
try:  # the extension is optional
    from . import _series_kernel as compiled_kernel  # type: ignore
except ImportError:
    compiled_kernel = None

DEFER_ENDPOINT = python_kernel.DEFER_ENDPOINT
DEFER_MEDIANT = python_kernel.DEFER_MEDIANT
DEFER_OVERFLOW = python_kernel.DEFER_OVERFLOW

CellOutcome = python_kernel.CellOutcome
h_func = python_kernel.h_func
PARABOLIC_TOL = python_kernel.PARABOLIC_TOL
CENSUS_TOL = python_kernel.CENSUS_TOL
ELLIPTIC_IM_TOL = python_kernel.ELLIPTIC_IM_TOL
ELLIPTIC_RE_MARGIN = python_kernel.ELLIPTIC_RE_MARGIN


def _select():
    forced = os.environ.get("TWOBRIDGE_KERNEL", "").strip().lower()
    if forced == "python":
        return python_kernel
    if forced == "compiled":
        if compiled_kernel is None:
            raise ImportError("compiled kernel requested but not built")
        return compiled_kernel
    return compiled_kernel if compiled_kernel is not None else python_kernel


active_kernel = _select()
BACKEND = active_kernel.BACKEND


def explore(*args, **kwargs):
    return active_kernel.explore(*args, **kwargs)


def get_kernel(name=None):
    """Explicit backend lookup, mainly for benchmarks and parity tests."""
    if name in (None, "active"):
        return active_kernel
    if name == "python":
        return python_kernel
    if name == "compiled":
        if compiled_kernel is None:
            raise ImportError("compiled kernel is not built")
        return compiled_kernel
    raise ValueError("unknown kernel %r" % (name,))
