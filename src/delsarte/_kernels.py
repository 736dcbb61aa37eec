"""Kernel selection: compiled extension when available, else pure Python.

Set DELSARTE_PURE=1 to force the fallback.
"""

import os

from . import _speedups_py

try:
    from . import _speedups as _compiled
except ImportError:  # extension not built
    _compiled = None

if _compiled is None or os.environ.get("DELSARTE_PURE"):
    _active = _speedups_py
else:
    _active = _compiled

HAVE_COMPILED = _compiled is not None

one_interior_polygons = _active.one_interior_polygons


def implementation() -> str:
    """Name of the kernel implementation in use ('c' or 'python')."""
    return _active.implementation()
