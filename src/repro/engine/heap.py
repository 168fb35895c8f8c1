"""Process heap policy of engine processes: reuse freed memory.

glibc's defaults ``mmap`` a prefill batch's large NumPy temporaries and
hand them back on free, so every batch faults the same pages in again.
Raising both thresholds keeps that memory in the heap.  Setting either one
alone also switches off glibc's dynamic threshold, which is slower than
the default.  See "Process heap" in ``docs/architecture.md``.
"""

from __future__ import annotations

import ctypes

#: glibc ``mallopt`` parameter numbers (``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: Blocks below this come from the heap: glibc's 64-bit maximum.
MMAP_THRESHOLD = 32 << 20
#: Free heap top kept before it is returned to the kernel.
TRIM_THRESHOLD = 64 << 20

_applied: bool | None = None  # the process's outcome once the policy ran


def _libc_mallopt():
    """glibc's ``mallopt``, or ``None`` where the C library has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_heap_warm() -> bool:
    """Set both thresholds once per process; True when they took.

    Does nothing without ``mallopt``; a refused mmap threshold leaves the
    trim threshold unset, so glibc's default policy stays whole.
    """
    global _applied
    if _applied is None:
        mallopt = _libc_mallopt()
        _applied = (
            mallopt is not None
            and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 0
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) != 0
        )
    return _applied
