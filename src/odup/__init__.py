"""Communication-efficient on-device model updates for session-based
recommenders: compositional-code embedding compression, stack/queue partial
updates with a shared slot ledger, MMD-adaptive update sizing, and a
bit-exact delta wire format.
"""

import ctypes
import os

# One BLAS thread, set before numpy loads: a product's bits depend on the
# BLAS thread count, and the program runs on one thread. A caller that set
# one of these, or imported numpy first, keeps its own setting.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var


def _keep_heap_top():
    """Let glibc keep 64 MiB of freed memory at the top of the heap
    (mallopt's M_TOP_PAD, -2). Training allocates and frees MiB-sized
    temporaries every batch; trimmed, their pages fault back in on the next
    one. Does nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-2, 64 << 20)


_keep_heap_top()

__version__ = "0.1.0"
