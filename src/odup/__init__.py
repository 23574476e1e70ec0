"""Communication-efficient on-device model updates for session-based
recommenders: compositional-code embedding compression, stack/queue partial
updates with a shared slot ledger, MMD-adaptive update sizing, and a
bit-exact delta wire format.
"""

import os
import sys

# One BLAS thread, set before numpy loads: a product's bits depend on the
# BLAS thread count, and the helper thread that training and the table
# rebuild share (numkit.shared_helper) is then the only parallelism. A
# caller that set one of these, or imported numpy first, keeps its own
# setting; BLAS_ONE_THREAD records whether BLAS runs one thread all the
# same, since the helper only slows BLAS's own threads.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")
# a variable left unset reads as "1" once the defaults below are in, unless numpy loaded first
_unset = None if "numpy" in sys.modules else "1"
BLAS_ONE_THREAD = all(os.environ.get(var, _unset) == "1" for var in _BLAS_VARS)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var, _unset

__version__ = "0.1.0"
