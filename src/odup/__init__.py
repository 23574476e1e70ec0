"""Communication-efficient on-device model updates for session-based
recommenders: compositional-code embedding compression, stack/queue partial
updates with a shared slot ledger, MMD-adaptive update sizing, and a
bit-exact delta wire format.
"""

import os

# One BLAS thread, set before numpy loads: a product's bits depend on the
# BLAS thread count, and the recommender's own helper thread is then the
# only parallelism. A caller that set one of these, or imported numpy
# first, keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
