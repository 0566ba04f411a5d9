"""Frequency-dependent reflection models and configuration strategies for
beyond-diagonal reconfigurable surfaces, plus a multi-band MIMO Monte Carlo
harness."""

import os

# numpy's bundled OpenBLAS, the only BLAS bdris loads, reads this once when
# numpy is first imported; its idle threads busy-wait, so on small hosts one
# thread per process runs faster.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
