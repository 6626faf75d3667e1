"""Suite-wide set-up: numpy's BLAS runs on one thread.

OpenBLAS's default threading makes oscim's small matrix products slower on
a small host (README, "CLI").  numpy reads these variables when it loads,
and no module has imported it when pytest loads this file; setdefault keeps
a thread count set in the environment.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
