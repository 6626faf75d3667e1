"""Suite-wide set-up: numpy's BLAS runs on one thread, and hypothesis keeps
its files outside the working tree.

OpenBLAS's default threading makes oscim's small matrix products slower on
a small host (README, "CLI").  numpy reads these variables when it loads,
and no module has imported it when pytest loads this file; setdefault keeps
a thread count set in the environment.  hypothesis reads its storage
directory when it first touches storage, not at import; without this it
writes ``.hypothesis/constants/`` into the directory the suite runs from.
"""

import os
import tempfile

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "oscim-hypothesis"))
