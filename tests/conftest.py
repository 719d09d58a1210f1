"""Pin OpenBLAS to one thread before numpy loads, as perfbench does; a value
set in the environment still wins.

With OpenBLAS's default thread count, each small dense kernel pays a thread
hand-off: on a loaded 2-CPU machine, validating a 50-mode covariance matrix
took about 120 ms instead of 0.4 ms.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
