"""One BLAS thread unless the caller sets another count.

pytest loads this file before any test module imports numpy, and BLAS
libraries read these variables once, when numpy loads them. With the
default of one thread per core, the small GEMMs of an eval-sized forward
run several times slower on a host whose other cores are busy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
