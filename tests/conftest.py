"""Session set-up shared by all tests.

The package's matrix products are small (GRU gates of a few dozen units
over at most a few hundred frames).  A threaded BLAS gains nothing on
them, and when the other cores are busy each threaded call waits for its
helper threads to be scheduled: on a 2-core host with the second core
loaded, a UTV training step took 285 ms with the default pool and 125 ms
with one thread, with identical results.  The pools are sized when numpy
is first imported, which happens after this file is loaded; a value
already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
