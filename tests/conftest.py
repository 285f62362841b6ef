"""Test-session set-up shared by every test module.

OpenBLAS and OpenMP get one thread unless the environment already sets a
count, as in a `cdotto run` process (``cdotto.cli``): the matrices the
tests work on gain nothing from a second thread, and a forked sweep worker
would inherit a running thread pool.  This runs before any test module
imports numpy, so the pin takes effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
