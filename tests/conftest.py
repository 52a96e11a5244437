"""Test set-up: one BLAS thread, as ``bench/run.py`` runs the package.

OpenBLAS fixes its thread pool when numpy loads, and pytest loads this
file before any test module imports numpy.  On a loaded host, a second
BLAS thread spins against the other processes and stretches small solves
several-fold, which the wall-clock budgets of some tests would then read.
Subprocesses the tests start inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
