"""Fibre-preserving dynamics on graph bundles over minimal base systems."""

import os

# Nothing in the package calls BLAS, and an idle OpenBLAS worker thread spins
# about 0.1 s of CPU in every command; this must run before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import BundleMinError

__all__ = ["BundleMinError"]
__version__ = "0.1.0"
