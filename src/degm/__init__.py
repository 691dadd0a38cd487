"""Desk-scale lifelong generative learning laboratory.

Subpackages: ``nn`` (autodiff substrate), ``vae`` (models and bounds),
``replay`` (generative-replay training), ``graph`` (dynamic expansion
graph), ``bounds`` (forgetting diagnostics), ``data`` (task streams),
``checkpoint`` (binary containers), ``cli`` (run orchestration).
"""

import os

# BLAS on one thread unless the environment says otherwise, before numpy loads:
# ``--seeds`` runs a seed per CPU, and spare BLAS threads spin against the others.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
