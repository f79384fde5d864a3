"""Monte-Carlo engine for dynamically orthogonal low-rank SDE ensembles.

A d-dimensional SDE ensemble is carried either in full (N atoms times d
components) or factored as X_i = U^T Y_i with a shared orthonormal-row
basis U (R x d) and per-atom coefficients Y (N x R).  The package
provides the ensemble linear algebra, builtin test models, deterministic
Brownian paths, full/factored/ambient Euler-Maruyama steppers, a local
Picard solver, explosion monitoring with rank truncation/restart, and
diagnostics for every bound the integrators are expected to honor.

DOSDE_THREADS=n pins the BLAS thread pools (OMP/OPENBLAS/MKL, unless
already set) before any submodule imports numpy; it takes effect when
dosde is imported before numpy, as the ``dosde`` script and
``python -m dosde`` do.
"""

import os

if os.environ.get("DOSDE_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["DOSDE_THREADS"])

from . import (  # noqa: E402  (the thread variables must be set first)
    cli,
    config,
    diagnostics,
    errors,
    integrators,
    kernels,
    models,
    paths,
    picard,
    rank_control,
)

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "diagnostics",
    "errors",
    "integrators",
    "kernels",
    "models",
    "paths",
    "picard",
    "rank_control",
    "__version__",
]
