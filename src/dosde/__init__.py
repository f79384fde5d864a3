"""Monte-Carlo engine for dynamically orthogonal low-rank SDE ensembles.

A d-dimensional SDE ensemble is carried either in full (N atoms times d
components) or factored as X_i = U^T Y_i with a shared orthonormal-row
basis U (R x d) and per-atom coefficients Y (N x R).  The package
provides the ensemble linear algebra, builtin test models, deterministic
Brownian paths, full/factored/ambient Euler-Maruyama steppers, a local
Picard solver, explosion monitoring with rank truncation/restart, the
ensemble L2 distance, and a harness that certifies the projector
perturbation bounds.

BLAS thread pools are sized by the standard variables (OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS); outputs do not depend on them.
"""

from . import (
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
