"""Probabilistic non-rigid point-set registration with GP shape priors.

`register`, `update_sigma2` and `gpr_posterior` are looked up in the engine
modules on first access, so that importing the package loads NumPy alone:
the engine loads scipy.linalg.
"""
import importlib

from .core import (
    VARIANTS,
    AllMissingError,
    ConfigError,
    CorrespondenceState,
    DegenerateInstanceError,
    NumericalError,
    PointSet,
    PosteriorDeformation,
    RegistrationConfig,
    RegistrationResult,
    SFGPError,
    default_sigma2_init,
    variant_config,
)
from .kernels import (
    GPPrior,
    KernelSpec,
    PCAKernel,
    ScaledKernel,
    SquaredExponential,
    SumKernel,
    build_pca_kernel,
    gp_prior,
    load_pca_kernel,
    save_pca_kernel,
)
from .correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
    responsibilities,
)
from .synthdata import (
    PerturbationSpec,
    SyntheticInstance,
    add_noise,
    add_outliers,
    apply_structured_missing,
    fish_reference,
    generate,
    warp_rbf,
)
from .metrics import mean_sq_distance, missing_detection

__version__ = "0.1.0"

_ENGINE = {"register": "registration", "update_sigma2": "registration",
           "gpr_posterior": "gpr"}


def __getattr__(name):
    if name in _ENGINE:
        return getattr(importlib.import_module(f".{_ENGINE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
