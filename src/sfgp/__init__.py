"""Probabilistic non-rigid point-set registration with GP shape priors."""

from .core import (
    AllMissingError,
    AnchorMismatchError,
    AnnotatedDeformations,
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
    validate_config,
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
from .gpr import gpr_posterior
from .correspondence import (
    ResponsibilityInputs,
    closest_point_correspondence,
    get_correspondences,
    responsibilities,
)
from .registration import VARIANTS, register, update_sigma2, variant_config
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
