"""Approximate Bayesian inference for latent Gaussian models.

Sparse Gauss-Markov latent structures (AR(1), random walks, SPDE-based
Matern fields on triangulations), non-Gaussian observation models, nested
Laplace/Gaussian approximations with deterministic hyperparameter
integration, and model-criticism tools.
"""

from . import errors
from .assessment import Diagnostics, assess, compare, cpo_pit, dic, waic
from .engine import (
    Engine,
    EngineConfig,
    FitResult,
    GaussianApprox,
    ThetaNode,
    fit,
    hyper_marginals,
    marginal_likelihood,
)
from .latent import (
    Ar1Component,
    Ar1Grouping,
    FixedEffect,
    GaussianPrior,
    HyperParam,
    IidComponent,
    LogGammaPrior,
    ModelGraph,
    ReplicateGrouping,
    Rw1Component,
    Rw1Grouping,
    SpdeMaternComponent,
    StackPart,
    ar1_precision,
    bin_covariate,
    build_stack,
    correlation_hyper,
    group_block,
    index_block,
    log_precision_hyper,
    log_prior_theta,
    matern_kappa_tau,
    matern_range_variance,
    rw1_structure,
    spde_matern_component,
    spde_precision,
)
from .likelihoods import FAMILIES, GaussianLik, NegBinomialLik, PoissonLik
from .marginals import (
    MarginalDensity,
    emarginal,
    marginal_mode,
    mixture_marginal,
    qmarginal,
    transform_marginal,
    zmarginal,
)
from .mesh import FemMatrices, TriMesh, assemble, load_mesh, projector, save_mesh, structured_mesh
from .simulation import CovariateSpec, SimulatedData, SimulationSpec, random_sites, simulate
from .sparse import (
    CholeskyFactor,
    Permutation,
    SelectedInverse,
    SparseSymmetric,
    analyze,
    factorize,
    reorder,
    sample,
    selected_inverse,
    solve,
)

__version__ = "0.1.0"
