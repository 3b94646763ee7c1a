"""Oscillator heat semigroups as transforms onto weighted Bergman spaces.

The package evaluates the Hermite and twisted (special Hermite) heat
semigroups as entire functions, computes the weighted Bergman and
holomorphic Sobolev norms of their image spaces, and machine-verifies the
isometries, reproducing identities, intertwining relations, and pointwise
growth envelopes that characterize those images, including the
Paley-Wiener-type bounds for the Gaussian-windowed Fourier transform.
"""

from .indices import (
    MultiIndex,
    as_index,
    as_point,
    multi_indices,
    oscillator_eigenvalue,
)
from .kernels import (
    BoundSpec,
    bergman_weight,
    bergman_weight_dt,
    compact_bound,
    mehler_kernel,
    mehler_spectral,
    reproducing_kernel,
    reproducing_kernel_spectral,
    schwartz_image_bound,
    sobolev_embed_bound,
    special_heat_kernel,
    special_plain_bound,
    special_schwartz_bound,
    stft_bound,
    tempered_bound,
    twisted_bergman_weight,
)
from .quadrature import (
    PlaneGrid,
    QuadRule,
    QuadratureError,
    gauss_hermite_rule,
    gauss_legendre_rule,
    gaussian_box,
    integrate_plane,
    integrate_rn,
)
from .semigroup import (
    CalibrationResult,
    EnvelopeReport,
    bergman_norm,
    calibrate_weight,
    default_bergman_grid,
    envelope,
    envelope_ratio,
    envelopes,
    reproduce,
    schwartz_image_check,
    semigroup_apply,
    semigroup_handle,
)
from .special import (
    Gaussian2n,
    SpecialExpansion,
    SpecialHermiteBasis,
    bergman_norm_special,
    calibrate_weight_special,
    composed_intertwine_residual,
    default_special_grid,
    default_twisted_grid,
    heat_profile,
    intertwine_check,
    laguerre_profile,
    laguerre_project,
    laguerre_sobolev_norm,
    special_envelope,
    special_expand,
    special_hermite_eval,
    special_semigroup_apply,
    twisted_conv,
)
from .specfun import (
    HermiteOverflowError,
    hermite_eval,
    hermite_log_eval,
    hermite_log_ladder,
    hermite_tensor,
    laguerre_function_entire,
)
from .spectral import (
    Bump,
    CoefficientList,
    Dirac,
    Gaussian,
    HermiteBasis,
    HermiteExpansion,
    PolyGaussian,
    SpectralHandle,
    TestFunction,
    eval_entire,
    expand,
    sobolev_norm,
)
from .stft import (
    BridgeReport,
    bridge_constant,
    bridge_residual,
    compact_growth_check,
    gauss_stft,
    pw_envelope,
)
from .taylor import TaylorScalar

__version__ = "0.1.0"
