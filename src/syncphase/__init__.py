"""Phase extraction from a synchronously sampled sinusoid.

Library layout:

- ``signal_model``       parameter validation, record generation, SNR helpers
- ``spectral_estimator`` single-bin DFT (Goertzel), phase estimate,
                         theoretical moments
- ``phase_pdf``          closed-form estimate density, RMSE/bias/CRLB,
                         asymptotic approximations and regime classification
- ``divergences``        KL / Bhattacharyya between sampled densities
- ``mc_harness``         deterministic Monte-Carlo runner and the
                         normality/independence test battery
- ``cli``                the ``syncphase`` command-line front end
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateSigma,
    EmptyInput,
    LengthMismatch,
    NonPositiveAmplitude,
    NonSynchronous,
    NyquistViolation,
    OutOfRange,
    QuadratureNonConvergence,
    SingularCovariance,
    SupportMismatch,
    SyncPhaseError,
    TooFewPoints,
    ZeroVector,
)
from .signal_model import (
    SignalParams,
    generate,
    make_params,
    sigma_x_for_snr,
    snr_linear,
)
from .spectral_estimator import (
    PhaseStatistic,
    TheoreticalMoments,
    dft_bin,
    estimate_phase,
    theoretical_moments,
)
from .phase_pdf import (
    ErrorReport,
    PolarPdf,
    Regime,
    bias_polar,
    classify_regime,
    crlb,
    efficiency,
    error_report,
    pdf_value,
    rmse_cartesian_oracle,
    rmse_floor_approx,
    rmse_linear_approx,
    rmse_polar,
    rmse_uniform_limit,
    wrap_angle,
)
from .divergences import (
    DensityGrid,
    bhattacharyya_distance,
    density_from_pdf,
    gaussian_approximation,
    kl_divergence,
    uniform_density_on,
)
from .mc_harness import (
    BatteryReport,
    HzResult,
    McConfig,
    McReport,
    benjamini_hochberg,
    fisher_combine,
    henze_zirkler,
    hoeffding_d,
    run_convergence_battery,
    run_mc,
)

# the functions, types and errors imported above; the submodules those
# imports bind are attributes of the package, not part of its API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
