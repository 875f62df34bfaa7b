"""DOA estimation (PCA/MUSIC/DTFT) with exact Bayesian MAP model-order selection."""

from .arraysim import (
    ArrayScenario,
    amplitude_matrix,
    steering_matrix,
    synth_freq,
)
from .metrics import err_doa, rmse_amplitude
from .ordermap import (
    OrderPosterior,
    ProjectionStats,
    aic_order,
    log_stiefel_volume,
    map_order_pca,
    map_order_scan,
    posterior_variances,
)
from .specfun import (
    DominancePair,
    double_pdf,
    double_moment,
    log_q_sum,
    log_reg_inc_beta,
    prob_dominance,
    reg_inc_beta,
)
from .subspace import (
    EigenBasis,
    dtft_spectrum,
    eigendecompose,
    music_pseudospectrum,
    pick_peaks,
    prefix_energies,
    projection_stats,
    sample_covariance,
)

__version__ = "0.1.0"
