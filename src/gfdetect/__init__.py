"""Covariance-domain activity detection for grant-free massive-MIMO uplink.

The package simulates sporadic uplink transmission to a large antenna array:
``model`` draws activity, channels, and observations; ``pilots`` builds
non-orthogonal training dictionaries and their coherence statistics;
``detect`` recovers the active set from the sample covariance of the pilot
observation via a nonnegative LASSO on the Kronecker-lifted dictionary;
``baselines`` provides MSBL, block-OMP, and M-FOCUSS for comparison;
``link`` estimates channels and decodes data for a detected support;
``theory`` evaluates the analytic success-probability floor; and ``harness``
runs Monte Carlo sweeps behind the ``gfdetect`` CLI.
"""

from .baselines import MmvProblem, bomp, mfocuss, msbl
from .detect import (
    DetectionResult,
    LassoOptions,
    build_smv,
    detect_activity,
    extract_support,
    kkt_residual,
    nn_lasso,
    sample_covariance,
)
from .errors import (
    ConditionViolatedError,
    ConfigError,
    InvalidParameterError,
    SingularSystemError,
)
from .harness import (
    ExperimentConfig,
    MetricsRow,
    PRESETS,
    emit_csv,
    run_sweep,
    run_trial,
)
from .link import (
    QPSK,
    channel_mse,
    demodulate,
    ls_channel_estimate,
    ls_data_decode,
    symbol_error_rate,
)
from .model import (
    NoiseSpec,
    Support,
    complex_normal,
    derive_rng,
    draw_channel_gaussian,
    draw_channel_ula,
    draw_support,
    received_data,
    received_pilot,
    steering_vector,
)
from .pilots import (
    gen_gaussian_dictionary,
    khatri_rao_dictionary,
    max_identifiable_support,
    mutual_coherence,
    welch_bound,
)
from .theory import (
    BoundInputs,
    deltas,
    evaluate_recovery_bound,
    lasso_constants,
    chernoff_power_rate,
    empirical_power_floor_check,
    recovery_bound,
)

__version__ = "0.1.0"
