"""Rate simulator for two-hop Gaussian relay networks with conferencing links."""

from .model import (
    ChannelRealization,
    ConfigurationError,
    Cscg,
    DistributionSpec,
    MomentSet,
    Neighbors,
    NetworkConfig,
    PerIndex,
    PointMass,
    Portion,
    PreconditionError,
    UndefinedRatioError,
    conferencing_size,
    derive_seed,
    moments,
    sample_channel,
    sample_realization,
)
from .rates import (
    RateReport,
    af_mu_terms,
    af_expected_q_terms,
    af_power_factors,
    af_q_terms,
    af_rate,
    af_rate_asymptotic,
    af_rate_expected_q,
    af_sinr,
    capacity_upper_asymptotic,
    capacity_upper_bound,
    df_mac_gain,
    df_mac_rate,
    df_rate,
    df_rates_asymptotic,
    df_relay_rates,
    rate_report,
)
from .montecarlo import (
    OracleResult,
    PointResult,
    SchemeStats,
    SweepPoint,
    SweepResult,
    SweepSpec,
    analytic_df_mac_snr,
    run_point,
    signal_oracle_af,
    signal_oracle_df_mac,
    sweep,
)
from .asymptotics import (
    ConferencingNoiseRatio,
    ScalingFit,
    conferencing_noise_ratio,
    lemma1_gap,
    scaling_fit,
    trace_points,
)

__version__ = "0.1.0"
