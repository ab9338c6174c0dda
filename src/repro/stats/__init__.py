"""Monte Carlo estimation statistics.

:mod:`repro.stats.montecarlo` implements the classical fixed-``N`` machinery
the paper uses (sample statistics, CLT confidence intervals, required sample
size); :mod:`repro.stats.sampling` adds bootstrap intervals, sequential
(adaptive) estimation and stratified sampling as practical refinements.
"""

from repro.stats.montecarlo import (
    MonteCarloEstimate,
    OnlineStatistics,
    confidence_interval,
    estimate_mean,
    estimate_trajectory,
    merge_many,
    normal_cdf,
    normal_quantile,
    required_sample_size,
    sample_statistics,
)
from repro.stats.sampling import (
    SequentialEstimate,
    StratifiedEstimate,
    bootstrap_confidence_interval,
    child_rng,
    child_seed,
    derive_child_seeds,
    random_bits,
    sample_bits,
    sequential_estimate,
    stratified_estimate,
)

__all__ = [
    "MonteCarloEstimate",
    "OnlineStatistics",
    "confidence_interval",
    "estimate_mean",
    "estimate_trajectory",
    "merge_many",
    "normal_cdf",
    "normal_quantile",
    "required_sample_size",
    "sample_statistics",
    "SequentialEstimate",
    "sequential_estimate",
    "StratifiedEstimate",
    "stratified_estimate",
    "bootstrap_confidence_interval",
    "child_rng",
    "child_seed",
    "derive_child_seeds",
    "random_bits",
    "sample_bits",
]
