"""Confidence sets, tests, and Monte Carlo experiments for matrix completion."""

__version__ = "0.1.0"

from .core import (DimensionError, DomainError, NoiseSpec, clip_entries,
                   minimax_rate_sq, numerical_rank, svd_deterministic,
                   truncate_rank)
from .synth import (BernoulliDataset, GenerationError, TraceDataset,
                    make_low_rank, sample_bernoulli, sample_trace)
from .estimate import (LassoFit, estimator_risk, lambda_data_driven,
                       lambda_practical_trace, matrix_lasso,
                       soft_threshold_estimator)
from .trace_uq import (FrobeniusBall, PairedSet, n_pairs_bound, pair_repeats,
                       rss_ci, rss_statistic, split_sample, u_ci, u_quantile,
                       u_statistic)
from .bernoulli_uq import (InfimumResult, TestVerdict, adaptive_ci,
                           infimum_stat, low_rank_test, u_alpha_calibrated,
                           u_alpha_theoretical)
from .lbdemo import (PriorDraw, indistinguishability_experiment, rho_for,
                     sample_h1, separation_check)
from .bench import ConfigError, ExperimentConfig, ExperimentReport, run
