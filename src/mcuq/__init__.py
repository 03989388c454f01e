"""Confidence sets, tests, and Monte Carlo experiments for matrix completion."""

__version__ = "0.1.0"

from .core import DimensionError, DomainError, NoiseSpec, truncate_rank
from .synth import BernoulliDataset, TraceDataset, make_low_rank, sample_bernoulli, sample_trace
from .estimate import LassoFit, matrix_lasso
from .trace_uq import FrobeniusBall, rss_ci, u_ci, u_statistic
from .bernoulli_uq import (InfimumResult, TestVerdict, adaptive_ci, infimum_stat, low_rank_test,
                           u_alpha_calibrated, u_alpha_theoretical)
from .bench import ExperimentConfig, ExperimentReport, run

#: The documented library surface, listed in README; every other name is
#: imported from its own module.
__all__ = ["DimensionError", "DomainError", "NoiseSpec", "truncate_rank",
           "BernoulliDataset", "TraceDataset", "make_low_rank", "sample_bernoulli", "sample_trace",
           "LassoFit", "matrix_lasso",
           "FrobeniusBall", "rss_ci", "u_ci", "u_statistic",
           "InfimumResult", "TestVerdict", "adaptive_ci", "infimum_stat", "low_rank_test",
           "u_alpha_calibrated", "u_alpha_theoretical",
           "ExperimentConfig", "ExperimentReport", "run"]
