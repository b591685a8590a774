"""Frequency behaviour of posterior predictive p-values.

The marginal law of a posterior predictive p-value, over data drawn from the
prior and model, is always sub-uniform: below the uniform distribution in the
convex order.  This package provides the calibration bounds that follow
(doubling, the h-bound, Fisher and min-p combination), worst-case simulators
that attain them, Monte Carlo estimation schemes with their distinct marginal
laws, and a synthesizer that manufactures a model whose exact p-value has any
prescribed sub-uniform law.
"""

from .bounds import (FisherReport, FisherScore, MinpLimit, conservative_single,
                     fisher_bounds, fisher_critical, fisher_score, h_bound, minp_bound,
                     minp_limit_check)
from .coupling import (ConditionalLaw, SingularRow, SyntheticPPPModel, TransportInfeasible,
                       UniformMixRow, explicit_p2alpha_coupling, left_curtain_coupling,
                       mod1_family, synthesize_ppp, uniform_coupling)
from .distributions import (SubUniformDist, as_p2alpha, continuous_part_ks, discretize,
                            ks_distance, p2alpha)
from .estimators import EstimatorScheme, PosteriorSampler, marginal_estimator_run
from .idf import DominanceResult, IntegratedDF, beta22_idf, dominates_cx, uniform_idf
from .models import (FrequencyRun, G_FAMILIES, GenerativeModel, SurvivalG, exact_ppp,
                     frequency_run, lasso_model, load_port_pmfs, port_model, power_g,
                     ruschendorf_sample, simplex_atom, simplex_model, uniform_g)
from .numerics import EmpiricalSample, RngStream, chi2_quantile, chi2_sf

__version__ = "0.1.0"

__all__ = [
    "EmpiricalSample", "RngStream", "chi2_quantile", "chi2_sf",
    "IntegratedDF", "DominanceResult", "dominates_cx", "uniform_idf", "beta22_idf",
    "SubUniformDist", "p2alpha", "as_p2alpha", "ks_distance", "continuous_part_ks",
    "discretize",
    "conservative_single", "h_bound", "FisherScore", "FisherReport", "fisher_score",
    "fisher_bounds", "fisher_critical", "minp_bound", "MinpLimit", "minp_limit_check",
    "GenerativeModel", "SurvivalG", "uniform_g", "power_g", "G_FAMILIES", "exact_ppp",
    "lasso_model", "simplex_model", "simplex_atom", "port_model", "load_port_pmfs",
    "ruschendorf_sample", "FrequencyRun", "frequency_run",
    "PosteriorSampler", "EstimatorScheme", "marginal_estimator_run",
    "SingularRow", "UniformMixRow", "ConditionalLaw", "uniform_coupling",
    "explicit_p2alpha_coupling", "left_curtain_coupling", "TransportInfeasible",
    "mod1_family", "SyntheticPPPModel",
    "synthesize_ppp",
    "__version__",
]
