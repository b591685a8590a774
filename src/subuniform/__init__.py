"""Frequency behaviour of posterior predictive p-values.

The marginal law of a posterior predictive p-value, over data drawn from the
prior and model, is always sub-uniform: below the uniform distribution in the
convex order.  This package provides the calibration bounds that follow
(doubling, the h-bound, Fisher and min-p combination), worst-case simulators
that attain them, Monte Carlo estimation schemes with their distinct marginal
laws, and a synthesizer that manufactures a model whose exact p-value has any
prescribed sub-uniform law.

Each public name is imported from its module on first use, so importing the
package, or only the scalar bounds, loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in (
    ("numerics", "EmpiricalSample RngStream"),
    ("idf", "IntegratedDF DominanceResult dominates_cx uniform_idf beta22_idf"),
    ("distributions", "SubUniformDist p2alpha as_p2alpha ks_distance continuous_part_ks "
                      "discretize"),
    ("bounds", "chi2_quantile chi2_sf conservative_single h_bound FisherScore FisherReport "
               "fisher_score fisher_bounds fisher_critical minp_bound MinpLimit "
               "minp_limit_check"),
    ("models", "GenerativeModel SurvivalG uniform_g power_g G_FAMILIES exact_ppp lasso_model "
               "simplex_model simplex_atom port_model load_port_pmfs ruschendorf_sample "
               "FrequencyRun frequency_run"),
    ("estimators", "PosteriorSampler EstimatorScheme marginal_estimator_run"),
    ("coupling", "SingularRow UniformMixRow ConditionalLaw uniform_coupling "
                 "explicit_p2alpha_coupling left_curtain_coupling TransportInfeasible "
                 "mod1_family SyntheticPPPModel synthesize_ppp"),
) for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
