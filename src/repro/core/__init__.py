"""The paper's contribution: Algorithms 1-3, the one pricing path for θ, and
the TIM / TIM+ / IMM entry points."""

from repro.core.imm import imm
from repro.core.kpt_estimation import KptEstimationResult, estimate_kpt
from repro.core.node_selection import NodeSelectionResult, node_selection
from repro.core.parameters import (
    adjusted_ell_tim,
    adjusted_ell_tim_plus,
    apply_theta_cap,
    epsilon_prime_default,
    imm_epsilon_prime,
    imm_lambda_prime,
    imm_lambda_star,
    kpt_max_iterations,
    kpt_samples_per_iteration,
    lambda_param,
    lambda_prime,
    log_binomial,
    theta_from_kpt,
)
from repro.core.pricing import Pricing, price
from repro.core.refine_kpt import RefineKptResult, refine_kpt
from repro.core.results import IMMResult, InfluenceMaxResult, TIMResult
from repro.core.tim import tim, tim_plus
from repro.core.weighted import WeightedRootSampler, weighted_lambda, weighted_tim_plus

__all__ = [
    "KptEstimationResult",
    "estimate_kpt",
    "NodeSelectionResult",
    "node_selection",
    "adjusted_ell_tim",
    "adjusted_ell_tim_plus",
    "apply_theta_cap",
    "epsilon_prime_default",
    "imm_epsilon_prime",
    "imm_lambda_prime",
    "imm_lambda_star",
    "kpt_max_iterations",
    "kpt_samples_per_iteration",
    "lambda_param",
    "lambda_prime",
    "log_binomial",
    "theta_from_kpt",
    "RefineKptResult",
    "refine_kpt",
    "Pricing",
    "price",
    "imm",
    "IMMResult",
    "InfluenceMaxResult",
    "TIMResult",
    "tim",
    "tim_plus",
    "WeightedRootSampler",
    "weighted_lambda",
    "weighted_tim_plus",
]
