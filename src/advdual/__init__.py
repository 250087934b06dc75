"""Adversarial surrogate-risk minimization and its transport dual on finite
metric ground sets, with machine-checkable optimality certificates."""

from .certify import (
    Certificate,
    certify,
    duality_gap,
    slackness,
    support_conditions,
    universality_check,
)
from .dualsolve import (
    DualSolution,
    brute_dual,
    dual_objective,
    solve_dual,
)
from .errors import AdvdualError
from .ground import (
    GroundSet,
    build_ground,
    dilate,
    inf_ball,
    sliding_max_1d,
    sliding_max_field,
    sup_ball,
)
from .io import load_instance, load_result, save_instance, save_result
from .losses import Loss, conditional_risk, get_loss, transform_h
from .measures import (
    Coupling,
    TwoClassMeasure,
    greedy_attack,
    pushforward,
    transported_integral,
    winf_distance,
    winf_feasible,
)
from .primalsolve import (
    PrimalSolution,
    brute_primal,
    classify_risk_adv,
    construct_f,
    eta_hat,
    risk_adv,
    solve_exp_primal,
    threshold_classifier,
)

__version__ = "0.1.0"

__all__ = [
    "AdvdualError",
    "Certificate",
    "Coupling",
    "DualSolution",
    "GroundSet",
    "Loss",
    "PrimalSolution",
    "TwoClassMeasure",
    "brute_dual",
    "brute_primal",
    "build_ground",
    "certify",
    "classify_risk_adv",
    "conditional_risk",
    "construct_f",
    "dilate",
    "dual_objective",
    "duality_gap",
    "eta_hat",
    "get_loss",
    "greedy_attack",
    "inf_ball",
    "load_instance",
    "load_result",
    "pushforward",
    "risk_adv",
    "save_instance",
    "save_result",
    "slackness",
    "sliding_max_1d",
    "sliding_max_field",
    "solve_dual",
    "solve_exp_primal",
    "sup_ball",
    "support_conditions",
    "threshold_classifier",
    "transform_h",
    "transported_integral",
    "universality_check",
    "winf_distance",
    "winf_feasible",
]
