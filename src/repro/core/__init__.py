"""The optimizers — the paper's contribution and its baselines.

* :class:`SDPOptimizer` — Skyline Dynamic Programming, the paper's
  algorithm (localized hub pruning + disjunctive RCS skyline);
* :class:`DynamicProgrammingOptimizer` — exhaustive bushy DP (the optimal
  reference), enumerated with DPccp;
* :class:`IDPOptimizer` — Iterative Dynamic Programming, the strongest
  prior heuristic and the paper's main baseline;
* :class:`GreedyOptimizer` — GOO, an extra low-effort baseline;
* :class:`IterativeImprovementOptimizer` / :class:`TwoPhaseOptimizer` —
  randomized search baselines (the intro's "randomized algorithms");
* :class:`GeneticOptimizer` — a GEQO-style genetic baseline (the intro's
  "genetic techniques").

All optimizers share one plan space (:class:`PlanSpace`), one budget and
overhead-accounting mechanism (:class:`SearchBudget`,
:class:`SearchCounters`), and return :class:`OptimizerResult`.
"""

from repro.core.base import (
    Optimizer,
    OptimizerResult,
    PlanResult,
    SearchBudget,
    SearchCounters,
)
from repro.core.dp import DynamicProgrammingOptimizer
from repro.core.dpccp import connected_subgraphs, csg_cmp_pairs
from repro.core.enumeration import level_pairs
from repro.core.genetic import GeneticConfig, GeneticOptimizer
from repro.core.greedy import GreedyOptimizer
from repro.core.idp import IDPConfig, IDPOptimizer
from repro.core.idp2 import IDP2Config, IDP2Optimizer
from repro.core.planspace import PlanSpace
from repro.core.randomized import (
    IterativeImprovementOptimizer,
    RandomizedConfig,
    TwoPhaseOptimizer,
)
from repro.core.registry import available_techniques, make_optimizer
from repro.core.sdp import SDPConfig, SDPOptimizer
from repro.core.table import JCRTable

__all__ = [
    "Optimizer",
    "OptimizerResult",
    "PlanResult",
    "SearchBudget",
    "SearchCounters",
    "DynamicProgrammingOptimizer",
    "IDPOptimizer",
    "IDPConfig",
    "IDP2Optimizer",
    "IDP2Config",
    "SDPOptimizer",
    "SDPConfig",
    "GreedyOptimizer",
    "IterativeImprovementOptimizer",
    "TwoPhaseOptimizer",
    "RandomizedConfig",
    "GeneticOptimizer",
    "GeneticConfig",
    "PlanSpace",
    "JCRTable",
    "csg_cmp_pairs",
    "connected_subgraphs",
    "level_pairs",
    "make_optimizer",
    "available_techniques",
]
