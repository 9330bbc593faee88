"""Ten design-space explorers behind one budgeted, seeded interface."""

from .base import (
    EXHAUSTIVE_REFERENCE_LIMIT,
    Budget,
    BudgetedEvaluator,
    ExplorationResult,
    ExplorerId,
    PortfolioResult,
    explore,
    portfolio_seed,
    score_results,
)

__all__ = [
    "EXHAUSTIVE_REFERENCE_LIMIT",
    "Budget",
    "BudgetedEvaluator",
    "ExplorationResult",
    "ExplorerId",
    "PortfolioResult",
    "explore",
    "portfolio_seed",
    "score_results",
]
