"""Run all ten explorers on two benchmarks and watch the winner change.

This is the no-free-lunch effect that motivates learned algorithm selection:
the explorer that wins on a smooth landscape is not the one that wins on a
rugged or plateau-heavy one.
"""

from dsekit.benchmarks import Family, synth_instance
from dsekit.explorers import Budget, ExplorerId, explore, portfolio_seed, score_results
from dsekit.surrogate import SurrogateModel

BUDGET = Budget(60)

for family in (Family.SMOOTH, Family.RUGGED, Family.PLATEAU):
    instance = synth_instance(family, seed=2, size_class="small")
    model = SurrogateModel.from_instance(instance)
    results = tuple(
        explore(explorer, instance, model, BUDGET, portfolio_seed(0, explorer))
        for explorer in ExplorerId
    )
    portfolio = score_results(instance, model, results)

    print(instance.id)
    for explorer, result, score in zip(ExplorerId, portfolio.results, portfolio.adrs_values):
        marker = "  <- winner" if explorer == portfolio.argmin else ""
        print(f"  {explorer.name.lower():8s} adrs={score:.5f} "
              f"evals={result.evaluations_used:4d}{marker}")
    print()
