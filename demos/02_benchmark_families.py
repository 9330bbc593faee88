"""A tour of the five synthetic benchmark families.

Every instance is fully determined by (family, seed, size class), so the
numbers below come out the same on every machine.
"""

from dsekit.benchmarks import Family, extract_features, synth_instance
from dsekit.surrogate import SurrogateModel, exhaustive_front

for family in Family:
    instance = synth_instance(family, seed=0, size_class="small")
    model = SurrogateModel.from_instance(instance)
    front = exhaustive_front(model, instance.schema)
    features = extract_features(instance)

    print(instance.id)
    print(f"  knobs            {len(instance.schema.cardinalities)} "
          f"(levels {list(instance.schema.cardinalities)})")
    print(f"  design space     {instance.schema.space_size()} configurations")
    print(f"  true front size  {len(front.points)}")
    print(f"  feature vector   {len(features)} values, first four "
          f"{[float(round(v, 3)) for v in features[:4]]}")
    print()

# Same family, different seed: a fresh schema and landscape, same flavor.
for seed in (0, 1, 2):
    instance = synth_instance(Family.RUGGED, seed, "small")
    print(f"rugged seed {seed}: levels {list(instance.schema.cardinalities)}")
