"""Probabilisation: a painting becomes a random phenomenon.

Draw one tile uniformly at random, with replacement, and report only its
approximate-colour label.  The underlying law is fixed by the painting's
label histogram -- 60/30/10 here -- and empirical frequencies approach it
as the number of draws grows.  The factual probability space (universe,
event algebra, law) is validated against the measure axioms by counting.
"""

from factlaw import (
    PaintingSpec,
    compare_law,
    event_probability,
    factual_space_from_painting,
    generate_painting,
    probabilise_painting,
    run_frequency_experiment,
    validate_measure,
)

painting = generate_painting(
    PaintingSpec(10, 10, 3, {1: 60, 2: 30, 3: 10}, seed=7)
)
phenomenon = probabilise_painting(painting, seed=20260823)
law = phenomenon.underlying_law()
print("The painting, probabilised:")
print(f"  procedure : {phenomenon.procedure_id}")
print(f"  universe  : {phenomenon.universe.elements}")
print(f"  law       : {{1: {law[1]}, 2: {law[2]}, 3: {law[3]}}}\n")

print("Empirical frequencies close in on the law (sup distance):")
for n in (100, 1_000, 10_000, 100_000):
    table = run_frequency_experiment(phenomenon, n)
    report = compare_law(table, law)
    freqs = "  ".join(
        f"{label}:{table.counts[label] / n:.4f}" for label in (1, 2, 3)
    )
    print(f"  N={n:>6}  {freqs}  sup={float(report.sup_distance):.5f}")

print("\nThe factual probability space behind the phenomenon:")
space = factual_space_from_painting(painting)
print(f"  events in the algebra: {len(space.algebra)}")
print(f"  P(label 1 or 2)      : {event_probability(space.law, {1, 2})}")
report = validate_measure(space.law, space.algebra)
for check in report.checks:
    print(f"  {check.name:<22} {'ok' if check.passed else 'FAILED'}")
print(f"  all axioms hold: {report.passed}")
