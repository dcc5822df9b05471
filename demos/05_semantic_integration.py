"""Semantic integration: reading a law off a form instead of off a limit.

Forward direction: a hidden form (a painting whose tiles also carry
complexification indices) is sampled cell by cell, and each draw emits a
complexified event -- label, index, edge signatures, no coordinates.
Inverse direction: each distinct event joins the events whose edge
signatures match its own, and later copies are counted; once no side waits
for a partner, the scan-line search lays the replica out as one board, and
once three replicas complete and agree, per-label counting yields the law
as exact rationals.  No frequencies are involved;
an independent frequency run then corroborates the recovered law.
"""

import itertools

from factlaw import (
    PaintingSpec,
    complexified_phenomenon,
    end_to_end_check,
    expected_cover_time,
    generate_hidden_form,
    integrate,
)

spec = PaintingSpec(10, 10, 3, {1: 60, 2: 30, 3: 10}, seed=7)
form = generate_hidden_form(spec)
print(f"Hidden form: 10x10, label counts {form.label_counts},"
      f" index space s'={form.s_prime}\n")

stream = complexified_phenomenon(form, seed=1)
peek = list(itertools.islice(stream, 3))
print("First complexified events of the stream (coordinates are gone):")
for event in peek:
    print(f"  label={event.label_r:>2}  index={event.complexification_r_prime:>3}"
          f"  edges={event.edge_sigs}")
print()

result = integrate(complexified_phenomenon(form, seed=1))
print("Integration (assemble until 3 replicas complete and agree):")
print(f"  events consumed : {result.events_consumed}")
# Replica j closes at the first event by which every cell has been drawn j
# times, so the mean events consumed is the k-th cover time of the cells.
cells = form.width * form.height
mean = expected_cover_time(cells, result.replicas_used_for_confirmation)
print(f"  exact mean      : {float(mean):.2f} (k-th cover time of {cells} cells,"
      " Newman & Shepp 1960)")
print(f"  completions at  : {[d for _, d in result.completion_log]}")
print(f"  tiles per replica: {result.n_phi_total}")
law = {r: str(p) for r, p in sorted(result.law.atom_probs.items())}
print(f"  recovered law   : {law}")
print(f"  equals the form's histogram exactly: "
      f"{result.law.atom_probs == form.normalized_histogram()}\n")

print("Corroboration by an independent frequency run (fresh seed path):")
report = end_to_end_check(form, n_freq=100_000, seed=9)
print(f"  N=100000 frequencies vs integrated law,"
      f" sup distance {float(report.sup_distance):.5f}")
print("  The law was counted, not estimated; the frequencies merely agree.")
