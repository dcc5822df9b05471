"""Spans around the calls from ``factlaw.cli`` and ``factlaw.integration`` into each layer.

Only the traced run installs these wrappers; timed runs leave factlaw
untouched.  A span records its name, layer, start, end, parent and op id,
plus counts read from the value the wrapped call returned.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from statistics import median
from typing import Any, Callable

import factlaw.cli as cli
import factlaw.integration as integration
import factlaw.painting as painting
from factlaw.integration import HiddenForm
from factlaw.phenomenon import RandomPhenomenon
from factlaw.puzzle import FragmentPool

LAYERS = ("painting", "puzzle", "phenomenon", "prob", "integration", "cli", "serialize")

# Counts that also accrue to every enclosing span (draws happen in sample()).
PROPAGATED = ("draws",)


class Span:
    __slots__ = ("span_id", "parent", "op", "kind", "name", "layer",
                 "start", "end", "busy", "child", "counts")

    def __init__(self, span_id, parent, op, kind, name, layer):
        self.span_id, self.parent, self.op, self.kind = span_id, parent, op, kind
        self.name, self.layer = name, layer
        self.start = self.end = time.perf_counter()
        self.busy = 0.0  # time inside the span (the sum of its pieces for a stream)
        self.child = 0.0  # time covered by child spans
        self.counts: dict[str, int] = {}

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def to_doc(self) -> dict[str, Any]:
        return {"id": self.span_id, "parent": self.parent, "op": self.op,
                "kind": self.kind, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "busy": self.busy,
                "self": self.self_time, "counts": self.counts}


class Recorder:
    """Holds every span of one run; ``op`` and ``kind`` tag spans opened now."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op: int | None = None
        self.kind: str | None = None
        # Values the assembly calls returned, checked after each op.
        self.returns: list[Any] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].span_id if self.stack else None
        span = Span(len(self.spans), parent, self.op, self.kind, name, layer)
        self.spans.append(span)
        return span

    def wrap(self, name: str, layer: str, fn: Callable,
             counts: Callable[[Any, tuple], dict[str, int]] | None = None,
             keep: bool = False) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child += span.busy
            if counts is not None:
                span.counts.update(counts(result, args))
            if keep:
                self.returns.append(result)
            if self.stack:
                parent = self.stack[-1]
                for key in PROPAGATED:
                    if key in span.counts:
                        parent.counts[key] = parent.counts.get(key, 0) + span.counts[key]
            return result

        return traced

    def wrap_stream(self, name: str, layer: str, fn: Callable) -> Callable:
        """Wrap a generator factory: time each item, charged to the consumer's span."""

        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)
            span = self._open(name, layer)
            span.counts["events"] = 0

            def items():
                while True:
                    if span.busy == 0.0 and self.stack:
                        span.parent = self.stack[-1].span_id
                    start = time.perf_counter()
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    span.end = time.perf_counter()
                    span.busy += span.end - start
                    span.counts["events"] += 1
                    if self.stack:
                        self.stack[-1].child += span.end - start
                    yield item

            return items()

        return traced

    def install(self) -> Callable[[], None]:
        """Patch the traced names into factlaw; return a function that undoes it."""
        patches: list[tuple[Any, str, Any]] = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        def serialize(attr):
            patch(cli, attr, self.wrap(f"serialize.{attr}", "serialize", getattr(cli, attr)))

        patch(cli, "run", self.wrap("cli.run", "cli", cli.run))
        for attr in ("load_json", "dump_json", "sha256_of_file", "sha256_of_doc",
                     "canonical_dumps"):
            serialize(attr)

        tiles = lambda result, args: {"tiles": len(result.tiles)}  # noqa: E731
        patch(painting, "generate_painting",
              self.wrap("painting.generate_painting", "painting",
                        painting.generate_painting, tiles))
        patch(cli, "painting_from_doc",
              self.wrap("painting.painting_from_doc", "painting", cli.painting_from_doc, tiles))

        from_painting = FragmentPool.__dict__["from_painting"].__func__
        patch(FragmentPool, "from_painting", classmethod(
            self.wrap("puzzle.from_painting", "puzzle", from_painting,
                      lambda pool, args: {"pieces": len(pool)})))
        assembled = lambda report, args: {  # noqa: E731
            "pieces": report.placements, "trials": report.trials}
        for attr in ("solve_by_borders", "solve_by_location"):
            patch(cli, attr, self.wrap(f"puzzle.{attr}", "puzzle", getattr(cli, attr),
                                       assembled, keep=True))

        patch(RandomPhenomenon, "sample",
              self.wrap("phenomenon.RandomPhenomenon.sample", "phenomenon",
                        RandomPhenomenon.sample, lambda draws, args: {"draws": len(draws)}))
        for owner in (cli, integration):
            patch(owner, "run_frequency_experiment",
                  self.wrap("phenomenon.run_frequency_experiment", "phenomenon",
                            owner.run_frequency_experiment))
        for attr in ("probabilise_painting", "factual_space_from_painting"):
            patch(cli, attr, self.wrap(f"phenomenon.{attr}", "phenomenon", getattr(cli, attr)))

        patch(cli, "meta_probability",
              self.wrap("prob.meta_probability", "prob", cli.meta_probability))
        patch(cli, "find_N0", self.wrap("prob.find_N0", "prob", cli.find_N0,
                                        lambda n0, args: {"n0": n0}))
        patch(cli, "generate_algebra",
              self.wrap("prob.generate_algebra", "prob", cli.generate_algebra,
                        lambda algebra, args: {"events": len(algebra)}))
        patch(cli, "validate_measure",
              self.wrap("prob.validate_measure", "prob", cli.validate_measure,
                        lambda report, args: {"pairs": len(args[1]) ** 2}))

        from_doc = HiddenForm.__dict__["from_doc"].__func__
        patch(HiddenForm, "from_doc", classmethod(
            self.wrap("integration.hidden_form_from_doc", "integration", from_doc,
                      lambda form, args: {"cells": len(form.cells)})))
        patch(cli, "end_to_end_check",
              self.wrap("integration.end_to_end_check", "integration", cli.end_to_end_check))
        patch(integration, "integrate",
              self.wrap("integration.integrate", "integration", integration.integrate,
                        lambda result, args: {"events": result.events_consumed,
                                              "cells": result.n_phi_total}))
        patch(integration, "complexified_phenomenon",
              self.wrap_stream("integration.complexified_phenomenon", "integration",
                               integration.complexified_phenomenon))

        def uninstall():
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

        return uninstall

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_doc(), sort_keys=True) + "\n")


def _qualifier(kind: str) -> str:
    return kind.split("_", 1)[1] if kind.startswith("space_") else kind


def layer_metrics(spans: list[Span], ops: int, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: name -> (value, unit).

    ``ops`` counts the traced ops; ``scale`` converts measured seconds to the
    benchmark's calibrated seconds.  Spans outside any op (set-up) feed only
    the painting-generation metric.
    """
    out: dict[str, tuple[float, str]] = {}
    by_name: dict[str, list[Span]] = defaultdict(list)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span.op is None:
            by_name["setup." + span.name].append(span)
            continue
        by_name[span.name].append(span)
        self_by_layer[span.layer] += span.self_time

    def busy(group):
        return sum(s.busy for s in group) * scale

    def count(group, key):
        return sum(s.counts.get(key, 0) for s in group)

    def per_unit(metric, group, key, unit, factor):
        units = count(group, key)
        if group and units:
            out[metric] = (busy(group) * factor / units, unit)

    for layer, seconds in self_by_layer.items():
        if ops and seconds:
            out[f"{layer}.self_ms_per_op"] = (seconds * scale * 1e3 / ops, "ms")
    for name in ("load_json", "dump_json", "sha256_of_file"):
        group = by_name[f"serialize.{name}"]
        if ops and group:
            out[f"serialize.{name}.ms_per_op"] = (busy(group) * 1e3 / ops, "ms")

    per_unit("painting.generate_painting.us_per_tile",
             by_name["setup.painting.generate_painting"], "tiles", "us", 1e6)
    per_unit("painting.painting_from_doc.us_per_tile",
             by_name["painting.painting_from_doc"], "tiles", "us", 1e6)
    per_unit("integration.hidden_form_from_doc.us_per_cell",
             by_name["integration.hidden_form_from_doc"], "cells", "us", 1e6)
    per_unit("puzzle.from_painting.us_per_piece",
             by_name["puzzle.from_painting"], "pieces", "us", 1e6)
    per_unit("puzzle.solve_by_location.us_per_piece",
             by_name["puzzle.solve_by_location"], "pieces", "us", 1e6)
    borders = [s for s in by_name["puzzle.solve_by_borders"] if not s.kind.startswith("amb")]
    for kind in sorted({s.kind for s in borders}):
        per_unit(f"puzzle.solve_by_borders.us_per_piece.{kind}",
                 [s for s in borders if s.kind == kind], "pieces", "us", 1e6)

    search = [s for s in by_name["puzzle.solve_by_borders"] if s.kind.startswith("amb")]
    if search:
        solved = [s for s in search if "trials" in s.counts]
        out["puzzle.search.solved_ratio"] = (len(solved) / len(search), "ratio")
        if solved:
            out["puzzle.search.trials_per_solved_pool"] = (
                count(solved, "trials") / len(solved), "count")
            per_unit("puzzle.search.us_per_trial", solved, "trials", "us", 1e6)

    stream = by_name["integration.complexified_phenomenon"]
    per_unit("integration.complexified_phenomenon.us_per_event", stream, "events", "us", 1e6)
    integrate = by_name["integration.integrate"]
    per_unit("integration.integrate.us_per_event", integrate, "events", "us", 1e6)
    if integrate:
        out["integration.events_per_cell"] = (
            count(integrate, "events") / count(integrate, "cells"), "count")

    per_unit("phenomenon.run_frequency_experiment.ns_per_draw",
             by_name["phenomenon.run_frequency_experiment"], "draws", "ns", 1e9)
    per_unit("prob.meta_probability.ns_per_draw",
             by_name["prob.meta_probability"], "draws", "ns", 1e9)
    n0 = by_name["prob.find_N0"]
    if n0:
        out["prob.find_N0.ms"] = (median(s.busy for s in n0) * scale * 1e3, "ms")
        out["prob.find_N0.draws"] = (median(s.counts["draws"] for s in n0), "count")
    for name, key in (("generate_algebra", "ms"), ("validate_measure", "us_per_pair")):
        group = by_name[f"prob.{name}"]
        for kind in sorted({s.kind for s in group}):
            of_kind = [s for s in group if s.kind == kind]
            metric = f"prob.{name}.{key}.{_qualifier(kind)}"
            if key == "ms":
                out[metric] = (median(s.busy for s in of_kind) * scale * 1e3, "ms")
            else:
                per_unit(metric, of_kind, "pairs", "us", 1e6)
    return out
