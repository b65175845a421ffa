"""In-memory spans around the shockda functions the pipeline looks up.

Each wrapper replaces a module attribute, the name a caller resolves at
call time, so no file of the program changes.  A span records its name,
start, end and the span that was open when it started; spans stay in
memory and become per-layer metrics when the repetition ends.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from dataclasses import dataclass
from time import perf_counter

GENERATE_TRUTH = "harness.experiments.generate_truth"
SOLVE_COUPLED = "solver.solve_coupled_swe"


def _stored_entries(args, weight) -> int:
    matrix = weight.matrix
    return int(matrix.nnz) if hasattr(matrix, "nnz") else int(matrix.size)


# (layer, module, attribute, work count taken from (args, result) or None).
# The module is where the caller looks the function up, not where it is defined.
LAYERS = (
    ("harness.experiments.run_experiment", "shockda.harness.experiments", "run_experiment", None),
    (GENERATE_TRUTH, "shockda.harness.experiments", "generate_truth", None),
    (SOLVE_COUPLED, "shockda.harness.experiments", "solve_coupled_swe", lambda args, run: run.n_steps),
    ("solver.transport_step", "shockda.harness.experiments", "transport_step", None),
    ("solver.weno5_derivative", "shockda.solver", "weno5_derivative", lambda args, out: args[0].size),
    ("stoker.stoker_evaluate", "shockda.harness.experiments", "stoker_evaluate", None),
    ("stoker.synthesize_observations", "shockda.harness.experiments", "synthesize_observations", None),
    ("assimilation.ensemble.ensemble_moments", "shockda.harness.experiments", "ensemble_moments", None),
    ("assimilation.ensemble.ensemble_moments", "shockda.assimilation.filters", "ensemble_moments", None),
    ("assimilation.ensemble.gradient_second_moment", "shockda.assimilation.filters", "gradient_second_moment", None),
    ("assimilation.ensemble.gradient_second_moment", "shockda.assimilation.weights", "gradient_second_moment", None),
    ("assimilation.ensemble.sample_variance_diag", "shockda.assimilation.filters", "sample_variance_diag", None),
    ("assimilation.weights.covariance_weight", "shockda.assimilation.filters", "covariance_weight", _stored_entries),
    ("assimilation.weights.build_weight", "shockda.assimilation.filters", "build_weight", _stored_entries),
    ("assimilation.filters.etkf_transform", "shockda.assimilation.filters", "etkf_transform", None),
    ("assimilation.filters.analysis_mean", "shockda.assimilation.filters", "analysis_mean", None),
    ("assimilation.filters.run_filter", "shockda.harness.experiments", "run_baseline_filter", None),
    ("assimilation.filters.run_filter", "shockda.harness.experiments", "run_weighted_filter", None),
    ("csvio.write_csv", "shockda.harness.experiments", "write_csv", lambda args, out: os.path.getsize(args[0])),
)

# Untraced repetitions wrap only these two, to count truth-cache hits.
TRUTH_LAYERS = tuple(entry for entry in LAYERS if entry[0] in (GENERATE_TRUTH, SOLVE_COUPLED))

# Work counts per layer: (metric name, unit), summed over the layer's spans.
COUNT_METRICS = {
    SOLVE_COUPLED: ("solver.solve_coupled_swe.steps", "count"),
    "solver.weno5_derivative": ("solver.weno5_derivative.cells", "count"),
    "assimilation.weights.covariance_weight": ("assimilation.weights.stored_entries", "count"),
    "assimilation.weights.build_weight": ("assimilation.weights.stored_entries", "count"),
    "csvio.write_csv": ("csvio.bytes_written", "B"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    count: float = 0.0  # the layer's work count, when it has one

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the wrappers it makes, in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if count is not None:
                span.count = count(args, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Swap the wrappers into the shockda modules; restore the originals on exit."""
    originals = []
    try:
        for name, module_name, attr, count in layers:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)  # AttributeError names a layer the program no longer has
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def truth_hit_ratio(spans) -> float:
    """Share of generate_truth calls that did not reach solve_coupled_swe."""
    calls = [i for i, span in enumerate(spans) if span.name == GENERATE_TRUTH]
    reached = set()
    for span in spans:
        if span.name == SOLVE_COUPLED:
            parent = span.parent
            while parent >= 0 and spans[parent].name != GENERATE_TRUTH:
                parent = spans[parent].parent
            reached.add(parent)
    if not calls:
        return float("nan")
    return sum(i not in reached for i in calls) / len(calls)


def layer_metrics(spans) -> dict:
    """Per-layer metrics as {name: (value, unit)}; every layer appears, called or not."""
    selfs = self_times(spans)
    metrics = {}
    for name in dict.fromkeys(entry[0] for entry in LAYERS):
        mine = [i for i, span in enumerate(spans) if span.name == name]
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.total_s"] = (sum(spans[i].duration for i in mine), "s")
        metrics[f"{name}.self_s"] = (sum(selfs[i] for i in mine), "s")
    for name, (metric, unit) in COUNT_METRICS.items():
        total = sum(span.count for span in spans if span.name == name)
        metrics[metric] = (metrics.get(metric, (0, unit))[0] + total, unit)
    cells, weno_s = metrics["solver.weno5_derivative.cells"][0], metrics["solver.weno5_derivative.total_s"][0]
    metrics["solver.weno5_derivative.cells_per_s"] = (cells / weno_s if weno_s > 0 else 0.0, "1/s")
    metrics["harness.truth_cache.hit_ratio"] = (truth_hit_ratio(spans), "ratio")
    return metrics
