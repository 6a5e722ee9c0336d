"""Per-module spans and counters, installed from outside the package.

The solver modules bind imported names at import time (``frank_wolfe.mix``,
``stochastic_fw.objective``, ...), so a wrapper replaces a function in
every namespace that holds it, not only where it is defined.  Oracles are
called on the instance, so they are wrapped as instance attributes.
``installed`` restores every replaced name on exit.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.  Spans are folded into per-name totals as they
close, because a pass makes up to a million oracle calls.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

from aggfw import measures, problems
from aggfw import rng as aggfw_rng

# Module functions wrapped in a span named "<module>.<function>".
MODULE_SPANS = {
    "problems": ("aggregate_of", "objective", "linearized_best_response"),
    "measures": ("mix", "select_best", "sample_profile"),
    "frank_wolfe": ("fw_run", "dual_gap_beta", "quadratic_curvature"),
    "stochastic_fw": (
        "sfw_run", "sfw_step", "bernoulli_matrix", "stopping_time_step", "stopping_time_run",
    ),
    "bounds": ("compute_constants",),
}
# Instance oracles, wrapped in a span named "miqp.<method>" (both
# benchmark instance classes live in the miqp module).
INSTANCE_SPANS = (
    "contribution", "best_response", "best_response_all", "f_grad", "f_value",
    "f_value_batch", "relaxed_optimum",
)


class Tracer:
    """Span totals per name, plus named counters and peaks."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, duration_s, self_s]
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._open: list[float] = []  # child time accumulated by each open span

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def merge(self, other: "Tracer", scale: float) -> None:
        """Add ``other``'s totals, its times multiplied by ``scale``."""
        for name, (calls, duration, self_s) in other.spans.items():
            totals = self.spans.setdefault(name, [0, 0.0, 0.0])
            totals[0] += calls
            totals[1] += duration * scale
            totals[2] += self_s * scale
        for name, amount in other.counts.items():
            self.count(name, amount)
        for name, value in other.peaks.items():
            self.peak(name, value)

    def span(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` wrapped so that each call closes one span named ``name``."""
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - children
                if open_spans:
                    open_spans[-1] += duration
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return wrapper


class CountingGenerator:
    """A numpy Generator that counts the uniforms drawn through ``random``."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        self._tracer.count("rng.uniforms", 1 if size is None else int(np.prod(size)))
        return self._generator.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _hooks(tracer: Tracer) -> dict:
    """Counters read from the arguments or results of wrapped calls."""

    def candidate_rows(rng, n_draws, n_agents, omega):
        tracer.count("stochastic_fw.candidate_rows", n_draws)
        tracer.peak("stochastic_fw.peak_candidate_rows", n_draws)

    def sfw_step_done(result, problem, *args, **kwargs):
        record = result[1]
        tracer.count("sfw_step.active", record.active_count)
        tracer.count("sfw_step.agents", problem.n_agents)
        tracer.count("steps", 1)
        tracer.count("steps.accepted", record.accepted)

    def stopping_step_done(result, *args, **kwargs):
        tracer.count("stochastic_fw.stopping_draws", result.n_draws)
        tracer.count("stopping.steps", 1)
        tracer.count("steps", 1)
        tracer.count("steps.accepted", result.accepted)

    def batch_rows(flat_points):
        tracer.count("miqp.f_value_batch.rows", len(flat_points))

    return {
        "stochastic_fw.bernoulli_matrix": {"on_call": candidate_rows},
        "stochastic_fw.sfw_step": {"on_return": sfw_step_done},
        "stochastic_fw.stopping_time_step": {"on_return": stopping_step_done},
        "miqp.f_value_batch": {"on_call": batch_rows},
    }


@contextmanager
def installed(tracer: Tracer, instance):
    """Wrap the package's public functions and the instance's oracles."""
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if name == "aggfw" or name.startswith("aggfw.")
    ]
    hooks = _hooks(tracer)
    undo = []

    def replace(owner, attr, new):
        old = owner.__dict__.get(attr)
        setattr(owner, attr, new)
        undo.append((owner, attr, old))

    def replace_everywhere(original, wrapper):
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    replace(namespace, attr, wrapper)

    try:
        for module_name, functions in MODULE_SPANS.items():
            module = sys.modules[f"aggfw.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(module, function)
                replace_everywhere(original, tracer.span(name, original, **hooks.get(name, {})))

        stream = aggfw_rng.stream
        counting_stream = functools.wraps(stream)(
            lambda *args, **kwargs: CountingGenerator(stream(*args, **kwargs), tracer)
        )
        replace_everywhere(stream, tracer.span("rng.stream", counting_stream))

        for method in INSTANCE_SPANS:
            name = f"miqp.{method}"
            bound = getattr(instance, method)
            replace(instance, method, tracer.span(name, bound, **hooks.get(name, {})))

        aggregate_init = problems.Aggregate.__init__

        def counted_aggregate(self, *args, **kwargs):
            tracer.count("problems.aggregate.constructions")
            aggregate_init(self, *args, **kwargs)

        replace(problems.Aggregate, "__init__", counted_aggregate)

        measure_init = measures.DiscreteMeasure.__init__

        def counted_measure(self, *args, **kwargs):
            tracer.count("measures.discrete_measure.constructions")
            measure_init(self, *args, **kwargs)
            tracer.peak("measures.support_atoms.max", len(self.atoms))

        replace(measures.DiscreteMeasure, "__init__", counted_measure)
        yield tracer
    finally:
        for owner, attr, old in reversed(undo):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# Per-layer metrics: (name, unit, better).  "<span>.calls" and
# "<span>.self_s" read span totals, the rest counters, peaks or ratios.
PER_LAYER = (
    ("problems.aggregate.constructions", "count", "lower"),
    ("problems.aggregate_of.calls", "count", "lower"),
    ("problems.aggregate_of.self_s", "s", "lower"),
    ("problems.objective.calls", "count", "lower"),
    ("problems.objective.self_s", "s", "lower"),
    ("problems.linearized_best_response.calls", "count", "lower"),
    ("problems.linearized_best_response.self_s", "s", "lower"),
    ("miqp.contribution.calls", "count", "lower"),
    ("miqp.contribution.self_s", "s", "lower"),
    ("miqp.best_response.calls", "count", "lower"),
    ("miqp.best_response.self_s", "s", "lower"),
    ("miqp.best_response_all.calls", "count", "lower"),
    ("miqp.best_response_all.self_s", "s", "lower"),
    ("miqp.f_grad.calls", "count", "lower"),
    ("miqp.f_grad.self_s", "s", "lower"),
    ("miqp.f_value.calls", "count", "lower"),
    ("miqp.f_value.self_s", "s", "lower"),
    ("miqp.f_value_batch.calls", "count", "lower"),
    ("miqp.f_value_batch.rows", "count", "lower"),
    ("miqp.f_value_batch.self_s", "s", "lower"),
    ("miqp.relaxed_optimum.calls", "count", "lower"),
    ("miqp.relaxed_optimum.self_s", "s", "lower"),
    ("bounds.compute_constants.calls", "count", "lower"),
    ("bounds.compute_constants.self_s", "s", "lower"),
    ("measures.mix.calls", "count", "lower"),
    ("measures.mix.self_s", "s", "lower"),
    ("measures.discrete_measure.constructions", "count", "lower"),
    ("measures.select_best.self_s", "s", "lower"),
    ("measures.sample_profile.calls", "count", "lower"),
    ("measures.sample_profile.self_s", "s", "lower"),
    ("measures.support_atoms.max", "count", "lower"),
    ("frank_wolfe.fw_run.self_s", "s", "lower"),
    ("frank_wolfe.dual_gap_beta.self_s", "s", "lower"),
    ("frank_wolfe.quadratic_curvature.self_s", "s", "lower"),
    ("stochastic_fw.sfw_run.self_s", "s", "lower"),
    ("stochastic_fw.sfw_step.self_s", "s", "lower"),
    ("stochastic_fw.bernoulli_matrix.self_s", "s", "lower"),
    ("stochastic_fw.stopping_time_run.self_s", "s", "lower"),
    ("stochastic_fw.stopping_time_step.self_s", "s", "lower"),
    ("stochastic_fw.candidate_rows", "count", "lower"),
    ("stochastic_fw.peak_candidate_rows", "count", "lower"),
    ("stochastic_fw.active_ratio", "ratio", "lower"),
    ("stochastic_fw.accept_ratio", "ratio", "higher"),
    ("stochastic_fw.stopping_draws", "count", "lower"),
    ("rng.stream.calls", "count", "lower"),
    ("rng.uniforms", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, passes: Tracer, n_passes: int, overhead_s: float) -> dict:
    """Per-layer values for one set-up plus one average pass.

    Calls, self times and counts add the set-up's share to the mean over
    passes; peaks take the maximum; ratios are taken over the passes.
    ``stochastic_fw.stopping_draws`` is candidates drawn per stopping step.
    """

    def additive(name: str) -> float:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            index = 0 if field == "calls" else 2
            parts = [t.spans.get(base, [0, 0.0, 0.0])[index] for t in (setup, passes)]
        else:
            parts = [t.counts.get(name, 0) for t in (setup, passes)]
        return parts[0] + parts[1] / n_passes

    counts = passes.counts
    special = {
        "stochastic_fw.active_ratio": _ratio(
            counts.get("sfw_step.active", 0), counts.get("sfw_step.agents", 0)
        ),
        "stochastic_fw.accept_ratio": _ratio(
            counts.get("steps.accepted", 0), counts.get("steps", 0)
        ),
        "stochastic_fw.stopping_draws": _ratio(
            counts.get("stochastic_fw.stopping_draws", 0), counts.get("stopping.steps", 0)
        ),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in special:
            value = special[name]
        elif name in setup.peaks or name in passes.peaks:
            value = max(t.peaks.get(name, 0) for t in (setup, passes))
        else:
            value = additive(name)
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics
