"""Per-module spans for the traced run, recorded from outside the library.

A :class:`Tracer` replaces each traced function with a timing wrapper at
every name its callers look up, records one span per call in memory, and
puts the originals back when the traced window ends. Nothing under
``src/rematch`` is modified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

import rematch.transport as transport

_PARTIAL_OT_SIGNATURE = inspect.signature(transport.partial_ot)


def _solve_note(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _partial_note(args, kwargs, result):
    rho = _PARTIAL_OT_SIGNATURE.bind(*args, **kwargs).arguments.get("rho", 0.0)
    return {"mass_err": abs(float(result.plan.sum()) - float(rho))}


def _bmm_note(args, kwargs, result):
    return {"em_iters": len(result.loglik_trace), "degenerate": bool(result.degenerate)}


def _clip_note(args, kwargs, result):
    return {"clipped": bool(result[1])}


# (module, attribute, span name, note taken from the call's result).
# A function is wrapped at every name a caller resolves at call time:
# ``rematch.pipeline`` binds partial_ot, normalize_plan, fit_bmm, the losses
# and the data metrics by ``from ... import``, so wrapping only their home
# modules would miss every call from the training loop; the pipeline reaches
# the encoder and the cost map through the module objects; partial_ot
# reaches sinkhorn through ``rematch.transport``'s globals; and the
# benchmark's own calls go through the module objects too.
TARGETS = (
    ("rematch.pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("rematch.pipeline", "partial_ot", "transport.partial_ot", _partial_note),
    ("rematch.transport", "partial_ot", "transport.partial_ot", _partial_note),
    ("rematch.transport", "sinkhorn", "transport.sinkhorn", _solve_note),
    ("rematch.pipeline", "normalize_plan", "transport.normalize_plan", None),
    ("rematch.flow_oracle", "exact_ot_oracle", "flow_oracle.exact_ot_oracle", None),
    ("rematch.pipeline", "fit_bmm", "mixture.fit_bmm", _bmm_note),
    ("rematch.pipeline", "mismatch_probabilities", "mixture.mismatch_probabilities", None),
    ("rematch.pipeline", "warmup_loss", "losses.warmup_loss", None),
    ("rematch.pipeline", "triplet_loss_batch", "losses.triplet_loss_batch", None),
    ("rematch.pipeline", "per_pair_triplet_losses", "losses.per_pair_triplet_losses", None),
    ("rematch.pipeline", "rematch_loss", "losses.rematch_loss", None),
    ("rematch.encoder", "similarity", "encoder.similarity", None),
    ("rematch.encoder", "similarity_backward", "encoder.similarity_backward", None),
    ("rematch.costs", "cost_net_step", "costs.cost_net_step", _clip_note),
    ("rematch.costs", "reconstruct_pairs", "costs.reconstruct_pairs", None),
    ("rematch.costs", "cost_forward", "costs.cost_forward", None),
    ("rematch.pipeline", "recall_at_k", "data.recall_at_k", None),
    ("rematch.pipeline", "identification_score", "data.identification_score", None),
    ("rematch.data", "make_benchmark", "data.make_benchmark", None),
)

# span fields: name, start, end, parent span index (-1 at top level),
# run id (the benchmark unit that caused it), note
NAME, START, END, PARENT, RUN, NOTE = range(6)


class Tracer:
    """Records spans while installed; holds them until :meth:`write`."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.note_seconds = 0.0  # time spent reading counts from results
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                noted = perf_counter()
                span[NOTE] = note(args, kwargs, result)
                self.note_seconds += perf_counter() - noted
            return result

        return traced

    @staticmethod
    def wrapper_seconds(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds a wrapper without a note adds to one call, timed on a no-op."""
        def noop():
            return None

        calibration = Tracer()
        traced = calibration._wrap("noop", noop, None)
        best = {}
        for fn in (noop, traced):
            for _ in range(repeats):
                started = perf_counter()
                for _ in range(calls):
                    fn()
                best[fn] = min(best.get(fn, float("inf")), perf_counter() - started)
                calibration.spans.clear()
        return max(best[traced] - best[noop], 0.0) / calls

    @contextlib.contextmanager
    def installed(self):
        for module_name, attr, name, note in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, note))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, run, note in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run,
                                         "note": note}) + "\n")


def _quantile_ms(seconds: list, q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q)) if seconds else 0.0


def layer_metrics(spans: list, first: int, passes: int) -> dict:
    """Per-pass layer figures from ``spans[first:]`` (whole passes only).

    For every span name: ``calls`` and ``busy_s`` per pass, ``self_s`` per
    pass (busy time minus the time its child spans cover) and the per-call
    median and 90th percentile in ms. Counts read from results come after.
    """
    window = spans[first:]
    child_time = defaultdict(float)
    for span in window:
        if span[PARENT] >= first:
            child_time[span[PARENT]] += span[END] - span[START]
    durations = defaultdict(list)
    self_time = defaultdict(float)
    notes = defaultdict(list)
    for index, span in enumerate(window, start=first):
        duration = span[END] - span[START]
        durations[span[NAME]].append(duration)
        self_time[span[NAME]] += duration - child_time[index]
        if span[NOTE] is not None:
            notes[span[NAME]].append(span[NOTE])

    metrics = {}
    for name in dict.fromkeys(target[2] for target in TARGETS):
        seconds = durations.get(name, [])
        metrics[f"{name}.calls"] = len(seconds) / passes
        metrics[f"{name}.busy_s"] = sum(seconds) / passes
        metrics[f"{name}.self_s"] = self_time.get(name, 0.0) / passes
        metrics[f"{name}.ms_p50"] = _quantile_ms(seconds, 50)
        metrics[f"{name}.ms_p90"] = _quantile_ms(seconds, 90)

    solves = notes["transport.sinkhorn"]
    iterations = [note["iterations"] for note in solves]
    metrics["transport.iters_total"] = sum(iterations) / passes
    metrics["transport.iters_p50"] = float(np.median(iterations)) if iterations else 0.0
    metrics["transport.iters_max"] = float(max(iterations, default=0))
    metrics["transport.unconverged_frac"] = (
        sum(not note["converged"] for note in solves) / len(solves) if solves else 0.0)
    metrics["transport.mass_err_max"] = max(
        (note["mass_err"] for note in notes["transport.partial_ot"]), default=0.0)
    fits = notes["mixture.fit_bmm"]
    metrics["mixture.em_iters_total"] = sum(note["em_iters"] for note in fits) / passes
    metrics["mixture.degenerate_frac"] = (
        sum(note["degenerate"] for note in fits) / len(fits) if fits else 0.0)
    metrics["costs.clip_events"] = sum(
        note["clipped"] for note in notes["costs.cost_net_step"]) / passes
    metrics["pipeline.self_s"] = metrics["pipeline.run_experiment.self_s"]
    return metrics


def share_of_calling_runs(spans: list, first: int, name: str):
    """Busy time of ``name`` over the time of the ``run_experiment`` calls
    that call it directly, from ``spans[first:]``; None when no run calls it."""
    window = spans[first:]
    callers = {span[PARENT] for span in window if span[NAME] == name and span[PARENT] >= 0}
    callers = {i for i in callers if spans[i][NAME] == "pipeline.run_experiment"}
    run_time = sum(spans[i][END] - spans[i][START] for i in callers)
    busy = sum(span[END] - span[START] for span in window
               if span[NAME] == name and span[PARENT] in callers)
    return busy / run_time if run_time else None
