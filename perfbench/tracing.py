"""Span tracing of the package's layers, from outside the package.

The tracer replaces each entry point in :data:`ENTRY_POINTS` by a wrapper
that records a span (id, name, start, end, parent, thread, attributes) around
the original call. The names are patched where the caller looks them up, so
every call between layers is seen. Spans are kept in memory and written out
once, at the end of the run.

A missing entry point is an error, and so is an entry point a workload must
hit but never does: a refactor that renames or removes one of them breaks the
trace loudly instead of letting a layer read zero.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from typing import NamedTuple

import rdsplit.cli
import rdsplit.diffusion
import rdsplit.harness
import rdsplit.splitting

import workloads


class TraceIncomplete(RuntimeError):
    """An entry point is missing or a required span was never recorded."""


def _stage_attrs(args, result):
    return {"cells": args[0][0].grid.n_cells, "iters": float(result[1])}


def _cn_attrs(args, result):
    return {"newton_iters": int(result[1])}


def _resample_attrs(args, result):
    return {"n_src": args[0].grid.n0, "n_dst": args[1].n0}


HARNESS_CALLER = {"caller": "harness"}


def _harness_run_attrs(args, result):
    return HARNESS_CALLER


# (module, attribute looked up by the caller, span name, attribute extractor)
ENTRY_POINTS = [
    # the benchmark's own calls into the package
    (workloads, "run", "splitting.run", None),
    (workloads, "cli_main", "cli.main", None),
    # calls between the package's modules
    (rdsplit.splitting, "strang_step_counted", "splitting.step", None),
    (rdsplit.splitting, "system_energy", "splitting.energy", None),
    (rdsplit.splitting, "inner_product", "grid.inner_product", None),
    (rdsplit.splitting, "reaction_stage_counted", "reaction.stage", _stage_attrs),
    (rdsplit.splitting, "etd_step", "diffusion.etd", None),
    (rdsplit.splitting, "nonlinear_cn_step_counted", "diffusion.cn", _cn_attrs),
    (rdsplit.diffusion, "semi_implicit_predictor", "diffusion.predictor", None),
    (rdsplit.diffusion, "average_to_faces", "grid.average_to_faces", None),
    (rdsplit.harness, "reaction_step", "reaction.point_step", None),
    (rdsplit.harness, "run", "splitting.run", _harness_run_attrs),
    (rdsplit.harness, "resample_spectral", "harness.resample", _resample_attrs),
    (rdsplit.harness, "write_convergence_csv", "cli.write_csv", None),
    (rdsplit.cli, "parse_config", "cli.parse", None),
    (rdsplit.cli, "write_resolved_config", "cli.write_config", None),
    (rdsplit.cli, "run_cauchy_convergence", "harness.cauchy", None),
    (rdsplit.cli, "run_ode_convergence", "harness.ode", None),
]

# Spans each workload kind must record in every traced repetition.
REQUIRED = {
    "run": ["splitting.run", "splitting.step", "splitting.energy", "grid.inner_product",
            "reaction.stage", "diffusion.etd"],
    "cli": ["cli.main", "cli.parse", "cli.write_config", "cli.write_csv",
            "harness.cauchy", "splitting.run", "splitting.step", "reaction.stage",
            "diffusion.etd", "harness.resample", "harness.ode", "reaction.point_step"],
}
# nonlinear diffusion is required only where a species diffuses by a power law
REQUIRED_POROUS = ["diffusion.cn", "diffusion.predictor", "grid.average_to_faces"]


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None


class Tracer:
    """Records spans from wrapped entry points, per thread, into one list."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, attrs):
        spans, ids, local = self.spans, self._ids, self._local
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(Span(span_id, name, start, end, parent, ident(),
                              None if attrs is None else attrs(args, result)))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every entry point; raises TraceIncomplete if one is missing."""
        missing = [f"{m.__name__}.{attr}" for m, attr, _, _ in ENTRY_POINTS
                   if not hasattr(m, attr)]
        if missing:
            raise TraceIncomplete("entry points missing: " + ", ".join(missing))
        for module, attr, name, attrs in ENTRY_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded since the last call and start afresh."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def required_spans(wl) -> list[str]:
    porous = getattr(wl, "alpha_exp", 1) > 1
    return REQUIRED[wl.kind] + (REQUIRED_POROUS if porous else [])


def check_complete(spans: list[Span], required: list[str], wl, inputs, rep) -> None:
    """Raise TraceIncomplete unless the spans account for all of the rep's work."""
    seen = {s.name for s in spans}
    absent = [name for name in required if name not in seen]
    if absent:
        raise TraceIncomplete("required spans never recorded: " + ", ".join(absent))
    stages = [s for s in spans if s.name == "reaction.stage"]
    if wl.kind == "run":
        report = rep.output
        expected = {"reaction.stage": 2 * (report.times.size - 1),
                    "newton_iters": int(report.diffusion_iters.sum())}
        got = {"reaction.stage": len(stages),
               "newton_iters": sum(s.attrs["newton_iters"] for s in spans
                                   if s.name == "diffusion.cn")}
        iters_report = statistics.fmean(report.reaction_iters_avg[1:])
        iters_spans = statistics.fmean(s.attrs["iters"] for s in stages)
        if abs(iters_report - iters_spans) > 1e-12 * iters_report:
            got["iters_per_cell"], expected["iters_per_cell"] = iters_spans, iters_report
    else:
        n = len(inputs["hs"])
        expected = {"levels": n, "harness.resample": 2 * (n - 1),
                    "reaction.point_step": wl.point_steps(inputs)}
        got = {"levels": sum(1 for s in spans if s.attrs == HARNESS_CALLER),
               "harness.resample": _count(spans, "harness.resample"),
               "reaction.point_step": _count(spans, "reaction.point_step")}
    if got != expected:
        raise TraceIncomplete(f"trace saw {got}, the run did {expected}")


def write_spans(reps: list[list[Span]], path) -> None:
    """Write every kept span as one CSV row: rep,id,name,start,end,parent,thread."""
    with open(path, "w") as fh:
        fh.write("rep,id,name,start,end,parent,thread\n")
        for k, spans in enumerate(reps):
            for s in spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{k},{s.id},{s.name},{s.start!r},{s.end!r},{parent},{s.thread}\n")


def _total(spans, name):
    return sum(s.end - s.start for s in spans if s.name == name)


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children (same thread) cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], wall_s: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of ``wall_s`` seconds."""
    stages = [s for s in spans if s.name == "reaction.stage"]
    stage_s = _total(spans, "reaction.stage")
    cells = sum(s.attrs["cells"] for s in stages)
    point_steps = _count(spans, "reaction.point_step")
    cn_s = _total(spans, "diffusion.cn")
    cn_calls = _count(spans, "diffusion.cn")
    predictor_s = _total(spans, "diffusion.predictor")
    newton_iters = sum(s.attrs["newton_iters"] for s in spans if s.name == "diffusion.cn")
    own = self_times(spans)
    splitting_self = sum(own[s.id] for s in spans
                         if s.name in ("splitting.run", "splitting.step"))
    resamples = [s for s in spans if s.name == "harness.resample"]
    levels = [s.end - s.start for s in spans
              if s.name == "splitting.run" and s.attrs == HARNESS_CALLER]
    cauchy_s = _total(spans, "harness.cauchy")
    grid_names = ("grid.inner_product", "grid.average_to_faces")
    return {
        "reaction.stage_s": stage_s,
        "reaction.stage_calls": len(stages),
        "reaction.stage_share": stage_s / wall_s,
        "reaction.cells_per_s": cells / stage_s if stage_s > 0 else 0.0,
        "reaction.iters_per_cell": (statistics.fmean(s.attrs["iters"] for s in stages)
                                    if stages else 0.0),
        "reaction.point_steps": point_steps,
        "reaction.point_step_us": (1e6 * _total(spans, "reaction.point_step") / point_steps
                                   if point_steps else 0.0),
        "diffusion.cn_s": cn_s,
        "diffusion.cn_calls": cn_calls,
        "diffusion.cn_share": cn_s / wall_s,
        "diffusion.predictor_s": predictor_s,
        "diffusion.newton_s": cn_s - predictor_s,
        "diffusion.newton_iters": newton_iters,
        "diffusion.linear_solves": newton_iters + cn_calls,
        "diffusion.etd_s": _total(spans, "diffusion.etd"),
        "diffusion.etd_calls": _count(spans, "diffusion.etd"),
        "splitting.record_s": (_total(spans, "splitting.energy")
                               + _total(spans, "grid.inner_product")),
        "splitting.self_s": splitting_self,
        "splitting.steps": _count(spans, "splitting.step"),
        "harness.resample_s": _total(spans, "harness.resample"),
        "harness.resample_share": _total(spans, "harness.resample") / wall_s,
        "harness.resample_calls": len(resamples),
        # the dense n_dst x n_src x n_src/2 temporary _trig_eval_matrix builds,
        # computed from the call arguments (largest over the calls), MiB
        "harness.resample_temp_mb": max(
            (s.attrs["n_dst"] * s.attrs["n_src"] * (s.attrs["n_src"] // 2) * 8 / 2 ** 20
             for s in resamples), default=0.0),
        "harness.level_s": statistics.fmean(levels) if levels else 0.0,
        "harness.parallel_efficiency": (sum(levels) / (threads * cauchy_s)
                                        if cauchy_s > 0 else 0.0),
        "cli.parse_s": _total(spans, "cli.parse"),
        "cli.write_s": _total(spans, "cli.write_config") + _total(spans, "cli.write_csv"),
        "grid.s": sum(_total(spans, n) for n in grid_names),
        "grid.calls": sum(_count(spans, n) for n in grid_names),
    }


def count_fingerprint(spans: list[Span]) -> dict:
    """Exact counts of a traced repetition, independent of thread interleaving."""
    counts = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    return {
        "calls": dict(sorted(counts.items())),
        "stage_iters": sorted((s.attrs["cells"], s.attrs["iters"]) for s in spans
                              if s.name == "reaction.stage"),
        "newton_iters": sorted(s.attrs["newton_iters"] for s in spans
                               if s.name == "diffusion.cn"),
    }
