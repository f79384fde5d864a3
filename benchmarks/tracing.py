"""Spans around dosde's public functions, recorded from outside the package.

``Tracer.install`` swaps each function listed in ``WRAPPED`` for a
recording wrapper, in every dosde module that holds it (so both
``kernels.gram`` and a ``from .integrators import integrate`` binding
are caught), and ``uninstall`` puts the originals back.  The package
itself is never edited.  Model drift and diffusion are closures made
by ``models.builtin``, so they are wrapped on each model it returns.

A span is ``[name, start, end, parent index]`` with ``perf_counter``
times; a layer's self time is its span minus its direct children.
Counts that are not call counts (computed bytes, normals drawn, Picard
sweeps, successful restarts) are taken from arguments and results.

This module imports no numpy, so the set-up probe can time the first
numpy import.
"""

import dataclasses
import statistics
import sys
import time
from collections import Counter

# (span name, dosde module, attribute); "Class.method" patches a method.
WRAPPED = (
    ("kernels.mean_outer", "kernels", "mean_outer"),
    ("kernels.pairwise_sum", "kernels", "pairwise_sum"),
    ("kernels.gram", "kernels", "gram"),
    ("kernels.second_moment_svd", "kernels", "second_moment_svd"),
    ("kernels.projector_stochastic", "kernels", "projector_stochastic"),
    ("kernels.projector_row", "kernels", "projector_row"),
    ("paths.generate", "paths", "generate"),
    ("models.default_initial", "models", "default_initial"),
    ("config.parse_config", "config", "parse_config"),
    ("integrators.integrate", "integrators", "integrate"),
    ("integrators.step_do", "integrators", "step_do"),
    ("integrators.step_reference", "integrators", "step_reference"),
    ("integrators.step_ambient_dlra", "integrators", "step_ambient_dlra"),
    ("rank_control.restart", "rank_control", "RestartPolicy.restart"),
    ("rank_control.observe", "rank_control", "RestartPolicy.observe"),
    ("picard.picard_local_solve", "picard", "picard_local_solve"),
    ("diagnostics.l2_distance", "diagnostics", "l2_distance"),
)

STEPPERS = ("step_do", "step_reference", "step_ambient_dlra")

# Per-layer metric -> (unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = {
    "kernels.mean_outer.calls": ("count", "lower"),
    "kernels.mean_outer.s": ("s", "lower"),
    "kernels.mean_outer.bytes": ("bytes", "lower"),
    "kernels.pairwise_sum.s": ("s", "lower"),
    "kernels.gram.self_s": ("s", "lower"),
    "kernels.second_moment_svd.self_s": ("s", "lower"),
    "kernels.projector_stochastic.self_s": ("s", "lower"),
    "kernels.projector_row.s": ("s", "lower"),
    "paths.generate.s": ("s", "lower"),
    "paths.normals": ("count", "lower"),
    "paths.bytes": ("bytes", "lower"),
    "models.drift.calls": ("count", "lower"),
    "models.drift.s": ("s", "lower"),
    "models.diffusion.calls": ("count", "lower"),
    "models.diffusion.s": ("s", "lower"),
    "models.default_initial.s": ("s", "lower"),
    "config.parse_config.s": ("s", "lower"),
    "integrators.integrate.self_s": ("s", "lower"),
    "integrators.steps": ("count", "lower"),
    **{
        "integrators.%s.%s" % (step, field): unit
        for step in STEPPERS
        for field, unit in (("self_s", ("s", "lower")),
                            ("p50_ms", ("ms", "lower")),
                            ("p90_ms", ("ms", "lower")))
    },
    "rank_control.restart.calls": ("count", "lower"),
    "rank_control.restart.s": ("s", "lower"),
    "rank_control.observe.s": ("s", "lower"),
    "rank_control.restart_ok_ratio": ("ratio", "higher"),
    "picard.picard_local_solve.self_s": ("s", "lower"),
    "picard.sweeps": ("count", "lower"),
    "diagnostics.l2_distance.calls": ("count", "lower"),
    "diagnostics.l2_distance.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "cli.output_mb_per_s": ("MB/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Counters that must repeat exactly from run to run of one workload and seed.
EXACT_COUNTERS = (
    "kernels.mean_outer.calls",
    "kernels.mean_outer.bytes",
    "paths.normals",
    "paths.bytes",
    "models.drift.calls",
    "models.diffusion.calls",
    "integrators.steps",
    "rank_control.restart.calls",
    "rank_control.restart_ok_ratio",
    "picard.sweeps",
    "diagnostics.l2_distance.calls",
    "cli.output_bytes",
)


def patch(package, module_name, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` wherever dosde holds it.

    Returns a function that restores every replaced binding.
    """
    module = getattr(package, module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        original = owner.__dict__[method]
        setattr(owner, method, make_wrapper(original))
        return lambda: setattr(owner, method, original)
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    bound = []
    prefix = package.__name__ + "."
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith(prefix):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                bound.append((mod, name))

    def restore():
        for mod, name in bound:
            setattr(mod, name, original)

    return restore


class Tracer:
    """Span and counter recorder for one or more traced commands."""

    def __init__(self, package):
        self.package = package
        self._stack = []
        self._restore = []
        self.reset()

    def reset(self):
        """Forget recorded spans and counts."""
        self.spans = []
        self.counts = Counter()

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self):
        counters = {
            "kernels.mean_outer": _count_mean_outer,
            "paths.generate": _count_paths,
            "rank_control.restart": _count_restart,
            "picard.picard_local_solve": _count_picard,
        }
        for name, module, attr in WRAPPED:
            self._restore.append(patch(
                self.package, module, attr,
                lambda fn, name=name: self.wrap(name, fn, counters.get(name)),
            ))
        self._restore.append(patch(self.package, "models", "builtin", self._wrap_builtin))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def _wrap_builtin(self, builtin):
        def wrapper(*args, **kwargs):
            model = builtin(*args, **kwargs)
            return dataclasses.replace(
                model,
                drift=self.wrap("models.drift", model.drift),
                diffusion=self.wrap("models.diffusion", model.diffusion),
            )

        return wrapper


def _count_mean_outer(counts, args, result):
    p, q = result.shape
    counts["kernels.mean_outer.bytes"] += len(args[0]) * p * q * 8


def _count_paths(counts, args, path):
    normals = (path.n_steps << path.level) * path.N * path.m
    counts["paths.normals"] += normals
    counts["paths.bytes"] += normals * 8


def _count_restart(counts, args, result):
    counts["rank_control.restart_ok"] += result[0] is not None


def _count_picard(counts, args, result):
    counts["picard.sweeps"] += len(result.sup_differences)


def self_times(spans):
    """Duration minus direct children's durations, per span."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(spans, counts):
    """Per-layer metric values (no units) from one traced repetition.

    The command spans are named ``cli``; ``cli.output_bytes`` must be in
    ``counts``.  ``trace.overhead_frac`` is left to the caller, which
    knows the untraced wall time.
    """
    calls, total, own, durations = Counter(), Counter(), Counter(), {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        durations.setdefault(name, []).append(end - start)

    out = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[layer]
        elif field == "s":
            out[metric] = total[layer]
        elif field == "self_s":
            out[metric] = own[layer]
        elif field in ("p50_ms", "p90_ms"):
            out[metric] = _percentile_ms(durations.get(layer, []), field)
    for name in ("kernels.mean_outer.bytes", "paths.normals", "paths.bytes",
                 "picard.sweeps", "cli.output_bytes"):
        out[name] = counts[name]
    out["integrators.steps"] = sum(calls["integrators." + s] for s in STEPPERS)
    restarts = calls["rank_control.restart"]
    # 0 when nothing restarted: no restart attempt, so nothing succeeded.
    out["rank_control.restart_ok_ratio"] = (
        counts["rank_control.restart_ok"] / restarts if restarts else 0.0
    )
    out["cli.output_mb_per_s"] = (
        counts["cli.output_bytes"] / 1e6 / own["cli"] if own["cli"] > 0 else 0.0
    )
    return out


def _percentile_ms(durations, field):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    if field == "p50_ms":
        return statistics.median(durations) * 1e3
    return statistics.quantiles(durations, n=10)[8] * 1e3
