"""Spans around the calls into mixlearn's layers, recorded from outside the package.

Each traced function is replaced, for the life of a ``Tracer``'s installation,
at the name its caller looks it up by (``mixlearn.learner.estimate_A``,
``mixlearn.kspike.solve_weights``, ...). Nothing under ``src/`` changes. A span
holds its name, the scope it ran in (set-up, warm-up or the timed instances),
its start and end and the span that was open when it began. Spans stay in
memory until the run ends. A layer's self time is its spans' durations minus
the durations of their child spans, so the self times of all spans in one
instance add up to the instance's root span, ``cli.run_learn``.

This module imports nothing from mixlearn or numpy at import time: the
benchmark fixes the BLAS thread count before either is loaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

# (module the caller looks the function up in, attribute, span name)
TRACED = (
    ("mixlearn.cli", "run_learn", "cli.run_learn"),
    ("mixlearn.cli", "generate_source", "cli.generate_source"),
    ("mixlearn.cli", "draw_snapshots", "sampling.draw"),
    ("mixlearn.cli", "evaluate_errors", "model.evaluate"),
    ("mixlearn.learner", "estimate_r", "isotropize.estimate_r"),
    ("mixlearn.learner", "empirical_M", "spectral.empirical_M"),
    ("mixlearn.learner", "estimate_A", "spectral.estimate_A"),
    ("mixlearn.learner", "binarize", "sampling.binarize"),
    ("mixlearn.learner", "learn_direction", "learner.direction"),
    ("mixlearn.learner", "solve_direction_program", "learner.direction_program"),
    ("mixlearn.learner", "match_spikes", "learner.match_spikes"),
    ("mixlearn.learner", "learn_kspike_from_nbm", "kspike.learn"),
    ("mixlearn.kspike", "solve_lambda", "kspike.solve_lambda"),
    ("mixlearn.kspike", "polynomial_roots", "kspike.roots"),
    ("mixlearn.kspike", "solve_weights", "kspike.solve_weights"),
    ("mixlearn.kspike", "solve_lp", "lp.solve"),
    ("mixlearn.model", "solve_lp", "lp.solve"),
    ("mixlearn.model", "jacobi_eigh", "linalg.eig"),
    ("mixlearn.spectral", "jacobi_eigh", "linalg.eig"),
    ("mixlearn.linalg", "jacobi_eigh", "linalg.eig"),  # eigvalsh_desc's callee
)

# called once per projected-gradient iteration of solve_weights: counted, not spanned
COUNTED = (("mixlearn.kspike", "project_to_simplex", "linalg.simplex_proj"),)

# per-layer self-time metric -> span name; every span of an instance is one of these
SELF_TIME_METRICS = {
    "sampling.draw_s": "sampling.draw",
    "sampling.binarize_s": "sampling.binarize",
    "isotropize.estimate_r_s": "isotropize.estimate_r",
    "spectral.empirical_M_s": "spectral.empirical_M",
    "spectral.estimate_A_s": "spectral.estimate_A",
    "linalg.eig_s": "linalg.eig",
    "kspike.learn_s": "kspike.learn",
    "kspike.solve_weights_s": "kspike.solve_weights",
    "kspike.solve_lambda_s": "kspike.solve_lambda",
    "kspike.roots_s": "kspike.roots",
    "lp.solve_s": "lp.solve",
    "learner.direction_self_s": "learner.direction",
    "learner.direction_program_s": "learner.direction_program",
    "learner.match_spikes_s": "learner.match_spikes",
    "model.evaluate_s": "model.evaluate",
    "cli.run_learn_self_s": "cli.run_learn",
}

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    scope: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none
    start: float = 0.0
    end: float = 0.0
    raised: str = ""  # class name of the exception the call raised, if any
    items: int = 0  # snapshot items a draw returned


class Tracer:
    """Records spans and counts while installed; ``scope`` tags what follows."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # (scope, name) -> calls
        self.scope = "setup"
        self._open = []
        self._installed = []

    def install(self):
        for module_name, attr, name in TRACED:
            self._replace(module_name, attr, functools.partial(self._spanned, name))
        for module_name, attr, name in COUNTED:
            self._replace(module_name, attr, functools.partial(self._counted, name))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _replace(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
        self._installed.append((module, attr, original))

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            span = Span(name, self.scope, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if name == "sampling.draw":
                span.items = int(result.rows.size)
            return result

        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            key = (self.scope, name)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path):
        """Write every span and count as JSON."""
        doc = {
            "spans": [asdict(s) for s in self.spans],
            "counts": [[scope, name, calls] for (scope, name), calls in self.counts.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def self_times(spans):
    """Each span's duration minus the durations of the spans whose parent it is."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer, n_instances):
    """Per-layer metrics of the timed instances, as {name: (value, unit)}.

    Times are self times and counts are calls, both per instance. Two metrics
    also take in the set-up, which runs once per workload: ``cli.generate_source_s``
    is the set-up's alone, and ``linalg.eig_*`` add the set-up's eigensolves
    (``width_report``) to the per-instance figure.
    """
    own = self_times(tracer.spans)
    totals = {}  # (scope, span name) -> [self seconds, calls, calls that raised, items]
    for s, t in zip(tracer.spans, own):
        acc = totals.setdefault((s.scope, s.name), [0.0, 0, 0, 0])
        acc[0] += t
        acc[1] += 1
        acc[2] += s.raised == "MatchingFailure"
        acc[3] += s.items

    def per_instance(name, field):
        return totals.get(("instances", name), [0.0, 0, 0, 0])[field] / n_instances

    def setup(name, field):
        return totals.get(("setup", name), [0.0, 0, 0, 0])[field]

    metrics = {m: (per_instance(span, 0), "s") for m, span in SELF_TIME_METRICS.items()}
    items = per_instance("sampling.draw", 3)
    metrics.update({
        "sampling.items_drawn": (items, "count"),
        "sampling.rows_mb": (items * 8 / MIB, "MB"),  # int64 snapshot rows
        "linalg.eig_calls": (per_instance("linalg.eig", 1), "count"),
        "linalg.simplex_proj_calls": (
            tracer.counts.get(("instances", "linalg.simplex_proj"), 0) / n_instances, "count"),
        "lp.solve_calls": (per_instance("lp.solve", 1), "count"),
        "learner.directions": (per_instance("learner.direction", 1), "count"),
        "learner.match_attempts": (per_instance("learner.match_spikes", 1), "count"),
        "learner.match_retries": (per_instance("learner.match_spikes", 2), "count"),
    })
    instance_self_s = sum(metrics[m][0] for m in SELF_TIME_METRICS)
    metrics["linalg.eig_s"] = (metrics["linalg.eig_s"][0] + setup("linalg.eig", 0), "s")
    metrics["linalg.eig_calls"] = (metrics["linalg.eig_calls"][0] + setup("linalg.eig", 1), "count")
    metrics["cli.generate_source_s"] = (setup("cli.generate_source", 0), "s")
    return metrics, instance_self_s

