"""Outside-in tracing: wrap each layer's public functions, record spans.

A span is (name, start, end, parent, trial).  The wrappers are installed at
the names the callers bind (``dfobounds.verify.generate_poised_set`` is the
name ``run_trial`` looks up, not ``dfobounds.geometry.generate_poised_set``),
so nothing under ``src/`` changes.  ``Tracer.restore`` puts every original
back.  A binding that no longer exists is recorded as missing; a span name
with no binding left marks its layer absent, so a refactor shows up as a
missing layer in the report rather than as a crash.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

# (span name, layer, "module:attribute" bindings that callers look up).
# ``module:Class.method`` wraps a method on the class.
BINDINGS = [
    ("verify.run_trial", "verify", ["dfobounds.verify:run_trial"]),
    ("geometry.generate", "geometry", ["dfobounds.verify:generate_poised_set"]),
    (
        "geometry.certify",
        "geometry",
        ["dfobounds.verify:lambda_poisedness", "dfobounds.cli:lambda_poisedness"],
    ),
    (
        "geometry.lagrange",
        "geometry",
        [
            "dfobounds.geometry:lagrange_determined",
            "dfobounds.geometry:lagrange_mfn",
            "dfobounds.models:lagrange_determined",
            "dfobounds.models:lagrange_mfn",
        ],
    ),
    (
        "ball.max_abs",
        "ball",
        ["dfobounds.geometry:max_abs_on_ball", "dfobounds.verify:max_abs_on_ball"],
    ),
    ("ball.extremize", "ball", ["dfobounds.ball:extremize_on_ball"]),
    (
        "models.fit_exact",
        "models",
        ["dfobounds.verify:fit_model", "dfobounds.cli:fit_model"],
    ),
    (
        "models.fit_relaxed",
        "models",
        ["dfobounds.verify:fit_relaxed", "dfobounds.cli:fit_relaxed"],
    ),
    (
        "bounds.error_bounds",
        "bounds",
        ["dfobounds.verify:error_bounds", "dfobounds.cli:error_bounds"],
    ),
    ("poly.compose_affine", "poly", ["dfobounds.poly:QuadraticPolynomial.compose_affine"]),
    (
        "fileio.read",
        "fileio",
        [
            "dfobounds.fileio:read_points",
            "dfobounds.fileio:read_model",
            "dfobounds.fileio:read_gamma",
            "dfobounds.fileio:read_config",
        ],
    ),
    (
        "fileio.write",
        "fileio",
        ["dfobounds.fileio:write_model", "dfobounds.fileio:write_points"],
    ),
]

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    trial: Optional[int] = None
    error: bool = False
    residual: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(target: str):
    """Return (owner, attribute) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


@dataclass
class Tracer:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager: entering installs every binding in
    ``BINDINGS``, leaving restores the originals even after an exception.
    """

    bindings: list = field(default_factory=lambda: list(BINDINGS))
    spans: list = field(default_factory=list)
    trial: Optional[int] = None
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for name, _, targets in self.bindings:
            for target in targets:
                owner, attr = _resolve(target)
                original = _MISSING if owner is None else owner.__dict__.get(attr, _MISSING)
                if original is _MISSING:
                    self.missing.append(target)
                    continue
                setattr(owner, attr, self._wrapper(name, original))
                self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def absent_layers(self) -> list:
        """Layers with a span name that has no binding left."""
        missing = set(self.missing)
        return sorted(
            {layer for _, layer, targets in self.bindings if missing.issuperset(targets)}
        )

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, trial=self.trial))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.spans[index].error = True
                raise
            finally:
                tracer.close(index)
            residual = getattr(result, "solver_residual", None)
            if residual is not None:
                tracer.spans[index].residual = float(residual)
            return result

        return traced

    def write(self, path, header: dict) -> None:
        """Write one JSON header line, then one line per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "trial": span.trial,
                }
                if span.error:
                    record["error"] = True
                if span.residual is not None:
                    record["residual"] = span.residual
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


ROOT_SPANS = ("campaign", "cli.main")  # opened by the benchmark around its own calls
_SOLVER = ("ball.max_abs", "ball.extremize")


def layer_metrics(spans, trials: int, absent=()) -> dict:
    """Per-layer metrics from one traced pass, normalised per trial.

    On ``cli_oneshot`` each CLI sequence runs one trial, so per-trial
    figures there are per sequence.  Metrics of absent layers are left out.
    """
    per = 1.0 / max(trials, 1)
    selfs = self_times(spans)
    count, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for span, own_time in zip(spans, selfs):
        count[span.name] += 1
        busy[span.name] += span.duration
        own[span.name] += own_time

    def parent_name(span):
        return None if span.parent is None else spans[span.parent].name

    # The solver's time is its outermost spans: max_abs wraps extremize.
    solver = [s for s in spans if s.name in _SOLVER and parent_name(s) not in _SOLVER]
    ball_busy = sum(s.duration for s in solver)
    ball_calls = count["ball.extremize"]
    root_busy = sum(busy[name] for name in ROOT_SPANS)
    root_self = sum(own[name] for name in ROOT_SPANS)
    trial_times = [s.duration for s in spans if s.name == "verify.run_trial"]
    residuals = [s.residual for s in spans if s.residual is not None]
    reads, writes = count["fileio.read"], count["fileio.write"]
    metrics = {
        "ball.calls": ball_calls * per,
        "ball.busy_s": ball_busy * per,
        "ball.us_per_call": 1e6 * ball_busy / ball_calls if ball_calls else 0.0,
        "ball.max_residual": max(residuals, default=0.0),
        "ball.errors": sum(1 for s in solver if s.error),
        "ball.share": ball_busy / root_busy if root_busy else 0.0,
        "geometry.generate_self_s": own["geometry.generate"] * per,
        "geometry.generate_iters": per * sum(
            1 for s in spans
            if s.name == "geometry.lagrange" and parent_name(s) == "geometry.generate"
        ),
        "geometry.certify_self_s": own["geometry.certify"] * per,
        "geometry.lagrange_builds": count["geometry.lagrange"] * per,
        "geometry.lagrange_self_s": own["geometry.lagrange"] * per,
        "models.fit_s.exact": busy["models.fit_exact"] * per,
        "models.fit_s.relaxed": busy["models.fit_relaxed"] * per,
        "models.fit_calls.exact": count["models.fit_exact"] * per,
        "models.fit_calls.relaxed": count["models.fit_relaxed"] * per,
        "bounds.error_bounds_s": busy["bounds.error_bounds"] * per,
        "poly.compose_affine_calls": count["poly.compose_affine"] * per,
        "poly.compose_affine_s": busy["poly.compose_affine"] * per,
        "verify.trial_self_s": own["verify.run_trial"] * per,
        "verify.trial_s_p50": _quantile(trial_times, 0.5),
        "verify.trial_s_p90": _quantile(trial_times, 0.9),
        "fileio.read_s": busy["fileio.read"] / reads if reads else 0.0,
        "fileio.write_s": busy["fileio.write"] / writes if writes else 0.0,
        "trace.coverage": 1.0 - root_self / root_busy if root_busy else 0.0,
        "trace.spans_per_trial": len(spans) * per,
    }
    return {
        name: value for name, value in metrics.items()
        if name.split(".", 1)[0] not in absent
    }
