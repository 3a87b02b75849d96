"""In-memory span tracing of the gfdetect pipeline, installed from outside.

``gfdetect.harness`` and ``gfdetect.detect`` import the functions they call
by name, so a wrapper placed on the name in the calling module's namespace
sees every call without any change to the package. ``Tracer.installed()``
swaps the wrappers in and always restores the originals.

Each span records its name, start, end (``time.perf_counter`` seconds), the
index of its parent span, and the ``(seed, stream, trial_index)`` key of the
trial it belongs to; that key alone reproduces the trial. Layer counts are
attached to the span where the work happens.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("model", "pilots", "detect", "baselines", "link", "harness")

# (module, attribute the caller looks up, span name)
TARGETS = (
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "draw_support", "model.draw_support"),
    ("harness", "draw_channel_gaussian", "model.draw_channel_gaussian"),
    ("harness", "received_pilot", "model.received_pilot"),
    ("harness", "received_data", "model.received_data"),
    ("harness", "gen_gaussian_dictionary", "pilots.gen_gaussian_dictionary"),
    ("detect", "khatri_rao_dictionary", "pilots.khatri_rao_dictionary"),
    ("harness", "detect_activity", "detect.detect_activity"),
    ("detect", "sample_covariance", "detect.sample_covariance"),
    ("detect", "build_smv", "detect.build_smv"),
    ("detect", "nn_lasso", "detect.nn_lasso"),
    ("harness", "msbl", "baselines.msbl"),
    ("harness", "bomp", "baselines.bomp"),
    ("harness", "mfocuss", "baselines.mfocuss"),
    ("harness", "ls_channel_estimate", "link.ls_channel_estimate"),
    ("harness", "ls_data_decode", "link.ls_data_decode"),
    ("harness", "demodulate", "link.demodulate"),
    ("harness", "symbol_error_rate", "link.symbol_error_rate"),
    ("harness", "channel_mse", "link.channel_mse"),
)
MMV_BUILD = "baselines.mmv_build"  # MmvProblem.from_received_pilot, a classmethod

# functions whose busy time per trial is reported as ``<span>.ms``
TIMED = tuple(span for _, _, span in TARGETS if span not in ("harness.run_trial", "detect.detect_activity"))
BASELINE_SOLVERS = ("baselines.msbl", "baselines.bomp", "baselines.mfocuss")
LS_STEPS = ("link.ls_channel_estimate", "link.ls_data_decode")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    key: tuple[int, int, int] | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "key": self.key, **self.counts}


def _matrix_shape(obj) -> tuple[int, int]:
    return np.shape(getattr(obj, "entries", obj))


def _count_lift(span: Span, args, result) -> None:
    L, K = _matrix_shape(args[0])
    span.counts["lift_bytes"] = 16 * L * L * K  # complex128 L^2 x K, computed


def _count_lasso(span: Span, args, result) -> None:
    rows, K = _matrix_shape(args[0])
    span.counts["gram_flops"] = 8 * rows * K * K  # complex A^H A, computed
    span.counts["iterations"] = int(result.iterations)
    span.counts["capped"] = not result.converged


_COUNTERS = {"pilots.khatri_rao_dictionary": _count_lift, "detect.nn_lasso": _count_lasso}


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._key: tuple[int, int, int] | None = None

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        is_trial = name == "harness.run_trial"

        def traced(*args, **kwargs):
            if is_trial:
                config, trial_index = args[0], args[1]
                self._key = (int(config.seed), int(config.stream), int(trial_index))
            span = Span(name, 0.0, self._stack[-1] if self._stack else None, self._key)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.counts["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper whose target exists; restore all on exit."""
        from gfdetect import baselines, detect, harness

        modules = {"harness": harness, "detect": detect}
        saved = []
        try:
            for module_name, attr, span in TARGETS:
                module = modules[module_name]
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrap(span, getattr(module, attr)))
            mmv = baselines.MmvProblem
            original = mmv.__dict__.get("from_received_pilot")
            if isinstance(original, classmethod):
                saved.append((mmv, "from_received_pilot", original))
                mmv.from_received_pilot = classmethod(self._wrap(MMV_BUILD, original.__func__))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)
            self._stack.clear()
            self._key = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _per_trial(total: float, trials: int) -> float:
    return total / trials if trials else 0.0


def _observed_percentile(values: list[int], q: float) -> float:
    return float(np.percentile(values, q, method="inverted_cdf")) if values else 0.0


def count_metrics(spans: list[Span]) -> dict[str, float]:
    """Work counts that repeat exactly on a fixed trial set."""
    trials = sum(s.name == "harness.run_trial" for s in spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    lasso = [s for s in by_name.get("detect.nn_lasso", []) if "error" not in s.counts]
    iterations = [s.counts["iterations"] for s in lasso]
    ls_calls = [s for name in LS_STEPS for s in by_name.get(name, [])]
    return {
        "pilots.gen_gaussian_dictionary.calls_per_trial":
            _per_trial(len(by_name.get("pilots.gen_gaussian_dictionary", [])), trials),
        "pilots.lift_bytes":
            _per_trial(sum(s.counts.get("lift_bytes", 0) for s in by_name.get("pilots.khatri_rao_dictionary", [])), trials),
        "detect.nn_lasso.iterations.p50": _observed_percentile(iterations, 50),
        "detect.nn_lasso.iterations.p90": _observed_percentile(iterations, 90),
        "detect.nn_lasso.capped_fraction":
            sum(s.counts["capped"] for s in lasso) / len(lasso) if lasso else 0.0,
        "detect.nn_lasso.gram_flops": _per_trial(sum(s.counts["gram_flops"] for s in lasso), trials),
        "baselines.calls_per_trial":
            _per_trial(sum(len(by_name.get(name, [])) for name in BASELINE_SOLVERS), trials),
        "baselines.mmv_builds_per_trial": _per_trial(len(by_name.get(MMV_BUILD, [])), trials),
        "link.singular_fraction":
            sum("error" in s.counts for s in ls_calls) / len(ls_calls) if ls_calls else 0.0,
    }


def time_metrics(spans: list[Span]) -> dict[str, float]:
    """Busy time per trial of each traced function, run_trial percentiles and layer shares."""
    trial_spans = [s for s in spans if s.name == "harness.run_trial"]
    trials = len(trial_spans)
    own = self_times(spans)
    busy: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    trial_self = 0.0
    for s, s_own in zip(spans, own):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        layer_self[s.name.split(".", 1)[0]] += s_own
        if s.name == "harness.run_trial":
            trial_self += s_own
    trial_ms = [s.duration * 1e3 for s in trial_spans]
    total = sum(s.duration for s in trial_spans)
    out = {f"{name}.ms": _per_trial(busy.get(name, 0.0) * 1e3, trials) for name in TIMED}
    out["harness.run_trial.p50_ms"] = float(np.percentile(trial_ms, 50)) if trial_ms else 0.0
    out["harness.run_trial.p90_ms"] = float(np.percentile(trial_ms, 90)) if trial_ms else 0.0
    out["harness.run_trial.self_ms"] = _per_trial(trial_self * 1e3, trials)
    out["harness.run_trial.samples"] = float(trials)
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    return out
