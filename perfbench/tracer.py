"""In-memory span tracer that wraps randmon's public callables from outside the package.

``Tracer.install()`` replaces each target callable with a wrapper that records
one span per call: name, start, end and the span that was open when the call
began (its parent). A function is replaced under every name where randmon's
modules look it up (``harness`` imports ``wsr_test`` by name, so
``randmon.harness.wsr_test`` is patched as well as ``randmon.monitors.wsr_test``);
a method is replaced on its class. Spans stay in memory until ``summary()``
and ``write_spans()`` run at the end of the repetition.

Self time is a span's duration minus the durations of its child spans. Calls
are single-threaded and nested, so children never overlap each other.
The counts that the monitors and detectors do not report themselves
(degenerate windows, tied windows, tuning iterations) are taken from the
wrapped calls' results. Work the tracer does to take a count is itself
recorded as a ``trace.observe`` span, so it does not inflate the caller's
self time.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (metric prefix, module, attribute path) of every wrapped callable.
TARGETS = (
    ("config.load_config_dict", "randmon.config", "load_config_dict"),
    ("config.build_plant", "randmon.config", "build_plant"),
    ("lti.solve_dare", "randmon.lti", "solve_dare"),
    ("lti.make_controller", "randmon.lti", "make_controller"),
    ("lti.step", "randmon.lti", "step"),
    ("lti.NoiseSource.draw", "randmon.lti", "NoiseSource.draw"),
    ("attacks.CompositeAttack", "randmon.attacks", "CompositeAttack.__call__"),
    ("attacks.AttackPolicy", "randmon.attacks", "AttackPolicy.__call__"),
    ("monitors.signed_ranks", "randmon.monitors", "signed_ranks"),
    ("monitors.wsr_test", "randmon.monitors", "wsr_test"),
    ("monitors.sir_test", "randmon.monitors", "sir_test"),
    ("monitors.WindowBuffer.push", "randmon.monitors", "WindowBuffer.push"),
    ("monitors.WindowBuffer.values", "randmon.monitors", "WindowBuffer.values"),
    ("monitors.AlarmRateTracker.update", "randmon.monitors", "AlarmRateTracker.update"),
    ("detectors.BadDataDetector.step", "randmon.detectors", "BadDataDetector.step"),
    ("detectors.CusumDetector.step", "randmon.detectors", "CusumDetector.step"),
    ("detectors.tune_cusum", "randmon.detectors", "tune_cusum"),
    ("deviation.run_attack_ensemble", "randmon.deviation", "run_attack_ensemble"),
    ("deviation.deviation_limit", "randmon.deviation", "deviation_limit"),
    ("harness.tuned_thresholds", "randmon.harness", "tuned_thresholds"),
    ("harness.run_scenario", "randmon.harness", "run_scenario"),
    ("harness.emit_outputs", "randmon.harness", "emit_outputs"),
    ("harness.run_sweep", "randmon.harness", "run_sweep"),
)

OBSERVE = "trace.observe"

#: Per-call self-time metrics: median, p99 (when >= 10 calls lie beyond it) and calls.
PER_CALL = (
    "monitors.signed_ranks",
    "monitors.wsr_test",
    "monitors.sir_test",
    "lti.step",
    "lti.NoiseSource.draw",
    "attacks.CompositeAttack",
    "attacks.AttackPolicy",
    "detectors.BadDataDetector.step",
    "detectors.CusumDetector.step",
)
#: Summed self time, in seconds, of one or more spans.
SELF_TOTAL = {
    "monitors.WindowBuffer": ("monitors.WindowBuffer.push", "monitors.WindowBuffer.values"),
    "monitors.AlarmRateTracker.update": ("monitors.AlarmRateTracker.update",),
    "harness.run_scenario": ("harness.run_scenario",),
}
#: Summed duration, in seconds.
DURATION_TOTAL = (
    "config.load_config_dict",
    "config.build_plant",
    "lti.solve_dare",
    "lti.make_controller",
    "detectors.tune_cusum",
    "deviation.run_attack_ensemble",
    "deviation.deviation_limit",
    "harness.emit_outputs",
    "harness.run_sweep",
)
COUNTS = (
    "monitors.wsr.degenerate",
    "monitors.sir.degenerate",
    "monitors.sir.tie_alarms",
    "monitors.wsr.tied_windows",
    "detectors.tune_cusum.calls",
    "detectors.tune_cusum.iterations",
    "harness.emit_outputs.bytes",
    "harness.run_sweep.cells",
)


def _has_tie(ranks) -> bool:
    return np.unique(ranks.ranks).size < ranks.ranks.size


class Tracer:
    """Records spans of wrapped randmon calls in one process."""

    def __init__(self):
        self.labels: list = []
        self._code: dict = {}
        self.codes: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _label_code(self, label: str) -> int:
        if label not in self._code:
            self._code[label] = len(self.labels)
            self.labels.append(label)
        return self._code[label]

    def _wrap(self, label, fn, observe=None, on_error=None):
        code = self._label_code(label)
        observe_code = self._label_code(OBSERVE)
        codes, parents, starts, ends = self.codes, self.parents, self.starts, self.ends
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stack.pop()
                ends[idx] = perf_counter()
                if on_error is not None:
                    on_error(exc)
                raise
            stack.pop()
            ends[idx] = t1 = perf_counter()
            if observe is not None:
                observe(result)
                codes.append(observe_code)
                parents.append(stack[-1])
                starts.append(t1)
                ends.append(perf_counter())
            return result

        return wrapper

    def _observers(self, label):
        """Count hooks of one target: (observe(result), on_error(exc))."""
        from randmon.errors import DegenerateWindow, EmptyAfterZeroRemoval

        counts = self.counts

        def count_error(exc_type, key):
            def on_error(exc):
                if isinstance(exc, exc_type):
                    counts[key] += 1
            return on_error

        if label == "monitors.signed_ranks":
            def tied(result):
                counts["monitors.wsr.tied_windows"] += _has_tie(result)
            return tied, None
        if label == "monitors.wsr_test":
            return None, count_error(EmptyAfterZeroRemoval, "monitors.wsr.degenerate")
        if label == "monitors.sir_test":
            def tie_alarm(result):
                counts["monitors.sir.tie_alarms"] += result.tie_alarm
            return tie_alarm, count_error(DegenerateWindow, "monitors.sir.degenerate")
        if label == "detectors.tune_cusum":
            def tuning(result):
                counts["detectors.tune_cusum.calls"] += 1
                counts["detectors.tune_cusum.iterations"] += result.iterations
            return tuning, None
        if label == "harness.emit_outputs":
            def written(path):
                counts["harness.emit_outputs.bytes"] += os.path.getsize(path)
            return written, None
        if label == "harness.run_sweep":
            def cells(results):
                counts["harness.run_sweep.cells"] += len(results)
            return cells, None
        return None, None

    def install(self) -> None:
        """Wrap every target under each name randmon looks it up by."""
        import randmon  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "randmon" or name.startswith("randmon.")]
        for label, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(label, original, *self._observers(label))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _arrays(self):
        code = np.asarray(self.codes, dtype=np.int32)
        parent = np.asarray(self.parents, dtype=np.int64)
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=code.size)
        return code, parent, start, dur, dur - child

    def summary(self) -> dict:
        """Per-layer metrics of this process's spans (see README.md for units)."""
        code, _, _, dur, self_t = self._arrays()
        out = {}

        def pick(label):
            return code == self._code[label]

        for label in PER_CALL:
            samples = self_t[pick(label)] * 1e6
            calls = samples.size
            out[f"{label}.self_us"] = float(np.median(samples)) if calls else 0.0
            # p99 only where at least ten samples lie beyond it.
            p99 = float(np.quantile(samples, 0.99)) if calls >= 1000 else 0.0
            out[f"{label}.self_us_p99"] = p99
            out[f"{label}.calls"] = calls
        for metric, labels in SELF_TOTAL.items():
            out[f"{metric}.self_s"] = float(sum(self_t[pick(label)].sum() for label in labels))
        for label in DURATION_TOTAL:
            out[f"{label}.s"] = float(dur[pick(label)].sum())
        for key in COUNTS:
            out[key] = int(self.counts[key])
        return out

    def write_spans(self, path: str) -> None:
        """Write every span: label table, label index, parent index, start and duration."""
        code, parent, start, dur, _ = self._arrays()
        np.savez_compressed(path, labels=np.asarray(self.labels), code=code, parent=parent,
                            start_s=start - start.min(), duration_s=dur)
