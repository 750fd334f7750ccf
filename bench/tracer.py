"""Per-layer spans recorded from outside the package.

A :class:`Tracer` replaces module attributes of the traced package with
timing wrappers for as long as its :meth:`Tracer.installed` context is
open, and always puts the originals back.  A helper imported into a
second module is wrapped where its caller looks it up, so one span can have
several sites.  A site whose attribute no longer exists (a later rename)
is reported as absent instead of failing the run.

Wrappers record only inside :meth:`Tracer.op`, so output checks made
between ops are not counted.  Each span keeps its call count, inclusive
time, self time (inclusive minus the time of wrapped callees) and any
counters its hook adds.  Times are process CPU seconds, the clock the
benchmark times ops with.  The raw spans (op, id, parent, name, start, end)
of the first ``keep_ops`` ops are kept in memory for
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from dataclasses import dataclass, field
from time import process_time


def _grid_cells(counters, args, exc):
    """M x G cells of one scatter-FFT estimate: ``(meas, kernels, values)``."""
    meas, kernels = args[0], args[1]
    counters["fft_cells"] += meas.signal_length * kernels.shape[1]


def _rank_rejects(counters, args, exc):
    counters["rank_rejects"] += type(exc).__name__ == "RankDeficiencyError"


def _written_bytes(counters, args, exc):
    if exc is None:
        counters["bytes"] += os.path.getsize(args[0])


@dataclass(frozen=True)
class Span:
    """A traced entry point: metric prefix, lookup sites, optional counter hook.

    ``hook(counters, args, exc)`` runs after every recorded call, with the
    call's positional arguments and the exception it raised (or None).
    """

    name: str
    sites: tuple  # ((submodule, attribute), ...)
    hook: object = None
    counters: tuple = ()


# Every layer entry point the benchmark reports, plus the callees that
# must be spans so that their callers' self time excludes them.
SPANS = (
    Span("analysis.snr_experiment", (("analysis", "snr_experiment"),)),
    Span("analysis.phase_transition", (("analysis", "phase_transition"),)),
    Span("experiments.run_experiment", (("experiments", "run_experiment"),)),
    Span("config.parse_config", (("config", "parse_config"),)),
    Span("recovery.recover", (("analysis", "recover"), ("experiments", "recover"))),
    Span("recovery.sweep", (("experiments", "sweep"),)),
    Span("recovery.cs_spectral_estimate", (("recovery", "cs_spectral_estimate"),)),
    Span("recovery.kernel_matrix", (("recovery", "_kernel_matrix"),)),
    Span("recovery.grid_estimates", (("recovery", "_grid_estimates"),),
         _grid_cells, ("fft_cells",)),
    Span("recovery.detect_bins", (("recovery", "_detect_bins"),)),
    Span("recovery.atom_matrix", (("recovery", "_atom_matrix"),)),
    Span("recovery.solve_amplitudes", (("recovery", "_solve_amplitudes"),),
         _rank_rejects, ("rank_rejects",)),
    Span("recovery.best_pair", (("recovery", "_best_pair"),)),
    Span("recovery.reconstruct", (("recovery", "reconstruct"),)),
    Span("model.phase_cycles", (("recovery", "phase_cycles"),)),
    Span("model.synthesize", (("analysis", "synthesize"), ("experiments", "synthesize"))),
    Span("model.select_measurements", (("analysis", "select_measurements"),
                                       ("experiments", "select_measurements"))),
    Span("model.apply_noise", (("analysis", "apply_noise"), ("experiments", "apply_noise"))),
    Span("transform.kernel_values_at", (("recovery", "kernel_values_at"),
                                        ("lpft", "kernel_values_at"))),
    Span("lpft.lpft_sweep", (("experiments", "lpft_sweep"), ("lpft", "lpft_sweep"))),
    Span("lpft.lpft_cs_estimate", (("experiments", "lpft_cs_estimate"),
                                   ("lpft", "lpft_cs_estimate"))),
    Span("lpft.lpft_recover", (("experiments", "lpft_recover"),)),
    Span("lpft.window_fit", (("lpft", "_window_fit"),), _rank_rejects, ("rank_rejects",)),
    Span("lpft.detect_bins", (("lpft", "_detect_bins"),)),
    Span("csvio.write", (("csvio", "_atomic_write"),), _written_bytes, ("bytes",)),
)


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Wraps the :data:`SPANS` of one package; see the module docstring."""

    def __init__(self, package: str, spans=SPANS, keep_ops=None):
        self.package = package
        self.keep_ops = keep_ops   # raw spans are kept for ops below this id
        self.spans = tuple(spans)
        self.stats = {
            s.name: SpanStats(counters={c: 0 for c in s.counters}) for s in self.spans
        }
        self.absent = set()        # span names with no existing site
        self.broken_hooks = set()  # span names whose counter hook raised
        self.records = []          # (op, span id, parent id, name, start, end)
        self._stack = []           # [span id, child seconds] per open span
        self._op = None
        self._next_id = 0

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site; restore all originals on exit, even on error."""
        originals = []
        try:
            for span in self.spans:
                found = False
                for submodule, attr in span.sites:
                    module = importlib.import_module(f"{self.package}.{submodule}")
                    if not hasattr(module, attr):
                        continue
                    original = getattr(module, attr)
                    originals.append((module, attr, original))
                    setattr(module, attr, self._wrap(span, original))
                    found = True
                if not found:
                    self.absent.add(span.name)
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            self._stack.clear()
            self._op = None

    @contextlib.contextmanager
    def op(self, op_id):
        """Record spans for one op; outside this context wrappers only forward."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def _wrap(self, span: Span, fn):
        tracer = self
        stats = self.stats[span.name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            exc = None
            start = process_time()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                end = process_time()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.seconds += elapsed
                stats.self_seconds += elapsed - frame[1]
                if tracer.keep_ops is None or tracer._op < tracer.keep_ops:
                    tracer.records.append((tracer._op, span_id, parent, span.name, start, end))
                if span.hook is not None and span.name not in tracer.broken_hooks:
                    try:
                        span.hook(stats.counters, args, exc)
                    except (AttributeError, IndexError, TypeError, OSError):
                        tracer.broken_hooks.add(span.name)

        return wrapper

    def metric(self, name: str, n_ops: int):
        """Per-op value of ``<span>.<stat>``, or None when unavailable.

        ``stat`` is ``calls``, ``ms`` (inclusive), ``self_ms`` or a counter.
        """
        span, _, stat = name.rpartition(".")
        if span in self.absent or span not in self.stats:
            return None
        stats = self.stats[span]
        if stat == "calls":
            total = stats.calls
        elif stat == "ms":
            total = 1000.0 * stats.seconds
        elif stat == "self_ms":
            total = 1000.0 * stats.self_seconds
        elif stat in stats.counters and span not in self.broken_hooks:
            total = stats.counters[stat]
        else:
            return None
        return total / n_ops

    def write_spans(self, path):
        """Write the raw spans as JSON lines, one per span."""
        with open(path, "w") as handle:
            for op_id, span_id, parent, name, start, end in self.records:
                handle.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}))
                handle.write("\n")
