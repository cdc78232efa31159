"""Span tracer that wraps the program's public functions from outside.

Each layer is a ``(name, module, attribute)`` triple naming the module
attribute its caller looks up at call time, so replacing that attribute
puts a span around every call without touching the program.  The same
function can be two layers: ``apply`` looked up by ``svddf.flow`` is the
integrator's stencil product, looked up by ``svddf.stencil`` it is the
product inside the spectral bound.  A layer whose module or attribute no
longer exists is recorded as absent and reported with zero calls.
"""

import functools
import importlib
import json
import time

LAYERS = (
    ("cli.main", "svddf.cli", "main"),
    ("pgm.read_pgm", "svddf.cli", "read_pgm"),
    ("pgm.write_pgm", "svddf.cli", "write_pgm"),
    ("metrics.evaluate", "svddf.cli", "evaluate"),
    ("flow.run_svddf", "svddf.cli", "run_svddf"),
    ("flow.sv_step", "svddf.flow", "sv_step"),
    ("flow.energies", "svddf.flow", "energies"),
    ("stopping.high_freq_energy", "svddf.flow", "high_freq_energy"),
    ("stopping.discrepancy", "svddf.flow", "discrepancy"),
    ("diffusivity.diffusivity_half", "svddf.flow", "diffusivity_half"),
    ("stencil.assemble", "svddf.flow", "assemble"),
    ("stencil.apply.step", "svddf.flow", "apply"),
    ("stencil.lambda_max", "svddf.flow", "lambda_max"),
    ("stencil.apply.bound", "svddf.stencil", "apply"),
)
# each call of this layer starts a new run id: one denoise or one sweep cell
RUN_LAYER = "flow.run_svddf"
BOUND_LAYER = "stencil.lambda_max"


class Tracer:
    """Records (name, start, end, parent, run) spans in memory while installed."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans = []
        self.absent = []
        self.bound_iterations = 0
        self.bound_fallbacks = 0
        self._stack = []
        self._run = 0
        self._saved = []

    def install(self) -> None:
        for name, module_name, attr in self.layers:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == RUN_LAYER:
                self._run += 1
            index = len(spans)
            spans.append([name, self.clock(), None, stack[-1] if stack else -1, self._run])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = self.clock()
            if name == BOUND_LAYER:
                self._observe_bound(result)
            return result

        return wrapper

    def _observe_bound(self, result) -> None:
        bound = result[0] if isinstance(result, tuple) else result
        self.bound_iterations += int(getattr(bound, "iterations", 0))
        self.bound_fallbacks += getattr(bound, "method", "") == "gershgorin"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent,
                                 "bound_iterations": self.bound_iterations,
                                 "bound_fallbacks": self.bound_fallbacks}) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")


def read_spans(path):
    """Inverse of :meth:`Tracer.write`: (header dict, list of spans)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def summarize(spans, names):
    """Calls and self time per layer; self time excludes wrapped children."""
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for name, start, end, parent, _run in spans:
        calls[name] = calls.get(name, 0) + 1
        duration = end - start
        self_s[name] = self_s.get(name, 0.0) + duration
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
    return calls, self_s
