"""Span tracing of westinv's public functions, installed from outside the
package.

Each traced function is replaced by a wrapper in every ``westinv`` module
namespace that holds it, so a call is caught where the caller looks the name
up (``westinv.inversion.solve_forward`` as well as
``westinv.forward.solve_forward``).  Methods are replaced on their class.
A span records its name, start, end, parent span, self time (its duration
minus its children's) and an optional work count taken from the call
(right-hand-side columns, time steps, iterations).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _columns(args, kwargs, result):
    rhs = args[2] if len(args) > 2 else kwargs["rhs"]
    return 1 if rhs.ndim == 1 else rhs.shape[1]


def _time_steps(args, kwargs, result):
    return result.values.shape[1] - 1


def _iterations(args, kwargs, result):
    return result.stop_index


# span name -> (module, attribute path, work count taken from the call)
TRACED = {
    "laplacian.solve": ("westinv.laplacian", "Laplace1D.solve_banded_system",
                        _columns),
    "laplacian.banded": ("westinv.laplacian", "Laplace1D.banded", None),
    "laplacian.apply": ("westinv.laplacian", "Laplace1D.apply", None),
    "forward.solve": ("westinv.forward", "solve_forward", _time_steps),
    "derivatives.jacobian": ("westinv.derivatives", "assemble_jacobian", None),
    "derivatives.sensitivity": ("westinv.derivatives", "solve_sensitivity",
                                None),
    "derivatives.hessian": ("westinv.derivatives",
                            "assemble_directional_hessian", None),
    "derivatives.second_derivative": ("westinv.derivatives",
                                      "solve_second_derivative", None),
    "derivatives.adjoint": ("westinv.derivatives", "solve_adjoint", None),
    "derivatives.gradient": ("westinv.derivatives", "apply_gradient", None),
    "basis.project": ("westinv.basis", "project", None),
    "basis.evaluate": ("westinv.basis", "evaluate_basis", None),
    "inversion.landweber": ("westinv.inversion", "landweber_run", _iterations),
    "inversion.newton": ("westinv.inversion", "newton_lm_run", _iterations),
    "inversion.halley": ("westinv.inversion", "halley_run", _iterations),
    "data.synthesize": ("westinv.data", "synthesize_data", None),
    "data.prefilter": ("westinv.data", "prefilter", None),
    "spectra.svd": ("westinv.spectra", "svd_decay", None),
    "experiment.build_problem": ("westinv.experiment", "build_problem", None),
    "experiment.run_inversion": ("westinv.experiment", "run_inversion", None),
    "experiment.run_experiment": ("westinv.experiment", "run_experiment",
                                  None),
    "experiment.write_artifacts": ("westinv.experiment", "write_artifacts",
                                   None),
    "cli.sweep": ("westinv.cli", "cmd_sweep", None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "work")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.work = 0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Collects spans in memory; one parent stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None):
        spans, stack_of = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, clock(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        patches = []
        for module, _, _ in TRACED.values():
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "westinv" or n.startswith("westinv.")]
        for name, (module, path, work) in TRACED.items():
            owner = sys.modules[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self.wrap(name, original, work)
            if len(parts) > 1:
                patches.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def summary(self) -> dict:
        """Per span name: calls, self seconds, total seconds of the
        outermost spans of that name, and summed work counts."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                   "work": 0})
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["self_s"] += s.self_s
            row["work"] += s.work
            if not _has_ancestor(s, s.name):
                row["total_s"] += s.total_s
        return dict(out)

    def child_calls(self, name: str, parent_name: str) -> int:
        return sum(1 for s in self.spans
                   if s.name == name and s.parent is not None
                   and s.parent.name == parent_name)

    def write_csv(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s,work\n")
            for i, s in enumerate(self.spans):
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(f"{i},{parent},{s.name},{s.start - t0:.9f},"
                         f"{s.end - t0:.9f},{s.self_s:.9f},{s.work}\n")


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False
