"""Per-layer tracing from outside the program.

:func:`instrument` replaces every public function of each setflow module, at
each module binding its callers look up, and a few methods on their classes,
with a wrapper that opens a span.  Spans are aggregated in memory per
(function, parent function) key, so millions of ``inner`` calls cost a dict
update each rather than a record each.  A few hooks (``HOOKS``) read counts
off the arguments and results (chain lengths verified, values returned,
family sizes), so every counter is measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("geometry", "setmaps", "chains", "potential", "solver", "cli")
# (module, class, method, span name) wrapped on the class itself
METHODS = (
    ("setmaps", "SetValuedMap", "eval", "setmaps.eval"),
    ("setmaps", "SetValuedMap", "local_bound", "setmaps.local_bound"),
    ("chains", "Chain", "extended", "chains.Chain.extended"),
)


def _add(row, calls, duration, self_s):
    row[0] += calls
    row[1] += duration
    row[2] += self_s


class Tracer:
    """Aggregates nested spans into calls, duration and self time per key.

    A span's self time is its duration minus the part its child spans cover;
    one thread runs the program, so children never overlap and their
    coverage is the sum of their durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        # (name, parent name) -> [calls, duration, self time]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        _add(self.spans[(name, parent[0] if parent else None)], 1, duration, duration - covered)

    def by_function(self):
        """``{name: [calls, duration, self time]}`` summed over parents."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), row in self.spans.items():
            _add(out[name], *row)
        return dict(out)

    def merge(self, other: "Tracer"):
        for key, row in other.spans.items():
            _add(self.spans[key], *row)
        for key, value in other.counts.items():
            self.counts[key] += value


def _details(name):
    return lambda args, result: {f"{name}.{key}": value for key, value in result.details.items()
                                 if key != "max_length"}


# counters read off a call's bound arguments and its result
HOOKS = {
    "chains.verify_chain": lambda a, r: {"chains.verify_chain.pairs": len(a["chain"])},
    "chains.extend_inertial": lambda a, r: {"chains.extend_inertial.declined": r is None},
    "setmaps.eval": lambda a, r: {"setmaps.eval.values": len(r)},
    "potential.potential_value":
        lambda a, r: {"potential.potential_value.members": len(a["family"])},
    "potential.grow_family": lambda a, r: {
        "potential.grow_family.offered": len(a["family"]) + len(a["chain"]),
        "potential.grow_family.kept": len(r)},
    "potential.build_family": lambda a, r: {
        "potential.build_family.evaluations": r[1]["evaluations"],
        "potential.build_family.grown": r[1]["chains_grown"]},
    "solver.euler_solve": lambda a, r: {"solver.steps": r.node_count() - 1},
    **{f"chains.{fn}": _details(f"chains.{fn}")
       for fn in ("classify_monotone", "classify_weakly_monotone", "classify_cyclic_monotone",
                  "classify_weak_cyclic_monotone", "check_support_chain")},
}


def _wrap(tracer, fn, name):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit()
            tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        tracer.exit()
        if hook is not None:
            for key, value in hook(signature.bind(*args, **kwargs).arguments, result).items():
                tracer.counts[key] += value
        return result
    return wrapper


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__.startswith("setflow.")):
            yield attr, obj


@contextmanager
def instrument(tracer: Tracer):
    """Route every setflow layer through ``tracer`` for the ``with`` body."""
    modules = [importlib.import_module(f"setflow.{layer}") for layer in LAYERS]
    wrappers = {}
    saved = []

    def replace(owner, attr, original, name):
        if id(original) not in wrappers:
            wrappers[id(original)] = _wrap(tracer, original, name)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrappers[id(original)])

    for module in modules:
        for attr, fn in list(_public_functions(module)):
            layer = fn.__module__.rsplit(".", 1)[1]
            replace(module, attr, fn, f"{layer}.{fn.__name__}")
    for layer, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(f"setflow.{layer}"), cls_name)
        original = cls.__dict__[method]
        replace(cls, method, original, name)
        if method == "eval":  # SetValuedMap.__call__ is an alias of eval
            replace(cls, "__call__", original, name)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
