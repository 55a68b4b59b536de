"""Outside-in layer clocks for the traced run.

A :class:`LayerClock` replaces the public functions each layer exposes
with thin wrappers that keep one call stack.  Every wrapped call is a
span; a layer's *self* time is the duration of its spans minus the part
covered by spans nested inside them, so the self times of all layers
partition the time of the outermost span exactly.  The program itself
is not modified: the wrappers are installed on the module or class
attribute that callers look up at call time, and :meth:`restore` puts
the original objects back.

The layer table is the contract with ``NOTES.md`` and ``BENCHMARK.json``:
renaming a layer renames its metrics.
"""

from __future__ import annotations

import importlib
import time

#: (layer, module, attribute path) for every wrapped function.  An
#: attribute path ``Class.method`` patches the method on the class;
#: a plain name patches the module global, which is the binding the
#: callers in that module resolve at call time.
ANALYSIS_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("logic.fm", "repro.logic.fourier_motzkin", "eliminate"),
    ("logic.fm", "repro.logic.fourier_motzkin", "satisfiable"),
    ("logic.fm", "repro.logic.fourier_motzkin", "find_model"),
    ("logic.entail", "repro.logic.linconj", "LinConj.entails_atom"),
    ("logic.lp", "repro.logic.lp", "LinearProgram.maximize"),
    ("logic.lp", "repro.logic.lp", "LinearProgram.minimize"),
    ("logic.lp", "repro.logic.lp", "LinearProgram.check_feasible"),
    ("core.stages", "repro.core.refinement", "generalize"),
    ("core.stages", "repro.core.refinement", "build_finite_module"),
    ("ranking", "repro.core.refinement", "prove_lasso"),
    ("automata.difference", "repro.core.refinement", "difference"),
    ("automata.emptiness", "repro.core.refinement", "find_accepting_lasso"),
    ("core.firewall", "repro.core.api", "screen"),
    ("core.library", "repro.core.library", "ModuleLibrary.match"),
    ("core.library", "repro.core.library", "ModuleLibrary.publish"),
)

#: Wrapped in the corpus parent process only (the workers analyse).
RUNNER_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("runner", "repro.runner.pool", "WorkerPool.run"),
    ("runner", "repro.runner.store", "ResultStore.append"),
)

#: The layer that owns the outermost span: analysis time no other
#: layer covers (the refinement loop itself, CFG construction, ...).
ROOT_LAYER = "core.refinement"

#: Every layer reported, in table order.
LAYERS: tuple[str, ...] = (
    "logic.fm", "logic.entail", "logic.lp", "core.stages", "ranking",
    "automata.difference", "automata.emptiness", "core.firewall",
    "core.library", "runner", ROOT_LAYER,
)

#: Layers only ``corpus-pool`` exercises.
CORPUS_ONLY: tuple[str, ...] = ("core.library", "runner")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class LayerClock:
    """Self/inclusive seconds and call counts per layer, from wrappers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        # One frame per open span: [layer, start, resumed_at].
        self._stack: list[list] = []
        self._depth: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._patched: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        stack = self._stack
        now = time.perf_counter()
        if stack:
            top = stack[-1]
            self.self_s[top[0]] += now - top[2]
        stack.append([layer, now, now])
        self._depth[layer] += 1
        self.calls[layer] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            frame = stack.pop()
            self.self_s[layer] += end - frame[2]
            self._depth[layer] -= 1
            if self._depth[layer] == 0:
                # Inclusive time counts only the outermost span of a
                # layer, so recursion is not counted twice.
                self.incl_s[layer] += end - frame[1]
            if stack:
                stack[-1][2] = end

    def install(self, table) -> None:
        """Wrap every function named in ``table``."""
        for layer, module_name, path in table:
            owner, name = _resolve(module_name, path)
            original = vars(owner)[name]
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrapper(layer, original))

    def _wrapper(self, layer: str, original):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(layer, original, *args, **kwargs)

        wrapper.layer_clock_layer = layer
        return wrapper

    def restore(self) -> None:
        """Put every original object back."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls)}


def still_wrapped(table) -> list[str]:
    """Attributes in ``table`` that still hold a layer-clock wrapper."""
    return [f"{module_name}.{path}" for _, module_name, path in table
            if hasattr(getattr(*_resolve(module_name, path)),
                       "layer_clock_layer")]


def merge(total: dict, part: dict) -> dict:
    """Add the clocks of ``part`` into ``total`` (both snapshots)."""
    for kind in ("self_s", "incl_s", "calls"):
        for layer, value in part[kind].items():
            total[kind][layer] = total[kind].get(layer, 0) + value
    return total


def empty() -> dict:
    return LayerClock().snapshot()


def traced_analysis_task(payload: dict) -> dict:
    """Pool task for the traced corpus run: ``analysis_task`` under the
    analysis-layer wrappers, inside the worker process.  The row carries
    the worker's layer clocks, the counts made outside the engine's
    own metrics registry, and any wrapper left in place."""
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.runner import pool

    clock = LayerClock()
    clock.install(ANALYSIS_LAYERS)
    # The firewall counts outside the engine's per-run registry.
    outside = MetricsRegistry()
    try:
        with use_registry(outside):
            row = clock.span(ROOT_LAYER, pool.analysis_task, payload)
    finally:
        clock.restore()
    row["outside_counters"] = outside.snapshot()["counters"]
    row["layer_clock"] = clock.snapshot()
    row["layer_clock_unrestored"] = still_wrapped(ANALYSIS_LAYERS)
    return row
