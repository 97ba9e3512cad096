"""Outside-in span tracer: wraps public ``repro`` functions at every import site.

A span is one call into one layer: ``(layer, start, end, parent, run)``.
Spans live in flat arrays while the workload runs and are written out
once at the end (:meth:`Tracer.write`).  ``run`` is the id of the
enclosing ``Strategy.run`` call (one simulated cell), ``0`` outside any
cell.  A call into a layer that is already the innermost open span
(``super().program()``, ``platform_fingerprint`` -> ``device_fingerprint``)
extends that span instead of opening a nested one, so a layer's calls
count entry points, not internal recursion.

Self time of a span is its duration minus its direct children's.  Work
the tracer itself does between a layer's own clock reads (edge and
instance counting) runs inside a ``trace.bookkeeping`` span, so it is
never charged to a program layer.  The sum of every span's self time
equals the total of the root spans, which is what lets the per-layer
ledger add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span store plus the per-layer counters the wrappers feed."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._run_id = 0
        self._next_run = 0

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def open(self, lid: int, *, new_run: bool = False) -> int:
        if new_run:
            self._next_run += 1
            self._run_id = self._next_run
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self._run_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, *, end_run: bool = False) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        if end_run:
            self._run_id = 0

    def innermost(self, lid: int) -> bool:
        return bool(self.stack) and self.layer[self.stack[-1]] == lid

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> array:
        """Per-span duration minus the durations of its direct children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def root_total(self) -> float:
        return sum(
            self.end[i] - self.start[i]
            for i, parent in enumerate(self.parent) if parent < 0
        )

    def write(self, path: Path) -> None:
        """Dump every span as CSV: layer,start_s,end_s,parent,run."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,layer,start_s,end_s,parent,run\n")
            for i, lid in enumerate(self.layer):
                fh.write(
                    f"{i},{self.layers[lid]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.run[i]}\n"
                )


def _wrap(tracer: Tracer, layer: str, fn, count=None, *, new_run=False):
    """``fn`` timed as one ``layer`` span; ``count(tracer, result, args)``
    runs afterwards inside a bookkeeping span."""
    lid = tracer.layer_id(layer)
    book = tracer.layer_id(BOOKKEEPING)

    if inspect.isgeneratorfunction(fn):
        # a span per resumption: the consumer's work between two items
        # belongs to the consumer, not to the generator's layer
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.counts[layer + ".calls"] += 1
            try:
                while True:
                    idx = tracer.open(lid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            finally:
                gen.close()

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.innermost(lid):
            return fn(*args, **kwargs)
        tracer.counts[layer + ".calls"] += 1
        idx = tracer.open(lid, new_run=new_run)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx, end_run=new_run)
        if count is not None:
            bidx = tracer.open(book)
            try:
                count(tracer, result, args)
            finally:
                tracer.close(bidx)
        return result

    return traced


def _patch_function(tracer, module: str, name: str, layer: str, count=None):
    """Replace ``module.name`` in every loaded module that holds it.

    ``from X import f`` copies the reference, so patching only the
    defining module would miss call sites such as
    ``repro.partition.base.build_dependences`` (and the benchmark's own
    ``__main__``).  Deferred imports inside function bodies read the
    defining module at call time and see the patched name.
    """
    original = getattr(importlib.import_module(module), name)
    wrapped = _wrap(tracer, layer, original, count)
    sites = 0
    for mod in list(sys.modules.values()):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
                sites += 1
    return sites


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _patch_method(tracer, cls: type, name: str, layer: str, count=None,
                  *, new_run=False) -> int:
    """Wrap the ``name`` that ``cls`` itself defines (abstract ones skipped)."""
    raw = cls.__dict__.get(name)
    if raw is None or getattr(raw, "__isabstractmethod__", False):
        return 0
    if isinstance(raw, classmethod):
        wrapped = classmethod(
            _wrap(tracer, layer, raw.__func__, count, new_run=new_run))
    else:
        wrapped = _wrap(tracer, layer, raw, count, new_run=new_run)
    setattr(cls, name, wrapped)
    return 1


#: scheduler class -> metric prefix (``schedulers.<short>.assign_s``)
SCHEDULER_NAMES = {
    "StaticScheduler": "static",
    "AffinityScheduler": "affinity",
    "BreadthFirstScheduler": "breadth_first",
    "PerfAwareScheduler": "perf_aware",
}


def _count_instances(key):
    def count(tracer, graph, args):
        tracer.counts[key] += len(graph.instances)
    return count


def _count_edges(tracer, graph, args):
    tracer.counts["dependence.edges"] += graph.n_edges


def _count_run_instances(tracer, artifact, args):
    # RuntimeEngine.execute(self, graph, scheduler)
    tracer.counts["executor.instances"] += len(args[1].instances)


def _count_records(tracer, summary, args):
    tracer.counts["artifact.records"] += summary.record_count


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every traced layer; returns layer -> number of patched sites."""
    # import every module that defines or imports a wrapped name first,
    # so the import-site scan sees all of them
    import repro.apps.registry  # noqa: F401
    import repro.bench.experiments  # noqa: F401
    import repro.bench.matchup  # noqa: F401
    import repro.bench.validation  # noqa: F401
    import repro.core.tournament  # noqa: F401
    import repro.partition  # noqa: F401
    import repro.partition.search  # noqa: F401
    import repro.runtime.schedulers  # noqa: F401
    import repro.sim.plan  # noqa: F401
    from repro.apps.base import Application
    from repro.artifact import TraceSummary
    from repro.partition.base import Strategy
    from repro.runtime.executor import RuntimeEngine
    from repro.runtime.schedulers.base import Scheduler
    from repro.sim.plan import PlanEvaluator

    sites: dict[str, int] = defaultdict(int)
    for fn in ("kernel_fingerprint", "device_fingerprint",
               "platform_fingerprint"):
        sites["cache.fingerprint"] += _patch_function(
            tracer, "repro.cache", fn, "cache.fingerprint")
    for fn in ("profile_kernel", "build_profile_table"):
        sites["profiling.profile"] += _patch_function(
            tracer, "repro.partition.profiling", fn, "profiling.profile")
    sites["graph.expand"] += _patch_function(
        tracer, "repro.runtime.graph", "expand_program", "graph.expand",
        _count_instances("graph.instances"))
    sites["dependence.build"] += _patch_function(
        tracer, "repro.runtime.dependence", "build_dependences",
        "dependence.build", _count_edges)
    sites["plan.compile"] += _patch_function(
        tracer, "repro.sim.plan", "compile_plan", "plan.compile")
    sites["harness.dispatch"] += _patch_function(
        tracer, "repro.bench.harness", "run_sweep_iter", "harness.dispatch")
    sites["search.space"] += _patch_function(
        tracer, "repro.partition.search", "search_plan", "search.space")
    sites["core.tournament"] += _patch_function(
        tracer, "repro.core.tournament", "run_tournament", "core.tournament")

    for cls in _subclasses(Application):
        sites["apps.program"] += _patch_method(
            tracer, cls, "program", "apps.program")
    for cls in _subclasses(Strategy):
        sites["partition.plan"] += _patch_method(
            tracer, cls, "plan", "partition.plan")
    sites["partition.run"] += _patch_method(
        tracer, Strategy, "run", "partition.run", new_run=True)
    for cls in _subclasses(Scheduler)[1:]:
        layer = f"schedulers.{SCHEDULER_NAMES[cls.__name__]}.assign"
        sites[layer] += _patch_method(tracer, cls, "assign", layer)
    sites["executor.execute"] += _patch_method(
        tracer, RuntimeEngine, "execute", "executor.execute",
        _count_run_instances)
    sites["plan.evaluate"] += _patch_method(
        tracer, PlanEvaluator, "evaluate", "plan.evaluate")
    sites["artifact.summary"] += _patch_method(
        tracer, TraceSummary, "from_store", "artifact.summary",
        _count_records)
    return dict(sites)
