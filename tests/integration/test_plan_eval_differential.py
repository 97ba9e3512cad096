"""Differential suite: the compiled plan evaluator vs the general engine.

A plan picks its own run path: ``Strategy.run`` compiles every plan,
runs a static one on :class:`~repro.sim.plan.PlanEvaluator`, and falls
back to :class:`RuntimeEngine` only when compilation fails (a dynamic
scheduler).  The evaluator's contract mirrors the fast event core's: it
must be *indistinguishable* from a directly called
:meth:`RuntimeEngine.execute` on the same plan — summary artifacts agree
on makespan and every per-resource busy time bit for bit, and full-trace
artifacts pickle to identical bytes (the drain is disabled in full
detail, so byte identity covers the non-drain plumbing while the summary
matrix covers the drain itself).  Each routed run moves ``drain_stats()``
by exactly one evaluation (static plan) or one compile error (dynamic
plan).

In-process comparisons use structural equality on cache-cold artifacts;
byte identity is checked across fresh subprocesses for the same
``sys.intern`` reason as ``test_fast_engine_differential``.
"""

import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.cache as cache
from repro.apps import get_application
from repro.bench.harness import SweepCell
from repro.errors import PlanCompileError, StrategyInapplicableError
from repro.partition.base import PlanConfig, get_strategy
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.sim.plan import drain_stats

#: static strategies (must compile) + dynamic ones (must fall back)
STRATEGIES = ("Only-CPU", "Only-GPU", "SP-Single", "SP-Unified", "SP-Varied")
FALLBACK_STRATEGIES = ("DP-Perf", "DP-Dep")

#: (app, n, iterations) — small instances spanning the app classes,
#: including sync-free loops (which drain) and synced ones (which don't)
APPS = [
    ("STREAM-Loop", 2048, 4),
    ("MatrixMul", 128, 1),
    ("BlackScholes", 2048, 1),
    ("Cholesky", 6, 1),  # n counts tiles, not elements
    ("SpMV", 2048, 1),
]

#: (app, n, iterations) — per-iteration-sync scenarios: every loop body
#: ends at a barrier, so the terminal drain never fires and parity rides
#: on the wave drain (or its per-wave fallback to the event loop)
SYNCED_APPS = [
    ("HotSpot", 1024, 4),
    ("Nbody", 512, 3),
    ("FDTD", 512, 3),
]

#: dynamic schedulers exercised on synced cells (must compile-fail)
SYNCED_FALLBACK_STRATEGIES = ("HYB-Static", "DP-Perf")


def _cell(platform, app, n, iterations, strategy, *, sync=False):
    return SweepCell(app=app, strategy=strategy, platform=platform,
                     n=n, iterations=iterations, sync=sync)


def run_cell(cell, detail, *, engine):
    """One cache-cold run of ``cell``, or ``StrategyInapplicableError``.

    ``engine=False`` is the routed path: ``Strategy.run`` with no runtime
    config, which picks the evaluator or the engine by itself.  Both
    paths plan with ``cell.config``.
    ``engine=True`` is the oracle: the same plan, configured exactly as
    ``Strategy.run`` configures it, executed by a directly called
    :meth:`RuntimeEngine.execute`.
    """
    cache.clear_all()
    program = get_application(cell.app).program(
        cell.n, iterations=cell.iterations, sync=cell.sync
    )
    strategy = get_strategy(cell.strategy)
    try:
        if not engine:
            return strategy.run(
                program, cell.platform, config=cell.config, detail=detail
            )
        config = cell.config or PlanConfig()
        before = cache.counters()
        plan = strategy.plan(program, cell.platform, config)
    except StrategyInapplicableError:
        return StrategyInapplicableError
    runtime_config = replace(
        RuntimeConfig(cpu_threads=config.threads(cell.platform)),
        **plan.runtime_overrides,
    )
    artifact = RuntimeEngine(cell.platform, config=runtime_config).execute(
        plan.graph, plan.scheduler, detail=detail
    )
    return artifact.with_context(
        decision=plan.decision, cache_stats=cache.stats_delta(before)
    )


def _routed(cell, detail="summary", *, compiles):
    """The routed run, checking it moved exactly one drain counter."""
    before = drain_stats()
    artifact = run_cell(cell, detail, engine=False)
    after = drain_stats()
    if artifact is not StrategyInapplicableError:
        moved = {
            key: after[key] - before[key]
            for key in ("evaluations", "compile_errors")
        }
        counter = "evaluations" if compiles else "compile_errors"
        assert moved == {"evaluations": 0, "compile_errors": 0, counter: 1}
    return artifact


def _engine(cell, detail="summary"):
    return run_cell(cell, detail, engine=True)


@pytest.mark.parametrize("app,n,iterations", APPS)
def test_summary_identical_across_static_strategies(paper_platform, app, n,
                                                    iterations):
    for strategy in STRATEGIES:
        cell = _cell(paper_platform, app, n, iterations, strategy)
        ref = _engine(cell)
        ev = _routed(cell, compiles=True)
        if ref is StrategyInapplicableError:
            assert ev is StrategyInapplicableError
            continue
        assert ev.makespan_ms == ref.makespan_ms, strategy
        assert ev.summary == ref.summary, strategy
        assert ev == ref, strategy


@pytest.mark.parametrize("strategy", FALLBACK_STRATEGIES)
def test_dynamic_strategies_fall_back_identically(paper_platform, strategy):
    cell = _cell(paper_platform, "STREAM-Loop", 2048, 2, strategy)
    ref = _engine(cell)
    ev = _routed(cell, compiles=False)
    assert ev == ref


def test_dynamic_plans_raise_plan_compile_error(paper_platform):
    from repro.sim.plan import compile_plan

    prog = get_application("STREAM-Loop").program(2048, iterations=2)
    plan = get_strategy("DP-Perf").plan(prog, paper_platform)
    with pytest.raises(PlanCompileError):
        compile_plan(plan, paper_platform)


def test_full_detail_identical(paper_platform):
    """Full-trace runs bypass the drain and match structurally in-process."""
    cell = _cell(paper_platform, "STREAM-Loop", 2048, 4, "SP-Unified")
    ref = _engine(cell, "full")
    ev = _routed(cell, "full", compiles=True)
    assert list(ev.trace) == list(ref.trace)
    assert ev == ref


def test_forced_fraction_cells_identical(paper_platform):
    """The search's forced-split cells hold parity too."""
    for frac in (0.0, 0.5, 1.0):
        cell = SweepCell(
            app="STREAM-Loop", strategy="SP-Unified",
            platform=paper_platform, n=2048, iterations=4, sync=False,
            config=PlanConfig(gpu_fraction=frac),
        )
        ref = _engine(cell)
        ev = _routed(cell, compiles=True)
        assert ev == ref, frac


#: runs one cell in a fresh interpreter through this module's
#: ``run_cell`` (argv: this directory, app, strategy, n, iterations,
#: sync|nosync, detail, routed|engine) and writes the artifact's pickle
SUBPROCESS_SCRIPT = (
    "import pickle, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from test_plan_eval_differential import SweepCell, run_cell\n"
    "from repro.platform import shen_icpp15_platform\n"
    "app, strategy, n, iterations, sync, detail, path = sys.argv[2:]\n"
    "cell = SweepCell(app=app, strategy=strategy,\n"
    "                 platform=shen_icpp15_platform(), n=int(n),\n"
    "                 iterations=int(iterations), sync=sync == 'sync')\n"
    "artifact = run_cell(cell, detail, engine=path == 'engine')\n"
    "sys.stdout.buffer.write(pickle.dumps(artifact, 5))\n"
)


def _dump(cell_args, detail, path, **env_flags):
    """Pickle bytes of one fresh-process run; ``env_flags`` pins env vars."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(here.parents[1] / "src"),
               **env_flags)
    proc = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_SCRIPT, str(here), *cell_args,
         detail, path],
        env=env, capture_output=True, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("detail", ("summary", "full"))
def test_pickle_bytes_identical_in_fresh_processes(detail):
    """Byte identity across (routed vs engine × numpy) in fresh interpreters."""
    cell = ("STREAM-Loop", "SP-Unified", "2048", "4", "nosync")
    ref = _dump(cell, detail, "engine", REPRO_NO_NUMPY="0")
    assert len(ref) > 500
    for path, no_numpy in (("routed", "0"), ("routed", "1"), ("engine", "1")):
        got = _dump(cell, detail, path, REPRO_NO_NUMPY=no_numpy)
        assert got == ref, (path, no_numpy)
    artifact = pickle.loads(ref)
    assert artifact.makespan_ms > 0


def test_drain_engages_on_sync_free_loop(paper_platform):
    """Guards against silent regressions to the pure event loop."""
    from repro.sim.plan import _EvalRun, compile_plan

    prog = get_application("STREAM-Loop").program(2048, iterations=4,
                                                  sync=False)
    plan = get_strategy("SP-Unified").plan(prog, paper_platform)
    compiled = compile_plan(plan, paper_platform)
    assert compiled.drainable
    run = _EvalRun(paper_platform, compiled, "summary")
    run.go()
    assert run._drained


@pytest.mark.parametrize("detail", ("summary", "full"))
@pytest.mark.parametrize("strategy", ("SP-Single", "DP-Perf"))
def test_finished_runs_are_freed_by_refcount(paper_platform, monkeypatch,
                                             strategy, detail):
    """No reference cycle keeps a run (or its trace store) alive.

    With the cyclic collector off, a run that left a cycle behind would
    survive its artifact; both the evaluator's ``_EvalRun`` (static plan)
    and the engine's ``_Run`` (dynamic plan) must be gone by refcount.
    """
    import gc
    import weakref

    from repro.runtime.executor import _Run

    runs, stores = [], []
    real_init = _Run.__init__

    def tracked(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        runs.append(weakref.ref(self))
        stores.append(weakref.ref(self.trace.store))

    monkeypatch.setattr(_Run, "__init__", tracked)
    cell = _cell(paper_platform, "HotSpot", 1024, 4, strategy, sync=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        artifact = run_cell(cell, detail, engine=False)
        assert len(runs) == 1
        assert runs[0]() is None, type(runs[0]()).__name__
        # a full-detail artifact owns its trace; the store goes with it
        assert (stores[0]() is None) == (detail == "summary")
        del artifact
        assert stores[0]() is None
    finally:
        if was_enabled:
            gc.enable()


# -- per-iteration-sync apps: the wave drain ---------------------------------


@pytest.mark.parametrize("app,n,iterations", SYNCED_APPS)
def test_summary_identical_across_synced_apps(paper_platform, app, n,
                                              iterations):
    """Every applicable strategy holds parity on barrier-fenced loops."""
    for strategy in STRATEGIES + SYNCED_FALLBACK_STRATEGIES:
        cell = _cell(paper_platform, app, n, iterations, strategy, sync=True)
        ref = _engine(cell)
        ev = _routed(cell, compiles=strategy in STRATEGIES)
        if ref is StrategyInapplicableError:
            assert ev is StrategyInapplicableError, strategy
            continue
        assert ev.makespan_ms == ref.makespan_ms, strategy
        assert ev.summary == ref.summary, strategy
        assert ev == ref, strategy


def test_synced_full_detail_identical(paper_platform):
    """Full-trace synced runs bypass both drains and match structurally."""
    cell = _cell(paper_platform, "HotSpot", 1024, 4, "SP-Single", sync=True)
    ref = _engine(cell, "full")
    ev = _routed(cell, "full", compiles=True)
    assert list(ev.trace) == list(ref.trace)
    assert ev == ref


def test_wave_drain_engages_on_synced_loop(paper_platform):
    """Waves must actually drain — not silently fall back per barrier."""
    from repro.sim.plan import _EvalRun, compile_plan

    prog = get_application("HotSpot").program(1024, iterations=4, sync=True)
    plan = get_strategy("SP-Single").plan(prog, paper_platform)
    compiled = compile_plan(plan, paper_platform)
    assert compiled.drainable
    assert compiled.wave_next  # barrier -> next barrier chain was compiled
    run = _EvalRun(paper_platform, compiled, "summary")
    run.go()
    assert run._waves_drained > 0
    assert run._wave_fallbacks == 0


def _lanes_of(trace):
    """Trace rows grouped per resource lane, in firing order."""
    lanes = {}
    for rec in trace:
        lanes.setdefault(rec.resource_id, []).append(
            (rec.start, rec.end, rec.label, rec.category)
        )
    return lanes


@pytest.mark.parametrize("app,n,iterations", SYNCED_APPS)
@pytest.mark.parametrize("strategy", ("SP-Single", "SP-Unified", "SP-Varied"))
def test_wave_commits_never_reorder_lanes(paper_platform, app, n, iterations,
                                          strategy):
    """Property: wave commits append rows in the oracle's firing order.

    The committed wave writes each resource lane in one bulk
    ``extend_rows``; this checks row-by-row (start, end, label, category)
    equality against the pure event loop's lane contents, which is
    stronger than the summary equality the matrix tests assert (summaries
    aggregate, so they could mask two reorderings that cancel).
    """
    from repro.runtime.executor import _Run
    from repro.sim.plan import _EvalRun, compile_plan

    def build():
        cache.clear_all()
        prog = get_application(app).program(n, iterations=iterations,
                                            sync=True)
        try:
            plan = get_strategy(strategy).plan(prog, paper_platform)
        except StrategyInapplicableError:
            return None
        return compile_plan(plan, paper_platform)

    compiled = build()
    if compiled is None:
        pytest.skip(f"{strategy} inapplicable to {app}")
    oracle = _Run(paper_platform, compiled.config, compiled.graph,
                  compiled.scheduler)
    oracle.go(detail="summary")

    compiled = build()  # fresh graph/scheduler: runs are single-use
    ev = _EvalRun(paper_platform, compiled, "summary")
    ev.go(detail="summary")

    ref_lanes = _lanes_of(oracle.trace)
    ev_lanes = _lanes_of(ev.trace)
    assert set(ev_lanes) == set(ref_lanes)
    for key in ref_lanes:
        assert ev_lanes[key] == ref_lanes[key], key


@pytest.mark.parametrize("detail", ("summary", "full"))
def test_synced_pickle_bytes_identical_in_fresh_processes(detail):
    """Wave-drained artifacts are byte-identical across every engine tier."""
    cell = ("HotSpot", "SP-Single", "1024", "4", "sync")
    ref = _dump(cell, detail, "engine",
                REPRO_NO_NUMPY="0", REPRO_NO_FAST_ENGINE="0")
    assert len(ref) > 500
    combos = (
        ("routed", "0", "0"),
        ("routed", "1", "0"),
        ("engine", "1", "0"),
        ("routed", "0", "1"),
        ("routed", "1", "1"),
    )
    for path, no_numpy, no_fast in combos:
        got = _dump(cell, detail, path,
                    REPRO_NO_NUMPY=no_numpy, REPRO_NO_FAST_ENGINE=no_fast)
        assert got == ref, (path, no_numpy, no_fast)
    artifact = pickle.loads(ref)
    assert artifact.makespan_ms > 0
