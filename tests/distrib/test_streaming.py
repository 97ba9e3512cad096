"""Streaming sweeps: incremental yields, parity, dedupe, adaptive sizing.

``run_sweep_iter`` must genuinely stream on every backend (the first
completed cell arrives before the last one finishes), and collecting its
``(index, artifact)`` pairs must reproduce the buffered ``run_sweep``
output byte-for-byte — including when a worker dies after streaming part
of a batch (re-dispatch must dedupe the already-streamed cells) and when
the pool is skewed (the adaptive dispatcher must shift cells to the fast
worker, and beat fixed batching on makespan under a scripted latency
model).  Ordering is proven with sentinel gates, never wall-clock
thresholds.
"""

import pickle
import time
from dataclasses import replace

import repro.bench.harness as harness
from repro.bench.harness import SweepCell, run_sweep, run_sweep_iter
from repro.distrib import DistributedSweepExecutor, WorkerServer, last_sweep_reports
from repro.distrib.executor import _AdaptiveBatcher

from tests.distrib.test_distributed import _cells, _spawn_worker, _warm_serial


def _light_cells(platform, count=20):
    """Cheap cells (a few ms each) so injected worker delays dominate."""
    strategies = ("Only-CPU", "Only-GPU", "DP-Perf", "SP-Unified", "DP-Dep")
    return [
        SweepCell(
            app="STREAM-Loop", strategy=strategies[i % len(strategies)],
            platform=platform, n=256, iterations=1, sync=False,
        )
        for i in range(count)
    ]


def _collect(pairs, total):
    """Reorder completion-ordered pairs into cell order (no cell lost)."""
    results = [None] * total
    for index, artifact in pairs:
        assert results[index] is None, f"cell {index} yielded twice"
        results[index] = artifact
    assert all(r is not None for r in results)
    return results


def _pickles(artifacts):
    return [pickle.dumps(a, 5) for a in artifacts]


#: ``"path"``: the sentinel file the gated cells wait on (set before the
#: pool forks its workers)
_GATE: dict = {}

_REAL_RUN_CELL = harness._run_cell

#: deadlock guard only: a sweep that never streams leaves the gated
#: cells waiting, and they fail after this long instead of hanging
_GATE_TIMEOUT_S = 60.0


def _gated_run_cell(cell, detail):
    """Pool-side cell runner: three-iteration cells wait for the sentinel."""
    if cell.iterations == 3:
        deadline = time.monotonic() + _GATE_TIMEOUT_S
        while not _GATE["path"].exists():
            if time.monotonic() > deadline:
                raise RuntimeError(
                    "gate never released: no pair was yielded while "
                    "later cells were still waiting to start"
                )
            time.sleep(0.005)
    return _REAL_RUN_CELL(cell, detail)


class TestStreamedParity:
    """Streamed-then-reordered output is byte-identical to buffered."""

    def test_serial_backend(self, paper_platform):
        cells = _cells(paper_platform)
        buffered = _warm_serial(cells)
        streamed = _collect(run_sweep_iter(cells), len(cells))
        assert _pickles(streamed) == _pickles(buffered)

    def test_jobs_backend(self, paper_platform):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        streamed = _collect(run_sweep_iter(cells, jobs=2), len(cells))
        buffered = run_sweep(cells, jobs=2)
        assert _pickles(streamed) == _pickles(buffered)
        # canonicalization makes the pool backend match serial bytes too
        assert _pickles(streamed) == _pickles(serial)

    def test_distributed_backend(self, paper_platform):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        server = WorkerServer().start()
        try:
            streamed = _collect(
                run_sweep_iter(cells, workers=[server.endpoint]), len(cells)
            )
            buffered = run_sweep(cells, workers=[server.endpoint])
        finally:
            server.stop()
        assert _pickles(streamed) == _pickles(buffered)
        assert _pickles(streamed) == _pickles(serial)


class TestFirstCellBeforeLast:
    """The generator yields while later cells are still executing."""

    def test_serial_yields_after_each_cell(self, paper_platform, monkeypatch):
        cells = _cells(paper_platform)
        _warm_serial(cells)
        executed = []
        real = harness._run_cell

        def counting(cell, detail):
            executed.append(cell.strategy)
            return real(cell, detail)

        monkeypatch.setattr(harness, "_run_cell", counting)
        iterator = run_sweep_iter(cells)
        next(iterator)
        # exactly one cell has executed when the first pair arrives
        assert len(executed) == 1
        list(iterator)
        assert len(executed) == len(cells)

    def test_jobs_arrivals_are_spread(
        self, paper_platform, monkeypatch, tmp_path
    ):
        early = _cells(paper_platform)
        late = [replace(cell, iterations=3) for cell in early]
        cells = early + late  # 10 cells over 2 workers
        _warm_serial(cells)
        gate = tmp_path / "release"
        monkeypatch.setattr(harness, "_run_cell", _gated_run_cell)
        monkeypatch.setitem(_GATE, "path", gate)
        # the late cells cannot start until the sentinel exists, and the
        # sentinel is written only once the first pair has arrived: a
        # collect-then-yield implementation never releases it, so its
        # late cells hit the deadlock guard and the sweep raises
        indices = []
        for index, _ in run_sweep_iter(cells, jobs=2):
            if not indices:
                gate.touch()
            indices.append(index)
        assert indices[0] < len(early)
        assert sorted(indices) == list(range(len(cells)))

    def test_distributed_arrivals_follow_cell_cadence(
        self, paper_platform, monkeypatch, tmp_path
    ):
        early = _cells(paper_platform)
        cells = early + [replace(early[-1], iterations=3)]
        _warm_serial(cells)
        gate = tmp_path / "release"
        monkeypatch.setattr(harness, "_run_cell", _gated_run_cell)
        monkeypatch.setitem(_GATE, "path", gate)
        # the whole sweep is one batch on one in-process worker: its last
        # cell cannot start until the sentinel exists, and the sentinel
        # is written only once the first pair has arrived — a worker (or
        # client) that buffers the batch never releases it, so the last
        # cell hits the deadlock guard and the sweep raises
        server = WorkerServer().start()
        try:
            indices = []
            for index, _ in run_sweep_iter(
                cells, workers=[server.endpoint], batch_size=len(cells)
            ):
                if not indices:
                    gate.touch()
                indices.append(index)
        finally:
            server.stop()
        assert indices == list(range(len(cells)))


class TestMidStreamDeath:
    """Dying after streaming part of a batch must not double-yield."""

    def test_partial_batch_dedupes_and_stays_byte_identical(
        self, paper_platform
    ):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        # fail_after=1 with a 3-cell batch: the first batch streams one
        # cell, then the worker drops dead mid-batch — the two unstreamed
        # cells must be re-dispatched, the streamed one must not be
        dying = WorkerServer(fail_after=1, delay_per_cell=0.02).start()
        healthy = WorkerServer().start()
        try:
            executor = DistributedSweepExecutor(
                [dying.endpoint, healthy.endpoint], batch_size=3
            )
            streamed = _collect(executor.run_iter(cells), len(cells))
        finally:
            dying.stop()
            healthy.stop()
        # in-process workers share this process's global cache counters,
        # so concurrent cells race on the per-run cache_stats delta;
        # normalize it out here (the subprocess test below asserts full
        # byte-identity across real process boundaries)
        normalize = [replace(a, cache_stats={}) for a in streamed]
        reference = [replace(a, cache_stats={}) for a in serial]
        assert _pickles(normalize) == _pickles(reference)
        dead = [r for r in executor.reports if not r.alive]
        assert len(dead) == 1 and dead[0].endpoint == dying.endpoint
        # the dead worker really streamed part of its batch before dying,
        # so the dedupe path (not just whole-batch re-dispatch) ran
        assert dead[0].cells == 1
        assert sum(r.redispatched_batches for r in executor.reports) >= 1
        survivor = next(r for r in executor.reports if r.alive)
        assert survivor.cells == len(cells) - 1

    def test_subprocess_worker_killed_mid_stream(
        self, paper_platform, tmp_path
    ):
        cells = _cells(paper_platform)
        serial = _warm_serial(cells)
        p1, e1 = _spawn_worker(
            tmp_path, "dying",
            extra=("--fail-after", "1", "--delay-per-cell", "0.02"),
        )
        p2, e2 = _spawn_worker(tmp_path, "healthy")
        try:
            streamed = _collect(
                run_sweep_iter(cells, workers=[e1, e2], batch_size=3),
                len(cells),
            )
        finally:
            p1.terminate()
            p2.terminate()
        assert _pickles(streamed) == _pickles(serial)
        dead = [r for r in last_sweep_reports() if not r.alive]
        assert len(dead) == 1 and dead[0].endpoint == e1


def _replay_pull_dispatch(cell_s, n_cells, **executor_kwargs):
    """Replay the executor's pull loop against scripted cell latencies.

    Worker ``w`` streams one cell per ``cell_s[w]`` seconds.  Whenever a
    worker is idle it takes ``min(next_size(), pending)`` cells from the
    queue, feeds each cell's latency to its own batch controller (the
    executor's, configured from ``executor_kwargs``), and is idle again
    at the batch's end; ties go to the lower worker index.  Returns the
    makespan and each worker's dispatch sizes.
    """
    executor = DistributedSweepExecutor(
        [("127.0.0.1", 1 + w) for w in range(len(cell_s))], **executor_kwargs
    )
    controllers = [
        _AdaptiveBatcher(
            target_quantum_s=executor.target_quantum_s,
            alpha=executor.ewma_alpha,
            probe=executor.probe_batch,
            max_dispatch=executor.max_dispatch,
            fixed=executor.batch_size,
        )
        for _ in cell_s
    ]
    free_at = [0.0] * len(cell_s)
    dispatches = [[] for _ in cell_s]
    pending = n_cells
    while pending:
        w = min(range(len(cell_s)), key=lambda i: (free_at[i], i))
        size = min(controllers[w].next_size(), pending)
        pending -= size
        dispatches[w].append(size)
        for _ in range(size):
            controllers[w].observe(cell_s[w])
        free_at[w] += size * cell_s[w]
    return max(free_at), dispatches


class TestAdaptiveSkewedPool:
    """One delayed worker: adaptive sizing shifts work and beats fixed."""

    def _run_pool(self, cells, delay, **executor_kwargs):
        fast = WorkerServer().start()
        slow = WorkerServer(delay_per_cell=delay).start()
        try:
            executor = DistributedSweepExecutor(
                [fast.endpoint, slow.endpoint], **executor_kwargs
            )
            results = executor.run(cells)
        finally:
            fast.stop()
            slow.stop()
        by_endpoint = {r.endpoint: r for r in executor.reports}
        return results, by_endpoint[fast.endpoint], by_endpoint[slow.endpoint]

    def test_adaptive_beats_fixed_batching(self, paper_platform):
        cells = _light_cells(paper_platform)
        serial = _warm_serial(cells)

        adaptive, fast, slow = self._run_pool(cells, 0.08)
        # the fast worker must take strictly more of the queue
        assert fast.cells > slow.cells
        assert fast.cells + slow.cells == len(cells)
        # adaptive sizing: the fast worker's dispatches grew past the probe
        assert fast.largest_batch > 1
        assert fast.ewma_cell_s is not None and slow.ewma_cell_s is not None
        assert slow.ewma_cell_s > fast.ewma_cell_s

        half = len(cells) // 2
        fixed, *reports = self._run_pool(cells, 0.08, batch_size=half)
        # a pinned size is never adapted: every dispatch is exactly half
        # the sweep, whichever worker took it
        assert sum(r.cells for r in reports) == len(cells)
        for report in reports:
            assert report.cells == half * report.batches
            assert report.largest_batch in (0, half)

        # the makespan claim, on the same injected delay and a scripted
        # few-ms cell: fixed batching strands half the sweep behind the
        # slow worker, adaptive sizing gives it only its probe cell
        cell_s = (0.004, 0.004 + 0.08)
        adaptive_s, adaptive_plan = _replay_pull_dispatch(cell_s, len(cells))
        fixed_s, fixed_plan = _replay_pull_dispatch(
            cell_s, len(cells), batch_size=half
        )
        assert adaptive_plan == [[1, len(cells) - 2], [1]]
        assert fixed_plan == [[half], [half]]
        assert adaptive_s == cell_s[1]
        assert fixed_s == half * cell_s[1]
        assert adaptive_s < fixed_s

        # two in-process workers race on this process's global cache
        # counters (see TestMidStreamDeath), so compare with the per-run
        # cache_stats delta normalized out
        reference = _pickles([replace(a, cache_stats={}) for a in serial])
        assert _pickles([replace(a, cache_stats={}) for a in adaptive]) == \
            reference
        assert _pickles([replace(a, cache_stats={}) for a in fixed]) == \
            reference


class TestProgress:
    """`progress=True` reports completed/total to stderr as cells land."""

    def test_serial_progress_lines(self, paper_platform, capsys):
        cells = _cells(paper_platform, strategies=("Only-CPU", "Only-GPU"))
        _warm_serial(cells)
        capsys.readouterr()
        run_sweep(cells, progress=True)
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[sweep]")]
        assert lines == ["[sweep] 1/2 cells", "[sweep] 2/2 cells"]

    def test_distributed_progress_counts_every_cell(
        self, paper_platform, capsys
    ):
        cells = _cells(paper_platform)
        _warm_serial(cells)
        server = WorkerServer().start()
        try:
            capsys.readouterr()
            run_sweep(cells, workers=[server.endpoint], progress=True)
        finally:
            server.stop()
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[sweep]")]
        assert len(lines) == len(cells)
        assert lines[-1] == f"[sweep] {len(cells)}/{len(cells)} cells"
