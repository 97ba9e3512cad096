"""Differential tests of the staged trace-ingestion path.

:class:`TraceLane` staging exists purely for speed: it must be
observationally identical to row-at-a-time ``record()`` — same pickle
bytes for grouped streams, same ``analyze_trace`` output, same labels
and metadata — for randomized occupation streams, with and without
numpy (``REPRO_NO_NUMPY=1`` exercises the pure-Python aggregate
fallbacks).
"""

import pickle

import numpy as np
import pytest

from repro.sim.analysis import analyze_trace
from repro.sim.trace import ExecutionTrace
from repro.sim.tracestore import TraceStore

CATEGORIES = ("compute", "transfer", "overhead")
KINDS = ("cpu", "gpu")
KERNELS = ("copy", "scale", "triad")


def _random_runs(seed: int, runs: int = 12, max_rows: int = 40):
    """Randomized homogeneous (resource, category) occupation runs.

    Each run is ``(resource_id, category, starts, ends, labels, metas)``
    with a mix of plain-string and lazy-tuple labels and rows with and
    without metadata — the full shape space ``record`` accepts.
    """
    rng = np.random.default_rng(seed)
    out = []
    for r in range(runs):
        rid = f"{KINDS[int(rng.integers(2))]}:{int(rng.integers(3))}"
        category = CATEGORIES[int(rng.integers(len(CATEGORIES)))]
        k = int(rng.integers(1, max_rows))
        starts, ends, labels, metas = [], [], [], []
        t = float(rng.uniform(0.0, 5.0))
        for i in range(k):
            dur = float(rng.uniform(0.0, 2.0))
            starts.append(t)
            ends.append(t + dur)
            t += dur
            if rng.random() < 0.4:
                labels.append(f"run{r} row{i}")
            else:
                labels.append(("{}[{}:{})#{}", rid, i, i + 1, r))
            if rng.random() < 0.3:
                metas.append(None)
            elif category == "compute":
                metas.append({
                    "size": int(rng.integers(1, 10_000)),
                    "device_kind": KINDS[int(rng.integers(2))],
                    "kernel": KERNELS[int(rng.integers(3))],
                    "iteration": i,
                })
            else:
                metas.append({
                    "direction": ("h2d", "d2h")[int(rng.integers(2))],
                    "bytes": int(rng.integers(1, 1 << 20)),
                })
        out.append((rid, category, starts, ends, labels, metas))
    return out


@pytest.fixture(params=[False, True], ids=["numpy", "no-numpy"])
def maybe_no_numpy(request, monkeypatch):
    if request.param:
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    return request.param


class TestLaneParity:
    def test_grouped_streams_pickle_identical_to_record(self):
        """Lane ingestion == record() when rows arrive stream-grouped.

        Same rows, same order, full hot-metadata agreement: the staged
        path must produce byte-identical pickles, intern pools included.
        """
        runs = _random_runs(3, runs=6)
        recorded, laned = TraceStore(), TraceStore()
        for run_no, (rid, category, starts, ends, _, _) in enumerate(runs):
            kind = KINDS[run_no % 2]
            lane = laned.lane(
                rid, category, "{}#{}", device_kind=kind, device=rid,
            )
            # the record() side interns lane constants at first row; the
            # lane side at creation — grouped appends make the pool
            # first-appearance orders coincide
            for i, (s, e) in enumerate(zip(starts, ends)):
                meta = {
                    "size": i + 1, "device_kind": kind,
                    "kernel": KERNELS[i % 3], "device": rid,
                }
                recorded.record(rid, ("{}#{}", rid, i), category, s, e, meta)
                lane.append(
                    s, e, (rid, i),
                    size=i + 1, kernel=KERNELS[i % 3], meta=dict(meta),
                )
        assert pickle.dumps(recorded, 5) == pickle.dumps(laned, 5)

    def test_interleaved_streams_match_analytics(self, maybe_no_numpy):
        """Interleaved lane appends regroup rows but keep every query.

        Row order differs from chronological record() ingestion (staged
        rows land grouped by lane), so pickles legitimately differ; all
        aggregates, labels and metadata must not.
        """
        rng = np.random.default_rng(7)
        recorded, laned = TraceStore(), TraceStore()
        lanes = {
            rid: laned.lane(rid, "compute", "{} {}", device_kind="cpu")
            for rid in ("a", "b", "c")
        }
        rows = []
        t = 0.0
        for i in range(120):
            rid = ("a", "b", "c")[int(rng.integers(3))]
            dur = float(rng.uniform(0.0, 1.0))
            rows.append((rid, t, t + dur, i))
            t += dur
        for rid, s, e, i in rows:
            meta = {"size": i, "device_kind": "cpu", "idx": i}
            recorded.record(rid, ("{} {}", rid, i), "compute", s, e, meta)
            lanes[rid].append(s, e, (rid, i), size=i, meta=dict(meta))
        a, b = ExecutionTrace(recorded), ExecutionTrace(laned)
        assert analyze_trace(a) == analyze_trace(b)
        assert recorded.makespan() == laned.makespan()
        for rid in ("a", "b", "c"):
            assert recorded.busy_time(rid) == laned.busy_time(rid)
            assert (
                [recorded.label_at(r) for r in recorded.rows_by_resource(rid)]
                == [laned.label_at(r) for r in laned.rows_by_resource(rid)]
            )
            assert (
                [recorded.meta_at(r) for r in recorded.rows_by_resource(rid)]
                == [laned.meta_at(r) for r in laned.rows_by_resource(rid)]
            )

    def test_staged_rows_flush_on_any_read(self):
        store = TraceStore()
        lane = store.lane("r", "compute", "x {}")
        lane.append(0.0, 1.0, (1,))
        lane.append(1.0, 3.0, (2,))
        assert store.staged_rows() == 2
        assert len(store) == 2  # __len__ flushes
        assert store.staged_rows() == 0
        assert store.label_at(1) == "x 2"
        assert store.makespan() == 3.0
        # lanes stay usable after a flush
        lane.append(3.0, 4.0, (3,))
        assert store.makespan() == 4.0


class TestMetaOwnership:
    def test_shared_dict_defensively_copied_by_default(self):
        store = TraceStore()
        shared = {"size": 1, "device_kind": "cpu"}
        store.record("r", "x", "compute", 0.0, 1.0, shared)
        shared["size"] = 999
        shared["injected"] = True
        assert store.meta_at(0) == {"size": 1, "device_kind": "cpu"}

    def test_own_meta_skips_the_copy(self):
        store = TraceStore()
        handed_over = {"size": 1}
        store.record("r", "x", "compute", 0.0, 1.0, handed_over, True)
        assert store.meta_at(0) is handed_over
