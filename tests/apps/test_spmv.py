"""SpMV: the imbalanced extension workload."""

import numpy as np
import pytest

from repro.apps.spmv import SpMV, row_lengths
from repro.core.analyzer import analyze
from repro.core.classes import AppClass
from repro.runtime.functional import run_chunked, run_sequential
from repro.runtime.kernels import AccessPattern


@pytest.fixture
def app():
    return SpMV()


class TestStructure:
    def test_classified_sk_one(self, app):
        report = analyze(app, n=512)
        assert report.app_class is AppClass.SK_ONE
        assert report.best_strategy == "SP-Single"

    def test_row_lengths_deterministic_and_sorted(self):
        a = row_lengths(1000)
        b = row_lengths(1000)
        np.testing.assert_array_equal(a, b)
        assert (np.diff(a) <= 0).all()  # degree-ordered
        assert (a >= 1).all()

    def test_programs_share_one_row_lengths_draw(self, app):
        row_lengths.cache_clear()
        app.program(256)
        app.program(256)
        info = row_lengths.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert row_lengths(256) is row_lengths(256)

    def test_shared_row_lengths_are_read_only(self):
        lengths = row_lengths(256)
        assert not lengths.flags.writeable
        with pytest.raises(ValueError):
            lengths[0] = 0

    def test_arrays_stay_writable(self, app):
        arrays = app.arrays(256)
        assert all(a.flags.writeable for a in arrays.values())
        arrays["row_ptr"][0] = 0  # the caller owns its copy

    def test_kernel_carries_work_prefix(self, app):
        program = app.program(256)
        kernel = program.kernels[0]
        assert kernel.imbalanced
        assert kernel.total_work == float(kernel.work_prefix[-1])

    def test_csr_arrays_are_prefix_accesses(self, app):
        program = app.program(256)
        kernel = program.kernels[0]
        patterns = {a.array.name: a.pattern for a in kernel.accesses}
        assert patterns["vals"] is AccessPattern.PREFIX
        assert patterns["cols"] is AccessPattern.PREFIX
        assert patterns["x"] is AccessPattern.FULL

    def test_prefix_regions_follow_row_ptr(self, app):
        program = app.program(128)
        kernel = program.kernels[0]
        vals_access = next(
            a for a in kernel.accesses if a.array.name == "vals"
        )
        region = vals_access.region(10, 20)
        row_ptr = app.arrays(128)["row_ptr"]
        assert (region.start, region.end) == (row_ptr[10], row_ptr[20])


class TestNumerics:
    def test_matches_reference(self, app):
        n = 200
        arrays = app.arrays(n, seed=6)
        out = run_sequential(app.program(n), arrays)
        np.testing.assert_allclose(
            out["y"], SpMV.reference(arrays, n), rtol=1e-4, atol=1e-4
        )

    @pytest.mark.parametrize("chunks", [2, 7, 31])
    def test_partitioning_is_exact(self, app, chunks):
        n = 200
        arrays = app.arrays(n, seed=7)
        whole = run_sequential(app.program(n), arrays)
        parts = run_chunked(app.program(n), arrays, n_chunks=chunks)
        np.testing.assert_array_equal(whole["y"], parts["y"])

    def test_empty_rows_handled(self, app):
        # fabricate a matrix with empty rows via a zero-length segment
        n = 4
        arrays = {
            "row_ptr": np.array([0, 2, 2, 5, 6]),
            "vals": np.array([1, 2, 3, 4, 5, 6], dtype=np.float32),
            "cols": np.array([0, 1, 1, 2, 3, 0], dtype=np.int32),
            "x": np.ones(n, dtype=np.float32),
            "y": np.zeros(n, dtype=np.float32),
        }
        from repro.apps.spmv import _spmv_impl

        _spmv_impl(arrays, 0, 4, 4, n_rows=4)
        np.testing.assert_allclose(arrays["y"], [3.0, 0.0, 12.0, 6.0])


class TestImbalancedBehaviour:
    def test_sp_single_splits_by_work(self, app, paper_platform):
        from repro.partition import get_strategy

        plan = get_strategy("SP-Single").plan(
            app.program(), paper_platform
        )
        decision = plan.decision.notes["imbalanced"]
        # with degree-ordered rows the GPU's index share is much smaller
        # than its work share
        assert decision.gpu_index_fraction < decision.gpu_fraction * 0.7

    def test_weighted_split_beats_uniform_split(self, app, paper_platform):
        """The ref-[9] headline on our substrate."""
        from repro.partition import (
            PlanConfig,
            dynamic_as_static_plan,
            get_strategy,
            run_plan,
        )

        program = app.program()
        plan = get_strategy("SP-Single").plan(program, paper_platform)
        weighted = run_plan(plan, paper_platform)
        work_ratio = plan.decision.notes["imbalanced"].gpu_fraction
        uniform = run_plan(
            dynamic_as_static_plan(
                program, paper_platform, work_ratio, config=PlanConfig()
            ),
            paper_platform,
        )
        assert weighted.makespan_s < uniform.makespan_s * 0.9

    def test_sp_single_beats_baselines(self, app, paper_platform):
        from repro.partition import get_strategy

        program = app.program()
        sp = get_strategy("SP-Single").run(program, paper_platform)
        og = get_strategy("Only-GPU").run(program, paper_platform)
        oc = get_strategy("Only-CPU").run(program, paper_platform)
        assert sp.makespan_s < og.makespan_s
        assert sp.makespan_s < oc.makespan_s

    def test_work_aware_dp_perf_handles_imbalance(self, app, paper_platform):
        from repro.partition import get_strategy

        program = app.program()
        dp = get_strategy("DP-Perf").run(program, paper_platform)
        dd = get_strategy("DP-Dep").run(program, paper_platform)
        assert dp.makespan_s <= dd.makespan_s * 1.12  # Proposition 1 holds
