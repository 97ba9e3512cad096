"""The probe/plan memo stores: counters, fingerprints, disablement,
and the disk-backed snapshots behind ``--cache-dir``."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.spmv import SpMV
from repro.cache import (
    SNAPSHOT_VERSION,
    _feed,
    MemoCache,
    cache_stats,
    clear_all,
    configure,
    counters,
    device_fingerprint,
    get_cache,
    kernel_fingerprint,
    load_snapshot,
    platform_fingerprint,
    save_snapshot,
    stats_delta,
)
from repro.partition.profiling import build_profile_table
from repro.runtime.kernels import (
    AccessPattern,
    AccessSpec,
    Kernel,
    KernelCostModel,
)
from repro.runtime.regions import AccessMode, ArraySpec

from tests.conftest import chain_program


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all()
    configure(enabled=True)
    yield
    clear_all()
    configure(enabled=True)


class TestMemoCache:
    def test_miss_then_hit(self):
        cache = MemoCache("t")
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute("k", lambda: calls.append(1) or 99) == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_distinct_keys_do_not_collide(self):
        cache = MemoCache("t")
        assert cache.get_or_compute(("a", 1), lambda: "x") == "x"
        assert cache.get_or_compute(("a", 2), lambda: "y") == "y"
        assert len(cache) == 2

    def test_clear_resets_counters(self):
        cache = MemoCache("t")
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert stats.hit_rate == 0.0

    def test_max_entries_stops_admitting(self):
        cache = MemoCache("t", max_entries=2)
        for i in range(4):
            cache.get_or_compute(i, lambda i=i: i)
        assert len(cache) == 2
        # un-admitted keys recompute every time
        calls = []
        cache.get_or_compute(3, lambda: calls.append(1) or 3)
        cache.get_or_compute(3, lambda: calls.append(1) or 3)
        assert len(calls) == 2

    def test_disabled_cache_always_computes(self):
        cache = MemoCache("t")
        cache.enabled = False
        calls = []
        cache.get_or_compute("k", lambda: calls.append(1) or 1)
        cache.get_or_compute("k", lambda: calls.append(1) or 1)
        assert len(calls) == 2
        assert len(cache) == 0


class TestRegistry:
    def test_get_cache_is_idempotent(self):
        assert get_cache("reg-test") is get_cache("reg-test")

    def test_cache_stats_snapshots_every_store(self):
        get_cache("reg-a").get_or_compute(1, lambda: 1)
        stats = cache_stats()
        assert "reg-a" in stats
        assert stats["reg-a"].misses == 1

    def test_configure_disables_all_stores(self):
        cache = get_cache("reg-b")
        configure(enabled=False)
        try:
            calls = []
            cache.get_or_compute("k", lambda: calls.append(1) or 1)
            cache.get_or_compute("k", lambda: calls.append(1) or 1)
            assert len(calls) == 2
            # newly created stores inherit the setting
            assert get_cache("reg-c").enabled is False
        finally:
            configure(enabled=True)


class TestFingerprints:
    def test_device_fingerprint_tracks_spec(self, paper_platform):
        host = paper_platform.host
        fp = device_fingerprint(host)
        assert fp == device_fingerprint(host)
        slower = dataclasses.replace(
            host.spec, mem_bandwidth_gbs=host.spec.mem_bandwidth_gbs / 2
        )
        patched = type(host)(host.device_id, slower, host.cost_model)
        assert device_fingerprint(patched) != fp

    def test_platform_fingerprint_tracks_links(self, paper_platform):
        from repro.bench.crossover import with_link_bandwidth

        fp = platform_fingerprint(paper_platform)
        assert fp == platform_fingerprint(paper_platform)
        faster = with_link_bandwidth(paper_platform, 96.0)
        assert platform_fingerprint(faster) != fp

    def test_kernel_fingerprint_ignores_impl(self):
        program = chain_program(1, n=64)
        kernel = program.kernels[0]
        fp = kernel_fingerprint(kernel)
        patched = dataclasses.replace(kernel, impl=lambda *a, **k: None)
        assert kernel_fingerprint(patched) == fp
        recosted = dataclasses.replace(
            kernel,
            cost=dataclasses.replace(
                kernel.cost, flops_per_elem=kernel.cost.flops_per_elem + 1
            ),
        )
        assert kernel_fingerprint(recosted) != fp


def _prefix_kernel(
    vals_prefix=(0, 3, 4, 9, 9), cols_prefix=(0, 1, 5, 6, 8), n=4
):
    """A small imbalanced kernel with two PREFIX accesses, a halo read,
    a multi-element write and a work prefix — every timing input
    :func:`kernel_fingerprint` reads."""
    vals_prefix = np.asarray(vals_prefix, dtype=np.int64)
    cols_prefix = np.asarray(cols_prefix, dtype=np.int64)
    return Kernel(
        name="k",
        cost=KernelCostModel(flops_per_elem=2.0, mem_bytes_per_elem=12.0),
        accesses=(
            AccessSpec(ArraySpec("vals", int(vals_prefix[-1])), AccessMode.IN,
                       AccessPattern.PREFIX, prefix=vals_prefix),
            AccessSpec(ArraySpec("cols", int(cols_prefix[-1])), AccessMode.IN,
                       AccessPattern.PREFIX, prefix=cols_prefix),
            AccessSpec(ArraySpec("x", n), AccessMode.IN, halo=1),
            AccessSpec(ArraySpec("y", 2 * n, 8), AccessMode.OUT,
                       elems_per_index=2),
        ),
        params={"rows": n},
        work_prefix=vals_prefix.astype(np.float64),
    )


def _patched(obj, **fields):
    """A shallow copy of frozen ``obj`` with ``fields`` set, unvalidated.

    A flipped byte can break an invariant the constructor checks (the
    work prefix must stay monotone); the fingerprint must see it anyway.
    """
    clone = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(clone, name, value)
    return clone


def _with_access(kernel, index, **fields):
    accesses = list(kernel.accesses)
    accesses[index] = dataclasses.replace(accesses[index], **fields)
    return dataclasses.replace(kernel, accesses=tuple(accesses))


#: one change to each timing input of ``_prefix_kernel`` (all valid kernels)
_TIMING_CHANGES = {
    "halo": lambda k: _with_access(k, 2, halo=2),
    "elems_per_index": lambda k: _with_access(k, 3, elems_per_index=3),
    "mode": lambda k: _with_access(k, 3, mode=AccessMode.INOUT),
    "pattern": lambda k: _with_access(
        k, 2, pattern=AccessPattern.FULL, halo=0
    ),
    "array_size": lambda k: _with_access(
        k, 2, array=ArraySpec("x", k.accesses[2].array.n_elems + 1)
    ),
    "elem_bytes": lambda k: _with_access(k, 3, array=ArraySpec("y", 8, 4)),
    "array_name": lambda k: _with_access(k, 2, array=ArraySpec("z", 4)),
    "cost": lambda k: dataclasses.replace(
        k, cost=dataclasses.replace(k.cost, mem_bytes_per_elem=16.0)
    ),
    "kernel_name": lambda k: dataclasses.replace(k, name="k2"),
    "dense_work": lambda k: dataclasses.replace(k, work_prefix=None),
}


def _tape(part) -> bytes:
    """The exact byte stream :func:`_digest` hashes for ``part``."""

    class Tape:
        def __init__(self):
            self.data = bytearray()

        def update(self, chunk):
            self.data += bytes(chunk)

    tape = Tape()
    _feed(tape, part)
    return bytes(tape.data)


#: nested digest parts: raw buffers, repr-fed scalars, and tuples of them
_parts = st.recursive(
    st.binary(max_size=6) | st.integers() | st.text(max_size=4) | st.none(),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


class TestFingerprintProperties:
    """A kernel fingerprint changes exactly when a timing input changes."""

    @settings(max_examples=150, deadline=None)
    @given(
        target=st.sampled_from(["vals", "cols", "work"]),
        data=st.data(),
    )
    def test_any_flipped_prefix_byte_changes_it(self, target, data):
        kernel = _prefix_kernel()
        fp = kernel_fingerprint(kernel)
        index = {"vals": 0, "cols": 1}.get(target)
        source = kernel.work_prefix if index is None \
            else kernel.accesses[index].prefix
        flipped = source.copy()
        raw = flipped.view(np.uint8)
        byte = data.draw(st.integers(0, raw.size - 1), label="byte")
        bit = data.draw(st.integers(0, 7), label="bit")
        raw[byte] ^= 1 << bit
        if index is None:
            changed = _patched(kernel, work_prefix=flipped)
        else:
            accesses = list(kernel.accesses)
            accesses[index] = _patched(accesses[index], prefix=flipped)
            changed = _patched(kernel, accesses=tuple(accesses))
        assert kernel_fingerprint(changed) != fp

    @pytest.mark.parametrize("change", sorted(_TIMING_CHANGES))
    def test_each_timing_input_changes_it(self, change):
        kernel = _prefix_kernel()
        assert kernel_fingerprint(_TIMING_CHANGES[change](kernel)) != \
            kernel_fingerprint(kernel)

    @settings(max_examples=50, deadline=None)
    @given(
        params=st.dictionaries(st.text(max_size=3), st.integers(), max_size=3)
    )
    def test_stable_under_impl_params_and_copies(self, params):
        kernel = _prefix_kernel()
        fp = kernel_fingerprint(kernel)
        relabelled = dataclasses.replace(
            kernel, impl=lambda *a, **k: None, params=params
        )
        assert kernel_fingerprint(relabelled) == fp
        # equal values in fresh or strided (non-contiguous) buffers
        strided = np.repeat(kernel.work_prefix, 2)[::2]
        assert not strided.flags.c_contiguous
        copied = dataclasses.replace(
            _with_access(kernel, 0, prefix=kernel.accesses[0].prefix.copy()),
            work_prefix=strided,
        )
        assert kernel_fingerprint(copied) == fp

    def test_prefix_dtype_is_part_of_it(self):
        # the same bytes and shape under another dtype
        kernel = _prefix_kernel()
        unsigned = kernel.accesses[0].prefix.view(np.uint64)
        assert kernel_fingerprint(_with_access(kernel, 0, prefix=unsigned)) \
            != kernel_fingerprint(kernel)

    def test_buffer_boundaries_are_framed(self):
        # identical concatenated prefix bytes, split at a different place
        a = _prefix_kernel(vals_prefix=(0, 3, 4, 9, 9), cols_prefix=(9, 9))
        b = _prefix_kernel(vals_prefix=(0, 3, 4, 9), cols_prefix=(9, 9, 9))
        b = _with_access(b, 0, array=a.accesses[0].array)
        b = _with_access(b, 1, array=a.accesses[1].array)
        b = dataclasses.replace(b, work_prefix=a.work_prefix)
        joined = [
            np.concatenate([k.accesses[0].prefix, k.accesses[1].prefix])
            for k in (a, b)
        ]
        np.testing.assert_array_equal(*joined)
        assert kernel_fingerprint(a) != kernel_fingerprint(b)

    @settings(max_examples=300, deadline=None)
    @given(first=_parts, second=_parts)
    def test_distinct_parts_feed_distinct_streams(self, first, second):
        if first != second:
            assert _tape(first) != _tape(second)
        else:
            assert _tape(first) == _tape(second)


class TestFingerprintCost:
    def test_paper_size_spmv_fingerprint_hashes_in_place(self):
        kernel = SpMV().program().kernels[0]
        buffers = sum(
            acc.prefix.nbytes for acc in kernel.accesses
            if acc.prefix is not None
        ) + kernel.work_prefix.nbytes
        assert buffers > 40 * 2**20
        tracemalloc.start()
        try:
            kernel_fingerprint(kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # escaping the buffers to text allocates ~4x their size; hashing
        # them in place allocates next to nothing
        assert peak < 4 * 2**20


class TestDiskSnapshots:
    def test_round_trip_restores_entries(self, tmp_path):
        get_cache("snap-a").get_or_compute("k1", lambda: 11)
        get_cache("snap-b").get_or_compute("k2", lambda: 22)
        path = tmp_path / "snap.pkl"
        assert save_snapshot(path) == 2
        clear_all()
        assert len(get_cache("snap-a")) == 0
        assert load_snapshot(path) == 2
        # restored entries serve as hits without recomputing
        calls = []
        assert get_cache("snap-a").get_or_compute(
            "k1", lambda: calls.append(1) or -1
        ) == 11
        assert get_cache("snap-b").get_or_compute("k2", lambda: -1) == 22
        assert not calls

    def test_load_does_not_touch_counters(self, tmp_path):
        get_cache("snap-c").get_or_compute("k", lambda: 1)
        path = tmp_path / "snap.pkl"
        save_snapshot(path)
        clear_all()
        load_snapshot(path)
        stats = get_cache("snap-c").stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 1)

    def test_missing_file_loads_nothing(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.pkl") == 0

    def test_corrupt_file_loads_nothing(self, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(b"not a pickle at all")
        assert load_snapshot(path) == 0
        # a truncated but once-valid snapshot is also rejected cleanly
        get_cache("snap-d").get_or_compute("k", lambda: 1)
        save_snapshot(path)
        path.write_bytes(path.read_bytes()[:10])
        clear_all()
        assert load_snapshot(path) == 0

    def test_version_mismatch_is_ignored(self, tmp_path):
        path = tmp_path / "snap.pkl"
        payload = {
            "format": "repro-cache-snapshot",
            "version": SNAPSHOT_VERSION + 1,
            "stores": {"snap-e": {"k": 1}},
        }
        path.write_bytes(pickle.dumps(payload))
        assert load_snapshot(path) == 0
        assert len(get_cache("snap-e")) == 0

    def test_pre_framing_snapshot_is_ignored(self, tmp_path):
        # version 1 keyed its entries by repr-escaped fingerprints, which
        # the framed digest never reproduces: drop the whole snapshot
        assert SNAPSHOT_VERSION >= 2
        path = tmp_path / "snap.pkl"
        payload = {
            "format": "repro-cache-snapshot",
            "version": 1,
            "stores": {"snap-v1": {("fp", 64): 1}},
        }
        path.write_bytes(pickle.dumps(payload))
        assert load_snapshot(path) == 0
        assert len(get_cache("snap-v1")) == 0

    def test_foreign_pickle_is_ignored(self, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(pickle.dumps({"some": "other payload"}))
        assert load_snapshot(path) == 0
        path.write_bytes(pickle.dumps([1, 2, 3]))
        assert load_snapshot(path) == 0

    def test_save_creates_parent_dirs(self, tmp_path):
        get_cache("snap-f").get_or_compute("k", lambda: 1)
        path = tmp_path / "deep" / "nested" / "snap.pkl"
        assert save_snapshot(path) == 1
        clear_all()
        assert load_snapshot(path) == 1

    def test_counters_delta_pairing(self):
        before = counters()
        get_cache("snap-g").get_or_compute("k", lambda: 1)
        get_cache("snap-g").get_or_compute("k", lambda: 1)
        delta = stats_delta(before)
        assert delta["snap-g"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}


class TestProfileTableCaching:
    def test_cached_seed_yields_independent_tables(self, paper_platform):
        program = chain_program(2, n=4096)
        first = build_profile_table(program, paper_platform)
        second = build_profile_table(program, paper_platform)
        assert first is not second
        assert first.rate_s_per_index == second.rate_s_per_index
        # the scheduler EWMA-mutates its copy; the memoized seed must not see it
        key = next(iter(first.rate_s_per_index))
        first.rate_s_per_index[key] *= 10.0
        third = build_profile_table(program, paper_platform)
        assert third.rate_s_per_index == second.rate_s_per_index

    def test_repeat_builds_hit_the_cache(self, paper_platform):
        program = chain_program(2, n=4096)
        build_profile_table(program, paper_platform)
        before = cache_stats()["profile-table"].hits
        build_profile_table(program, paper_platform)
        assert cache_stats()["profile-table"].hits == before + 1
