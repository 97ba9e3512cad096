"""The benchmark's own checks: tracer coverage, digest parity, determinism.

Runs each workload three times in fresh interpreters (one untraced, two
traced, nominal seed), so it takes a minute or two; it is not part of the
repository's tier-1 suite:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
LEDGER = json.loads((HERE / "ledger.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _rep(workload: str, traced: bool, out: Path) -> dict:
    args = ["--workload", workload, "--seed", "0", "--out", str(out),
            "--trace", "1" if traced else "0"]
    return run.spawn(args, time.monotonic() + run.RUN_BUDGET_S)[1]


@pytest.fixture(scope="module", params=run.WORKLOADS)
def reps(request, tmp_path_factory):
    workload = request.param
    out = tmp_path_factory.mktemp(workload)
    return workload, [
        _rep(workload, traced, out) for traced in (False, True, True)
    ]


def test_outputs_pass_their_checks(reps):
    workload, results = reps
    for rep in results:
        assert all(ok for _, ok in rep["checks"]), rep["checks"]


def test_traced_digest_equals_untraced(reps):
    workload, (plain, traced, _) = reps
    assert traced["digest"] == plain["digest"]


def test_deterministic_counters_repeat(reps):
    workload, (plain, first, second) = reps
    for name in LEDGER["deterministic"]:
        assert first["layers"][name] == second["layers"][name], name
    # tracing must not change what the program does
    assert first["counters"]["cache"] == plain["counters"]["cache"]
    assert first["counters"]["plan"] == plain["counters"]["plan"]
    assert first["cells"] == second["cells"] == plain["cells"]


def test_listed_layers_record_spans(reps):
    workload, (_, traced, _) = reps
    calls = traced["counters"]["trace"]
    for entry in LEDGER["layers"]:
        if workload in entry["workloads"]:
            assert calls.get(entry["span"] + ".calls", 0) > 0, entry["span"]


def test_ledger_adds_up_to_traced_wall(reps):
    workload, (_, traced, _) = reps
    layers = traced["layers"]
    assert abs(layers["trace.ledger_gap_s"]) <= run.LEDGER_TOLERANCE_S
    assert layers["trace.unattributed_s"] >= 0.0


def test_ledger_reports_every_per_layer_metric(reps):
    workload, (_, traced, _) = reps
    produced = set(traced["layers"]) | {
        "trace.untraced_wall_s", "trace.overhead_s"
    }
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert wanted <= produced
    covered = {name for e in LEDGER["layers"] for name in e["metrics"]}
    assert covered <= wanted


def test_every_import_site_is_patched():
    """``from X import f`` copies must be wrapped too, not just ``X.f``."""
    code = (
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "sites = tracer.install(t)\n"
        "import repro.partition.base as base, repro.runtime.dependence as dep\n"
        "import repro.partition.sp_single as sps, repro.partition.profiling as prof\n"
        "import repro.core.tournament as tour, repro.cache as cache\n"
        "assert base.build_dependences is dep.build_dependences\n"
        "assert base.build_dependences.__wrapped__ is not None\n"
        "assert sps.profile_kernel is prof.profile_kernel\n"
        "assert hasattr(sps.profile_kernel, '__wrapped__')\n"
        "assert tour.platform_fingerprint is cache.platform_fingerprint\n"
        "assert hasattr(tour.platform_fingerprint, '__wrapped__')\n"
        "print(sites['dependence.build'], sites['profiling.profile'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=run._child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    dep_sites, profile_sites = map(int, proc.stdout.split())
    assert dep_sites >= 3  # dependence, partition.base, core.structure, ...
    assert profile_sites >= 5
