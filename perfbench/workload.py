"""One cold repetition of one benchmark workload, in a fresh interpreter.

Run by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``; prints one
JSON object on its last stdout line.  Setup (importing ``repro`` and the
modules the workloads call, building the paper's platform preset) ends
at ``ready``, a ``time.monotonic()`` reading the parent subtracts its
spawn time from.  Then the memo stores and plan drain counters are
reset and the workload body runs once, timed, with or without the span
tracer; its outputs are checked against ``reference.json`` afterwards.

    PYTHONPATH=src python3 perfbench/workload.py --workload search_sync \\
        --seed 0 --trace 0 --out .perfbench-out/search_sync
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# -- setup: everything up to here is what setup_s measures -----------------
import repro  # noqa: E402,F401
from repro import cache as repro_cache  # noqa: E402
from repro.bench.experiments import EXPERIMENTS, run_experiment  # noqa: E402
from repro.bench.export import (  # noqa: E402
    scenario_rows,
    speedup_rows,
    write_records,
)
from repro.bench.matchup import compare_to_table  # noqa: E402
from repro.bench.speedup import figure12  # noqa: E402
from repro.bench.validation import validate_platform  # noqa: E402
from repro.core.tournament import run_tournament  # noqa: E402
from repro.partition.base import Strategy  # noqa: E402
from repro.partition.search import search_plan  # noqa: E402
from repro.platform import shen_icpp15_platform  # noqa: E402
from repro.sim.plan import drain_stats, reset_drain_stats  # noqa: E402

#: SearchResult.to_record() fields that hold host timings, not results
TIMING_FIELDS = ("elapsed_s", "plans_per_sec")


def scenario(reference: dict, workload: str, seed: int) -> dict:
    """The seed's search scenario; seed 0 is the nominal one."""
    scenarios = reference[workload]["scenarios"]
    return scenarios[seed % len(scenarios)]


def record_digest(result) -> str:
    """sha256 of the search record without its host-timing fields."""
    record = {
        k: v for k, v in result.to_record().items() if k not in TIMING_FIELDS
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- workload bodies: public APIs only, serial, one process ----------------


def run_paper(platform, out: Path, ref: dict, seed: int) -> dict:
    """``regenerate`` + ``validate`` + ``rank --compare``, cold per step."""
    repro_cache.clear_all()
    for key in sorted(EXPERIMENTS):
        write_records(
            scenario_rows(run_experiment(key, platform)), out / f"{key}.csv"
        )
    write_records(speedup_rows(figure12(platform)), out / "fig12.csv")
    repro_cache.clear_all()
    report = validate_platform(platform)
    repro_cache.clear_all()
    agreement = compare_to_table(run_tournament(platform)).agreement
    return {"report": report, "agreement": agreement}


def check_paper(outputs: dict, out: Path, ref: dict, seed: int):
    """Digest of every output, and the checks against the committed ones."""
    keys = [*sorted(EXPERIMENTS), "fig12"]
    digest = hashlib.sha256()
    checks = []
    for key in keys:
        committed = ROOT / "results" / f"{key}.csv"
        produced = (out / f"{key}.csv").read_bytes()
        digest.update(produced)
        checks.append((
            f"results/{key}.csv byte-equal",
            committed.is_file() and committed.read_bytes() == produced,
        ))
    report = outputs["report"]
    digest.update(report.summary().encode())
    digest.update(repr(outputs["agreement"]).encode())
    checks.append((
        f"validate {len(report.passed)}/{ref['paper']['validate_checks']}",
        report.ok and len(report.passed) == ref["paper"]["validate_checks"],
    ))
    checks.append((
        f"table_agreement {outputs['agreement']!r}",
        outputs["agreement"] == ref["paper"]["table_agreement"],
    ))
    return digest.hexdigest(), checks


def _search(workload: str):
    def run(platform, out: Path, ref: dict, seed: int) -> dict:
        spec = ref[workload]
        scen = scenario(ref, workload, seed)
        result = search_plan(
            spec["app"], platform, n=scen["n"], iterations=scen["iterations"],
            sync=spec["sync"],
        )
        return {"result": result}

    def check(outputs: dict, out: Path, ref: dict, seed: int):
        scen = scenario(ref, workload, seed)
        result = outputs["result"]
        digest = record_digest(result)
        checks = [(
            f"search record digest {digest[:12]} "
            f"(n={scen['n']}, iterations={scen['iterations']})",
            digest == scen["digest"],
        )]
        if ref[workload]["sync"]:
            checks.append((
                f"wave_fallbacks {result.wave_fallbacks} == 0",
                result.wave_fallbacks == 0,
            ))
        return digest, checks

    return run, check


#: workload -> (timed body, post-run digest + output checks)
WORKLOADS = {
    "paper": (run_paper, check_paper),
    "search_loop": _search("search_loop"),
    "search_sync": _search("search_sync"),
}


def count_cells() -> list[int]:
    """Count ``Strategy.run`` calls: one per simulated cell.

    A bare counter, no clock reads, installed in traced and untraced
    repetitions alike.
    """
    box = [0]
    run = Strategy.run

    def counted(self, *args, **kwargs):
        box[0] += 1
        return run(self, *args, **kwargs)

    Strategy.run = counted
    return box


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ledger(tracer, wall: float, outputs: dict) -> dict:
    """Per-layer metrics of one traced repetition."""
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    for idx, lid in enumerate(tracer.layer):
        name = tracer.layers[lid]
        self_s[name] = self_s.get(name, 0.0) + own[idx]
    counts = tracer.counts
    # a cell is a Strategy.run the sweep harness dispatched
    cell, harness = (
        tracer.layer_id("partition.run"), tracer.layer_id("harness.dispatch")
    )
    cell_ms = [
        (tracer.end[i] - tracer.start[i]) * 1e3
        for i, lid in enumerate(tracer.layer)
        if lid == cell and tracer.parent[i] >= 0
        and tracer.layer[tracer.parent[i]] == harness
    ]
    hits = sum(h for h, _ in repro_cache.counters().values())
    misses = sum(m for _, m in repro_cache.counters().values())
    drains = drain_stats()
    attempts = drains["evaluations"] + drains["compile_errors"]
    root_total = tracer.root_total()
    m = {
        "cache.fingerprint_s": self_s.get("cache.fingerprint", 0.0),
        "cache.fingerprint_calls": counts["cache.fingerprint.calls"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "apps.program_s": self_s.get("apps.program", 0.0),
        "apps.program_calls": counts["apps.program.calls"],
        "profiling.profile_s": self_s.get("profiling.profile", 0.0),
        "profiling.calls": counts["profiling.profile.calls"],
        "graph.expand_s": self_s.get("graph.expand", 0.0),
        "graph.instances": counts["graph.instances"],
        "dependence.build_s": self_s.get("dependence.build", 0.0),
        "dependence.calls": counts["dependence.build.calls"],
        "dependence.edges": counts["dependence.edges"],
    }
    for short in ("static", "affinity", "breadth_first", "perf_aware"):
        layer = f"schedulers.{short}.assign"
        m[f"{layer}_s"] = self_s.get(layer, 0.0)
        m[f"{layer}_calls"] = counts[f"{layer}.calls"]
    m.update({
        "executor.execute_self_s": self_s.get("executor.execute", 0.0),
        "executor.runs": counts["executor.execute.calls"],
        "executor.instances": counts["executor.instances"],
        "plan.compile_s": self_s.get("plan.compile", 0.0),
        "plan.evaluate_s": self_s.get("plan.evaluate", 0.0),
        "plan.evaluations": drains["evaluations"],
        "plan.compile_errors": drains["compile_errors"],
        "plan.wave_fallbacks": drains["wave_fallbacks"],
        "plan.waves_drained": drains["waves_drained"],
        "plan.waves_replayed": drains["waves_replayed"],
        "plan.terminal_drains": drains["terminal_drains"],
        "plan.compiled_fraction": (
            drains["evaluations"] / attempts if attempts else 0.0
        ),
        "artifact.summary_s": self_s.get("artifact.summary", 0.0),
        "artifact.records": counts["artifact.records"],
        "harness.cells": len(cell_ms),
        "harness.dispatch_self_s": self_s.get("harness.dispatch", 0.0),
        "harness.cell_ms_p50": percentile(cell_ms, 50),
        "harness.cell_ms_p90": percentile(cell_ms, 90),
        "partition.plan_self_s": self_s.get("partition.plan", 0.0),
        "partition.run_self_s": self_s.get("partition.run", 0.0),
        "search.space_self_s": self_s.get("search.space", 0.0),
        "search.candidates": (
            len(outputs["result"].evaluated) if "result" in outputs else 0
        ),
        "core.tournament_self_s": self_s.get("core.tournament", 0.0),
        "trace.bookkeeping_s": self_s.get("trace.bookkeeping", 0.0),
        "trace.spans": len(tracer.layer),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - root_total,
    })
    # every span's self time summed plus the unattributed remainder
    # reproduces the wall time; the parent asserts the gap is ~0
    m["trace.ledger_gap_s"] = wall - (sum(own) + m["trace.unattributed_s"])
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    platform = shen_icpp15_platform()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    body, check = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    cells = count_cells()
    repro_cache.clear_all()
    reset_drain_stats()

    t0 = time.perf_counter()
    outputs = body(platform, args.out, reference, args.seed)
    wall = time.perf_counter() - t0

    digest, checks = check(outputs, args.out, reference, args.seed)
    rep = {
        "ready": ready,
        "wall_s": wall,
        "cells": cells[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks,
        "digest": digest,
        "counters": {
            "cache": repro_cache.counters(),
            "plan": drain_stats(),
        },
    }
    if tracer is not None:
        rep["layers"] = ledger(tracer, wall, outputs)
        rep["counters"]["trace"] = dict(tracer.counts)
        tracer.write(args.out.parent / f"spans-{args.workload}.csv")
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
