"""End-to-end benchmark of paper regeneration and plan search.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout (it needs ``src/repro`` and the
committed ``results/*.csv``).  Workloads (see ``perfbench/README.md``):

``paper``
    ``regenerate`` (every experiment + fig12 at scale 1), then
    ``validate_platform``, then ``run_tournament`` + ``compare_to_table``
    (what ``repro rank --compare`` runs); memo stores cleared per step.
``search_loop``
    ``search_plan`` on STREAM-Loop: few large barrier-free cells.
``search_sync``
    ``search_plan`` on HotSpot with ``sync=True``: the barrier-windowed
    dependence analysis, wave drain and steady-wave template.

Every repetition is a fresh interpreter (``perfbench/workload.py``) that
starts with cold memo stores, the way a CLI invocation does; repetitions
run one after another until ``--seconds`` have elapsed, and every metric
is the median over repetitions.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer ledger instead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status is 0 when every repetition ran
and every output check passed, 1 when a check failed or a repetition
crashed, 2 when the run was refused (unsupported environment, no source
tree).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "search_loop", "search_sync")

#: environment switches that take the program off its default paths
REFUSED_ENV = (
    "REPRO_PLAN_EVAL", "REPRO_NO_NUMPY", "REPRO_NO_FAST_ENGINE", "REPRO_CACHE",
)

#: fresh-interpreter set-ups measured per run, at least (setup_s median)
SETUP_SAMPLES = 9

#: a run must end within this many seconds, whatever --seconds says
RUN_BUDGET_S = 170.0

#: how far the traced ledger may miss the traced wall time, in seconds
LEDGER_TOLERANCE_S = 1e-6


class RepFailed(Exception):
    """A child repetition crashed, timed out or printed no result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run ``workload.py`` once; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    spawned = time.monotonic()
    timeout = max(1.0, deadline - spawned)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
            timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{' '.join(args)}: timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        raise RepFailed(f"{' '.join(args)}: exit status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return spawned, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed(f"{' '.join(args)}: no result line")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat cold repetitions within ``seconds``; collect results.

    A repetition starts only while the median repetition so far still
    fits in the window, so a run lasts about ``seconds`` (plus the
    set-up samples) however long one repetition takes; the first
    repetition (first two when tracing) always runs.
    """
    begin = time.monotonic()
    deadline = begin + RUN_BUDGET_S
    out = ROOT / ".perfbench-out" / workload
    base = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    reps: list[dict] = []
    took: list[float] = []
    setups: list[float] = []
    failures: list[str] = []
    # trace runs alternate untraced/traced repetitions, at least one each
    modes = [False, True] if trace else [False]
    while len(reps) < len(modes) or (
        time.monotonic() - begin + statistics.median(took) <= seconds
    ):
        traced = modes[len(reps) % len(modes)]
        shutil.rmtree(out, ignore_errors=True)
        try:
            spawned, rep = spawn(
                [*base, "--trace", "1" if traced else "0"], deadline
            )
        except RepFailed as exc:
            failures.append(str(exc))
            break
        took.append(time.monotonic() - spawned)
        rep["traced"] = traced
        reps.append(rep)
        setups.append(rep["ready"] - spawned)
    while not trace and not failures and len(setups) < SETUP_SAMPLES:
        try:
            spawned, rep = spawn([*base, "--setup-only"], deadline)
        except RepFailed as exc:
            failures.append(str(exc))
            break
        setups.append(rep["ready"] - spawned)
    shutil.rmtree(out, ignore_errors=True)
    return {"reps": reps, "setups": setups, "failures": failures}


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cells_per_s": statistics.median(r["cells"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    """Medians of the traced repetitions' ledgers, plus tracing overhead."""
    traced = [r["layers"] for r in reps if r["traced"]]
    metrics = {
        name: statistics.median(layers[name] for layers in traced)
        for name in traced[0]
    }
    plain = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    metrics["trace.untraced_wall_s"] = plain
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            wanted: list[dict]) -> int:
    """Measure one workload, print its metrics and the result line."""
    got = measure(workload, seed, seconds, trace)
    reps, failures = got["reps"], list(got["failures"])
    attempted = failed = 0
    for rep in reps:
        for label, ok in rep["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"check failed: {label}")
        gap = rep.get("layers", {}).get("trace.ledger_gap_s", 0.0)
        if abs(gap) > LEDGER_TOLERANCE_S:
            failed += 1
            failures.append(f"ledger misses traced wall time by {gap:.3g}s")
    if got["failures"]:
        attempted += 1
        failed += 1
    if not reps or (trace and not any(r["traced"] for r in reps)):
        for line in failures:
            print(line, file=sys.stderr)
        return 1

    if trace:
        measured = per_layer(reps)
    else:
        measured = end_to_end(reps, got["setups"])
    metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in wanted}
    traced = sum(r["traced"] for r in reps)
    print(f"workload {workload}  seed {seed}  "
          f"{len(reps)} repetitions ({traced} traced)  "
          f"{len(got['setups'])} set-ups")
    for rep in reps:
        print(f"  rep{' traced' if rep['traced'] else ''}: "
              f"wall {rep['wall_s']:.3f}s  cells {rep['cells']}"
              + (f"  digest {rep['digest'][:16]}" if rep["digest"] else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'error_rate':34s} {failed / max(attempted, 1):14.6g} "
          f"({failed} of {attempted} operations)")
    if trace:
        print(f"  {'ledger gap (self + unattributed - wall)':34s} "
              f"{measured['trace.ledger_gap_s']:14.3g} s")
    for line in failures:
        print(f"  FAIL {line}")
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of paper regeneration and plan "
                    "search, with a per-layer ledger (--trace 1)."
    )
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="search scenario; 0 is the nominal one "
                             "(paper ignores it)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run: {', '.join(refused)} set; the benchmark "
              "measures the default paths only", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"refusing to run: no source tree at {ROOT / 'src'}; run "
              "from the root of a repro checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(
        run_one(w, args.seed, args.seconds, bool(args.trace), wanted)
        for w in workloads
    )


if __name__ == "__main__":
    sys.exit(main())
