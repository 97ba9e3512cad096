"""Compiled run-plans: static-plan lowering + vectorized wave/terminal drains.

Every static plan runs here: :func:`repro.partition.base.run_plan`
compiles each plan it is given and falls back to the general
event-driven executor only when compilation fails.  The
schedule×partition search (:mod:`repro.partition.search`) needs many
more simulated runs per second than that executor delivers, without
giving up its exactness.  This module gets there in two steps:

* :func:`compile_plan` lowers one static :class:`ExecutionPlan` into a
  :class:`CompiledPlan` of flat per-instance arrays — compute durations
  (signature-memoized roofline arithmetic), statically-known resource ids,
  and eager-writeback flags.  Plans that cannot be lowered (dynamic
  scheduler, unpinned instances) raise
  :class:`~repro.errors.PlanCompileError` and ``run_plan`` falls back to
  the general engine.

* :class:`PlanEvaluator` runs the compiled plan through the **real**
  engine — ``_EvalRun`` subclasses the executor's ``_Run``, so memory
  coherence, transfers, barriers and trace lanes are exact by
  construction — and adds a *terminal drain*: once no transfer is on the
  wire, no barrier or write-back is pending, and the rest of the graph is
  provably a set of per-resource back-to-back chains, the remaining
  completions are computed in one shot with
  :func:`repro.sim._vec.chain_bounds` (one 2-D ``cumsum`` across all
  resource frontiers) instead of thousands of heap events.  Under
  ``REPRO_NO_NUMPY=1`` the bounds come from the bit-identical
  sequential fallback.

Exactness contract (enforced by
``tests/integration/test_plan_eval_differential.py``): in ``summary``
detail the evaluated artifact's makespan, per-resource busy times and
every other summary aggregate equal the general engine's bit-for-bit; in
``full`` detail the drain is disabled entirely, so artifacts are
byte-identical trivially.  The drain only commits when a validation walk
proves the engine would have produced the same timeline:

* every not-yet-done instance has a statically known resource, and every
  unmet dependence of a remaining instance lives on the *same* resource
  (so each resource's future is an independent FIFO chain — release order
  equals the engine's sorted-successor dispatch order, and chains run
  back-to-back with no idle gaps);
* a shadow copy of the memory directory confirms every remaining read is
  already resident in its target space (no transfers would be issued);
* instances that face a synchronization point (and would issue eager
  write-backs) write pairwise-disjoint regions, so replaying their
  write-backs at their computed end times commutes with committing all
  drained writes up front.

Applications that synchronize every iteration used to be the drain's
accepted blind spot — pending barriers blocked it at all times, so
per-iteration-sync programs (the paper's classes II–IV under forced-sync
strategies) replayed every event through the engine.  The **wave drain**
closes that gap: between two consecutive barriers a static plan is a
sync-free sub-graph, so when a barrier completes the evaluator tries to
prove and commit the *entire next epoch plus the following barrier*
analytically, leaving a single anchor event at the epoch's end.  The
wave gates (all pure — nothing is mutated until every gate passes):

* **W0 — quiet world**: no transfer on the wire, no pending write-back,
  no other ready work, and a next barrier to hand the clock to;
* **W1 — single layer**: every wave member's dependences are already
  done (or are the completing barrier itself) — intra-wave edges fall
  back to the engine;
* **W2 — pure transfer prediction**: per member, the memory directory's
  *pre-wave* missing sets must be satisfiable by plain host-to-device
  copies (the host copy is coherent after the barrier flush, so no
  device-to-host staging may be needed), and members sharing a resource
  must be fully resident — this predicts, without mutating, exactly the
  transfers the engine's ``ensure`` calls would issue at dispatch;
* **W3 — one member per device space**: cross-member wire hazards and
  link-order ambiguity cannot arise, and each D2H channel has at most
  one eager-write-back source;
* **W4 — disjoint writes**: written regions are pairwise disjoint
  across members, so committing writes/write-backs in instance-id order
  commutes with the engine's completion-time order;
* **W5 — fenced successors**: each member's only successor is the next
  barrier (strategies adding extra edges fall back to the engine).

On success the commit replays the engine's exact arithmetic: real
``ensure``/``write``/``writeback``/``flush_to_host`` directory calls in
dispatch order, transfer ops timed on a per-link cursor, compute chains
bounded by one :func:`repro.sim._vec.chain_bounds` cumsum across all
resources, rows bulk-appended with ``extend_rows``, and the modeled
barrier's completion — ``max(last compute + quiescence overhead, flush
lands, write-back lands)`` — scheduled as one closure-free anchor event
(``FastSimulator.schedule_call``).  Wave after wave then drains
through anchor recursion, O(1) events per barrier epoch.

When any gate fails the wave simply does not commit and the run
continues on the ordinary event loop — still exact, just slower.  The
fallback ladder is therefore: wave drain (synced epochs) → terminal
drain (sync-free tails) → general event loop (everything else), each
rung bit-identical to the one below it by construction.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, replace

from repro.artifact import RunArtifact, check_detail
from repro.errors import PlanCompileError
from repro.platform.topology import HOST_SPACE, Platform
from repro.runtime.executor import RuntimeConfig, _Run
from repro.runtime.schedulers.base import StaticScheduler
from repro.sim import _vec
from repro.sim.engine import PRIORITY_COMPLETION

#: do not bother draining tails smaller than this — the validation walk
#: has a fixed cost the event loop beats on tiny remainders
DRAIN_MIN_INSTANCES = 24

#: process-wide drain telemetry.  The search driver snapshots this around
#: a sweep to surface silent engine fallbacks (a compile-failed or
#: gate-failed plan still runs, identically, just slower) instead of
#: letting them masquerade as slow candidates.
_STATS = {
    "evaluations": 0,
    "waves_drained": 0,
    "waves_replayed": 0,
    "wave_fallbacks": 0,
    "terminal_drains": 0,
    "compile_errors": 0,
}


def drain_stats() -> dict[str, int]:
    """Snapshot of the process-wide drain counters."""
    return dict(_STATS)


def reset_drain_stats() -> None:
    """Zero the drain counters (test isolation)."""
    for key in _STATS:
        _STATS[key] = 0


def record_compile_error() -> None:
    """Count one :class:`~repro.errors.PlanCompileError` engine fallback."""
    _STATS["compile_errors"] += 1


@dataclass(frozen=True)
class CompiledPlan:
    """One static plan lowered to flat per-instance arrays.

    ``durations``/``resource_ids``/``writeback_flags`` are indexed by
    ``instance_id`` (barrier slots hold ``0.0``/``None``/``False``).
    ``drainable`` is precomputed: every compute instance's resource is
    statically known, so the terminal drain may even be attempted.

    ``succs_sorted``/``region_rows``/``cross_deps`` are the drain walk's
    per-instance lookups hoisted to compile time: successor ids in the
    engine's release order, flat ``(region, reads, writes)`` rows, and
    the (usually empty) dependences that live on a *different* resource
    — the only ones the drain's gate 1 must re-check at runtime.
    ``kernel_names``/``los``/``his``/``sizes`` are the drain commit's
    trace-row columns, precomputed so the bulk lane extend never touches
    instance property descriptors.

    ``wave_members`` maps each barrier's instance id to the compute
    instances of the epoch *after* it (program order = id order), and
    ``wave_next`` to the id of the barrier fencing that epoch — the wave
    drain's O(1) epoch-advance tables.  The final (unfenced) epoch has
    no ``wave_next`` entry and is left to the terminal drain.

    ``wave_sig`` maps a barrier to its wave's *isomorphism class*: two
    waves share a signature id exactly when their members agree
    position-by-position on resource, duration, region rows (by shared
    identity), write-back flag, and trace columns, and every member is
    canonically fenced (sole dep = the leading barrier, sole successor =
    the trailing barrier).  Consecutive same-signature waves resolve to
    identical transfer programs once the directory state is periodic
    (see ``_EvalRun._replay_waves``), which is what lets the steady part
    of a synced loop commit without re-running the gates.  Waves with a
    non-canonical fence get no entry.
    """

    graph: object
    scheduler: StaticScheduler
    config: RuntimeConfig
    durations: array
    resource_ids: tuple
    writeback_flags: tuple
    drainable: bool
    n_compute: int
    n_barriers: int
    succs_sorted: tuple
    region_rows: tuple
    cross_deps: tuple
    kernel_names: tuple
    los: tuple
    his: tuple
    sizes: tuple
    wave_members: dict
    wave_next: dict
    wave_sig: dict


def compile_plan(
    plan, platform: Platform, runtime_config: RuntimeConfig | None = None
) -> CompiledPlan:
    """Lower ``plan`` for :class:`PlanEvaluator`, or raise.

    Raises :class:`~repro.errors.PlanCompileError` when the plan is not
    statically lowerable: the scheduler takes runtime decisions, or an
    instance carries no resource/device pin.  ``plan.runtime_overrides``
    are applied to ``runtime_config`` here, exactly as ``run_plan`` does.
    """
    scheduler = plan.scheduler
    if type(scheduler) is not StaticScheduler:
        raise PlanCompileError(
            f"plan uses scheduler {scheduler.name!r}; only purely static "
            "plans compile"
        )
    config = runtime_config or RuntimeConfig()
    if plan.runtime_overrides:
        config = replace(config, **plan.runtime_overrides)

    graph = plan.graph
    resources = platform.compute_resources(cpu_threads=config.cpu_threads)
    by_id = {r.resource_id: r for r in resources}
    by_device: dict[str, list] = {}
    for r in resources:
        by_device.setdefault(r.device.device_id, []).append(r)
    host_id = platform.host.device_id

    invocations = graph.program.invocations
    last_invocation_id = (
        invocations[-1].invocation_id if invocations else -1
    )

    n = len(graph.instances)
    durations = array("d", bytes(8 * n))
    resource_ids: list = [None] * n
    writeback_flags = [False] * n
    duration_memo: dict[tuple, float] = {}
    writes_memo: dict[tuple, bool] = {}
    drainable = True
    n_compute = 0
    n_barriers = 0

    for inst in graph.instances:
        if inst.is_barrier:
            n_barriers += 1
            continue
        n_compute += 1
        i = inst.instance_id
        if inst.pinned_resource is not None:
            resource = by_id.get(inst.pinned_resource)
            if resource is None:
                raise PlanCompileError(
                    f"instance {i} pinned to unknown resource "
                    f"{inst.pinned_resource!r}"
                )
            resource_ids[i] = resource.resource_id
        elif inst.pinned_device is not None:
            device_resources = by_device.get(inst.pinned_device)
            if not device_resources:
                raise PlanCompileError(
                    f"instance {i} pinned to unknown device "
                    f"{inst.pinned_device!r}"
                )
            resource = device_resources[0]
            if len(device_resources) == 1:
                resource_ids[i] = resource.resource_id
            else:
                # the static scheduler round-robins multi-resource
                # devices by runtime load; not statically known
                drainable = False
        else:
            raise PlanCompileError(
                f"instance {i} is unpinned; static plans pin every instance"
            )

        kernel = inst.kernel
        key = (id(kernel), resource.resource_id, inst.lo, inst.hi,
               inst.invocation.n)
        duration = duration_memo.get(key)
        if duration is None:
            # must match _Run._start_compute's arithmetic exactly: the
            # drain's chained ends have to be bit-identical to the floats
            # the engine would have produced event by event
            duration = kernel.chunk_time(
                resource.device,
                kernel.work_units(inst.lo, inst.hi),
                inst.invocation.n,
                share=resource.share,
            ) + config.task_creation_overhead_s
            duration_memo[key] = duration
        durations[i] = duration

        if config.eager_writeback and resource_ids[i] is not None:
            space = (
                HOST_SPACE
                if resource.device.device_id == host_id
                else resource.device.device_id
            )
            if space != HOST_SPACE:
                faces_sync = inst.invocation.sync_after or (
                    config.final_flush
                    and inst.invocation.invocation_id == last_invocation_id
                )
                if faces_sync:
                    wkey = (id(kernel), inst.lo, inst.hi, inst.invocation.n)
                    writes = writes_memo.get(wkey)
                    if writes is None:
                        writes = any(
                            mode.writes for _, mode in inst.regions()
                        )
                        writes_memo[wkey] = writes
                    writeback_flags[i] = writes

    # hoist the drain walk's per-instance lookups: release order,
    # region rows (shared per signature, like the executor's memo), and
    # the statically-known cross-resource dependences
    succs_sorted: list = [()] * n
    region_rows: list = [()] * n
    cross_deps: list = [()] * n
    kernel_names: list = [None] * n
    los: list = [0] * n
    his: list = [0] * n
    sizes: list = [0] * n
    rows_memo: dict[tuple, tuple] = {}
    for inst in graph.instances:
        if inst.is_barrier:
            continue
        i = inst.instance_id
        if inst.succs:
            succs_sorted[i] = tuple(sorted(inst.succs))
        kernel = inst.kernel
        kernel_names[i] = kernel.name
        los[i] = inst.lo
        his[i] = inst.hi
        sizes[i] = inst.size
        # keyed by kernel *object*: looped programs reuse one Kernel per
        # iteration, while DAG apps emit distinct same-named kernels
        # over different arrays (Cholesky's per-tile gemms)
        rkey = (id(kernel), inst.lo, inst.hi, inst.invocation.n)
        rows = rows_memo.get(rkey)
        if rows is None:
            rows = rows_memo[rkey] = tuple(
                (region, mode.reads, mode.writes)
                for region, mode in inst.regions()
            )
        region_rows[i] = rows
        rid = resource_ids[i]
        crossing = tuple(
            dep for dep in inst.deps if resource_ids[dep] != rid
        )
        if crossing:
            cross_deps[i] = crossing

    # wave tables: one pass over program order groups each barrier with
    # the epoch it releases and the next barrier fencing that epoch
    wave_members: dict[int, tuple] = {}
    wave_next: dict[int, int] = {}
    prev_barrier: int | None = None
    epoch: list[int] = []
    for inst in graph.instances:
        if inst.is_barrier:
            if prev_barrier is not None:
                wave_members[prev_barrier] = tuple(epoch)
                wave_next[prev_barrier] = inst.instance_id
            prev_barrier = inst.instance_id
            epoch = []
        elif prev_barrier is not None:
            epoch.append(inst.instance_id)
    if prev_barrier is not None:
        # the unfenced final epoch: members recorded for completeness,
        # but no wave_next entry — the terminal drain owns this tail
        wave_members[prev_barrier] = tuple(epoch)

    # wave isomorphism classes: fenced waves whose members agree on
    # every compiled column get one signature id, keyed so the steady
    # interior of a synced loop (identical iterations) collapses to a
    # single class the runtime can template
    wave_sig: dict[int, int] = {}
    sig_ids: dict[tuple, int] = {}
    inst_by_id = graph.instances
    for b_id, nxt_id in wave_next.items():
        members = wave_members[b_id]
        if not members:
            continue
        nxt_only = (nxt_id,)
        canonical = True
        cols = []
        for i in members:
            deps = inst_by_id[i].deps
            if len(deps) != 1 or tuple(deps)[0] != b_id:
                canonical = False
                break
            if succs_sorted[i] != nxt_only:
                canonical = False
                break
            cols.append((
                resource_ids[i], durations[i], id(region_rows[i]),
                writeback_flags[i], kernel_names[i], los[i], his[i],
                sizes[i],
            ))
        if not canonical:
            continue
        key = tuple(cols)
        sig = sig_ids.get(key)
        if sig is None:
            sig = sig_ids[key] = len(sig_ids)
        wave_sig[b_id] = sig

    return CompiledPlan(
        graph=graph,
        scheduler=scheduler,
        config=config,
        durations=durations,
        resource_ids=tuple(resource_ids),
        writeback_flags=tuple(writeback_flags),
        drainable=drainable,
        n_compute=n_compute,
        n_barriers=n_barriers,
        succs_sorted=tuple(succs_sorted),
        region_rows=tuple(region_rows),
        cross_deps=tuple(cross_deps),
        kernel_names=tuple(kernel_names),
        los=tuple(los),
        his=tuple(his),
        sizes=tuple(sizes),
        wave_members=wave_members,
        wave_next=wave_next,
        wave_sig=wave_sig,
    )


class PlanEvaluator:
    """Evaluates one compiled plan; reusable across calls."""

    def __init__(self, platform: Platform, compiled: CompiledPlan) -> None:
        self.platform = platform
        self.compiled = compiled

    def evaluate(self, *, detail: str = "summary") -> RunArtifact:
        detail = check_detail(detail)
        _STATS["evaluations"] += 1
        run = _EvalRun(self.platform, self.compiled, detail)
        return run.go(detail=detail)


class _DrainTail:
    """Replays one drained instance's eager write-back at its end time."""

    __slots__ = ("run", "inst", "space")

    def __init__(self, run, inst, space):
        self.run = run
        self.inst = inst
        self.space = space

    def __call__(self) -> None:
        self.run._drain_writeback(self.inst, self.space)


def _noop() -> None:
    """Clock anchor: advances ``sim.now`` to the drained chains' last end."""


class _WaveAnchor:
    """Oracle-engine wave anchor: fires the modeled barrier's completion.

    The fast engine schedules the anchor through its closure-free
    ``schedule_call``; the oracle :class:`~repro.sim.engine.Simulator`
    gets this slotted equivalent so both consume exactly one sequence
    number per wave.
    """

    __slots__ = ("run", "inst")

    def __init__(self, run, inst):
        self.run = run
        self.inst = inst

    def __call__(self) -> None:
        self.run._mark_done(self.inst)


class _EvalRun(_Run):
    """The executor's ``_Run`` plus compiled durations and the drain."""

    def __init__(self, platform: Platform, compiled: CompiledPlan,
                 detail: str) -> None:
        super().__init__(platform, compiled.config, compiled.graph,
                         compiled.scheduler)
        self._compiled = compiled
        # full-detail runs stay on the pure event loop: per-row metadata
        # dicts and exact event interleaving make the artifact
        # byte-identical to the general engine with zero special cases
        self._drain_enabled = detail == "summary" and compiled.drainable
        self._drained = False
        self._drain_retry = True
        self._wires = 0
        self._undone = compiled.n_compute
        self._barriers_left = compiled.n_barriers
        self._waves_drained = 0
        self._waves_replayed = 0
        self._wave_fallbacks = 0
        #: steady-wave templates, keyed by signature: after one
        #: fully-gated commit of a wave, later waves of the same
        #: isomorphism class replay as a pure float recurrence (see
        #: _replay_waves); keyed per class because ping-pong loops
        #: alternate between two classes every iteration
        self._tmpls: dict[int, tuple] = {}
        host_id = platform.host.device_id
        #: resource id -> memory space, shared by both drains
        self._space_of: dict[str, str] = {
            r.resource_id: (
                HOST_SPACE if r.device.device_id == host_id
                else r.device.device_id
            )
            for r in self.resources
        }
        #: per-resource dispatch-order queues of not-yet-completed
        #: instances (head = currently running occupation)
        self._res_dispatched: dict[str, deque] = {
            r.resource_id: deque() for r in self.resources
        }

    # -- engine hooks (exact behavior preserved, counters added) ---------

    def _dispatched(self) -> None:
        # one drain attempt once the initial dispatch wave has settled
        # (all-host plans never transfer, so the wire counter alone would
        # never trigger it)
        self._maybe_drain()

    def _start_compute(self, inst, resource, space, transfer_total):
        self._res_dispatched[resource.resource_id].append(inst)
        kernel = inst.kernel
        duration = self._compiled.durations[inst.instance_id]
        self.sim_resources[resource.resource_id].occupy(
            duration,
            label="",
            category="compute",
            on_complete=(
                self._complete_cb,
                (inst, resource, space, duration, transfer_total),
            ),
            lane=self.compute_lanes[resource.resource_id],
            args=(kernel.name, inst.lo, inst.hi, inst.instance_id),
            size=inst.size,
            kernel=kernel.name,
            meta={
                "kernel": kernel.name,
                "size": inst.size,
                "device_kind": resource.device.kind.value,
                "device": resource.device.device_id,
                "invocation": inst.invocation.invocation_id,
                "iteration": inst.invocation.iteration,
            },
            own_meta=True,
        )

    def _complete_compute(self, args):
        if self._drained:
            # an absorbed head: its writes and bookkeeping were committed
            # at drain time; only a pending eager write-back remains
            inst = args[0]
            if self._compiled.writeback_flags[inst.instance_id]:
                self._drain_writeback(inst, args[2])
            return
        self._res_dispatched[args[1].resource_id].popleft()
        self._complete(*args)

    def _issue_transfer(self, op, *, on_complete=None) -> None:
        self._wires += 1
        super()._issue_transfer(op, on_complete=on_complete)

    def _transfer_done(self, xfer) -> None:
        self._wires -= 1
        super()._transfer_done(xfer)
        if self._wires == 0 and not self._drained:
            self._drain_retry = True
            self._maybe_drain()

    def _mark_done(self, inst) -> None:
        if inst.is_barrier:
            # a completing barrier fences a fresh epoch: try to commit
            # the whole wave analytically before the engine dispatches it
            if self._try_wave(inst):
                return
            self._barriers_left -= 1
            super()._mark_done(inst)
            # the last barrier's wave has now been pumped; for transfer-free
            # tails (Only-CPU loops) no wire transition will ever re-arm
            if not self._barriers_left and not self._drained and not self._wires:
                self._drain_retry = True
                self._maybe_drain()
        else:
            self._undone -= 1
            super()._mark_done(inst)

    # -- the wave drain --------------------------------------------------

    def _wave_fallback(self) -> bool:
        """Count one gate failure; the engine replays the epoch exactly."""
        self._wave_fallbacks += 1
        _STATS["wave_fallbacks"] += 1
        return False

    def _try_wave(self, barrier) -> bool:
        """Commit the epoch after ``barrier`` analytically, or refuse.

        Called when ``barrier`` completes, *before* the engine pumps its
        successors.  On success the whole inter-barrier wave — member
        transfers, compute chains, eager write-backs, and the next
        barrier's flush/quiescence — is committed as trace rows plus one
        anchor event at the modeled barrier's completion time; the
        anchor recursively re-enters this method, draining wave after
        wave with O(1) events per epoch.  On refusal nothing has been
        mutated and the caller falls through to the ordinary event
        path.
        """
        compiled = self._compiled
        b_id = barrier.instance_id
        nxt_id = compiled.wave_next.get(b_id)
        members = compiled.wave_members.get(b_id)
        if (
            nxt_id is None
            or not members
            or not self._drain_enabled
            or self._drained
        ):
            # not a provable wave by construction (full detail, final
            # epoch, empty epoch) — not counted as a gate fallback
            return False

        # -- gates: all pure, nothing mutated until every one passes ------
        # W0: quiet world — no wire traffic, write-backs, or ready work
        if self._wires or self._pending_writebacks or self.ready:
            return self._wave_fallback()

        # steady-state fast path: a recorded template for this wave's
        # signature replays the whole remaining stretch of isomorphic
        # waves as a float recurrence — no gates, no directory walks
        sig = compiled.wave_sig.get(b_id)
        if sig is not None and sig in self._tmpls:
            return self._replay_waves(barrier)

        done = self.done
        instances = self.graph.instances
        rids = compiled.resource_ids
        succs_sorted = compiled.succs_sorted
        region_rows = compiled.region_rows
        space_of = self._space_of
        nxt_only = (nxt_id,)

        res_members: dict[str, list] = {}
        seen_spaces: set[str] = set()
        for i in members:
            rid = rids[i]
            if rid is None:
                return self._wave_fallback()
            # W1: single layer — intra-wave edges fall back to the engine
            for dep in instances[i].deps:
                if dep != b_id and dep not in done:
                    return self._wave_fallback()
            # W5: fenced successors — the next barrier and nothing else
            if succs_sorted[i] != nxt_only:
                return self._wave_fallback()
            group = res_members.get(rid)
            if group is None:
                res_members[rid] = [i]
                space = space_of[rid]
                # W3: at most one member per non-host device space
                if space != HOST_SPACE:
                    if space in seen_spaces:
                        return self._wave_fallback()
                    seen_spaces.add(space)
            else:
                group.append(i)

        # W2: pure transfer prediction against the pre-wave directory —
        # host members must be fully resident (the engine would otherwise
        # stage device flushes), device members may only need plain
        # host-to-device copies, and members sharing a resource must not
        # transfer at all (their FIFO chain anchors at the barrier time)
        valid = self.memory._valid
        for rid, group in res_members.items():
            space = space_of[rid]
            shared = len(group) > 1
            if space == HOST_SPACE:
                for i in group:
                    for region, reads, _writes in region_rows[i]:
                        if reads and not valid[region.array][
                            HOST_SPACE
                        ].contains(region.start, region.end):
                            return self._wave_fallback()
            else:
                for i in group:
                    for region, reads, _writes in region_rows[i]:
                        if not reads:
                            continue
                        missing = valid[region.array][space].missing(
                            region.start, region.end
                        )
                        if not missing:
                            continue
                        if shared:
                            return self._wave_fallback()
                        host = valid[region.array][HOST_SPACE]
                        for lo, hi in missing:
                            if not host.contains(lo, hi):
                                # would stage a d2h flush first; ensure()
                                # could then mutate before a later bail
                                return self._wave_fallback()

        # W4: written regions pairwise disjoint across members, so the
        # id-order commit below commutes with completion-order writes
        write_rows: list = []
        for i in members:
            for region, _reads, writes in region_rows[i]:
                if writes:
                    write_rows.append((i, region))
        for a in range(len(write_rows) - 1):
            ia, ra = write_rows[a]
            for ib, rb in write_rows[a + 1:]:
                if ia != ib and ra.overlaps(rb):
                    return self._wave_fallback()

        # steady-wave capture: with invalidating barriers every wave
        # starts from the canonical post-flush directory state (host
        # fully valid, devices empty), so the transfer ops resolved in
        # the commit below repeat verbatim for every later wave of this
        # signature — record them once so _replay_waves can skip the
        # gates and the directory entirely from the next wave on
        record = (
            sig is not None and self.config.barrier_invalidates_devices
        )
        p1_ops: dict | None = {} if record else None
        wb_log: list | None = [] if record else None

        # -- commit: replay the engine's arithmetic analytically ----------
        sim = self.sim
        t0 = sim.now
        memory = self.memory
        durations = compiled.durations
        kernel_names = compiled.kernel_names
        los = compiled.los
        his = compiled.his
        sizes = compiled.sizes
        flags = compiled.writeback_flags
        links = self.links
        lanes = self.transfer_lanes
        transfer_bytes = self.transfer_bytes
        #: per-link-channel busy cursor (keyed by SimResource object, so
        #: a half-duplex link's shared channel serializes both directions)
        link_busy: dict = {}

        def model_ops(ops, ready_time):
            # serial occupation on each op's link channel: start at the
            # later of the issue time and the link cursor, end after the
            # link's transfer time — the exact floats the engine's
            # occupy/_finish chain produces event by event
            land = ready_time
            for op in ops:
                direction = "h2d" if op.is_h2d else "d2h"
                key = f"{op.device_space}:{direction}"
                link = links[key]
                cursor = link_busy.get(link, ready_time)
                start = cursor if cursor > ready_time else ready_time
                end = start + self._transfer_duration(op)
                link_busy[link] = end
                transfer_bytes[direction] += op.nbytes
                lanes[key].append(start, end, (op.array, op.start, op.end))
                if end > land:
                    land = end
            return land

        # phase 1 — reads: real ensure() calls in dispatch order (the
        # gates guarantee they emit only the predicted h2d copies); a
        # lone member's chain anchors where its last transfer lands,
        # shared-resource members chain FIFO from the barrier time
        t0s: list[float] = []
        rows: list[array] = []
        order = list(res_members)
        for rid in order:
            group = res_members[rid]
            space = space_of[rid]
            anchor = t0
            if len(group) == 1:
                i = group[0]
                ops: list = []
                for region, reads, _writes in region_rows[i]:
                    if reads:
                        ops.extend(memory.ensure(region, space))
                if ops:
                    anchor = model_ops(ops, t0)
                if record:
                    p1_ops[rid] = tuple(ops)
            else:
                for i in group:
                    for region, reads, _writes in region_rows[i]:
                        if reads:
                            memory.ensure(region, space)
            t0s.append(anchor)
            rows.append(array("d", [durations[j] for j in group]))

        # compute chains: one cumsum across every resource frontier,
        # bulk-appended per lane (bit-identical scalar fallback inside)
        bounds = _vec.chain_bounds(t0s, rows)
        member_end: dict[int, float] = {}
        t_ready = t0
        for rid, b in zip(order, bounds):
            group = res_members[rid]
            names = [kernel_names[j] for j in group]
            self.compute_lanes[rid].extend_rows(
                b[:-1],
                b[1:],
                str_args=names,
                args_a=[los[j] for j in group],
                args_b=[his[j] for j in group],
                args_c=list(group),
                sizes=[sizes[j] for j in group],
                kernels=names,
            )
            for idx, j in enumerate(group):
                member_end[j] = float(b[idx + 1])
            last = float(b[len(group)])
            if last > t_ready:
                t_ready = last

        # phase 2 — writes and eager write-backs in id order (W4 makes
        # this commute with the engine's completion order); write-back
        # ops go on the wire when their member's compute ends
        wb_land = t0
        for i in members:
            space = space_of[rids[i]]
            rows_i = region_rows[i]
            for region, _reads, writes in rows_i:
                if writes:
                    memory.write(region, space)
            if flags[i]:
                end_i = member_end[i]
                for region, _reads, writes in rows_i:
                    if writes:
                        ops = memory.writeback(region, space)
                        if ops:
                            if record:
                                wb_log.append((i, tuple(ops)))
                            land = model_ops(ops, end_i)
                            if land > wb_land:
                                wb_land = land

        # the modeled barrier: flush at the last compute's end, overhead
        # in parallel, completion once write-backs have landed too —
        # exactly the engine's _BarrierArm + _wb_waiters semantics
        nxt = instances[nxt_id]
        flush_ops = memory.flush_to_host(
            invalidate=self.config.barrier_invalidates_devices
        )
        t_done = t_ready + self._barrier_overhead(nxt)
        if flush_ops:
            land = model_ops(flush_ops, t_ready)
            if land > t_done:
                t_done = land
        if wb_land > t_done:
            t_done = wb_land

        # bookkeeping: super()._mark_done minus the ready-list appends —
        # every release the members would have triggered is the modeled
        # barrier, which completes through the anchor instead
        remaining = self.remaining
        done.add(b_id)
        self._barriers_left -= 1
        for succ in barrier.succs:
            remaining[succ] -= 1
        for i in members:
            done.add(i)
            remaining[nxt_id] -= 1
        self._undone -= len(members)
        self._waves_drained += 1
        _STATS["waves_drained"] += 1

        # one closure-free anchor event per wave; both engines consume
        # exactly one sequence number here
        schedule_call = getattr(sim, "schedule_call", None)
        if schedule_call is not None:
            schedule_call(t_done, self._mark_done, nxt)
        else:
            sim.at(t_done, _WaveAnchor(self, nxt),
                   priority=PRIORITY_COMPLETION)
        if record:
            self._build_template(sig, members, res_members, p1_ops,
                                 wb_log, flush_ops)
        return True

    def _build_template(self, sig, members, res_members, p1_ops, wb_log,
                        flush_ops) -> None:
        """Freeze this wave's resolved commit into a replayable template.

        Everything a wave commit touches is reduced to plain tuples:
        per-group member positions, duration chains, and trace-row
        columns, plus the resolved transfer ops as ``(lane_key, link,
        duration, nbytes, direction, array, lo, hi)`` rows.  Validity
        rests on the canonical post-flush state (see ``_try_wave``'s
        capture comment): an invalidating barrier wipes device residency
        and revalidates the host, so an isomorphic wave resolves ensure,
        write-back, and flush ops to exactly these rows again.
        """
        compiled = self._compiled
        durations = compiled.durations
        kernel_names = compiled.kernel_names
        los = compiled.los
        his = compiled.his
        sizes = compiled.sizes
        links = self.links
        pos_of = {i: p for p, i in enumerate(members)}

        def op_rows(ops):
            rows = []
            for op in ops:
                direction = "h2d" if op.is_h2d else "d2h"
                key = f"{op.device_space}:{direction}"
                rows.append((
                    key, links[key], self._transfer_duration(op),
                    op.nbytes, direction, op.array, op.start, op.end,
                ))
            return tuple(rows)

        groups = tuple(
            (
                rid,
                tuple(pos_of[i] for i in group),
                tuple(durations[i] for i in group),
                op_rows(p1_ops.get(rid, ())),
                [kernel_names[i] for i in group],
                [los[i] for i in group],
                [his[i] for i in group],
                [sizes[i] for i in group],
            )
            for rid, group in res_members.items()
        )
        wbs = tuple((pos_of[i], op_rows(ops)) for i, ops in wb_log)
        flush = op_rows(flush_ops)
        nbytes = {"h2d": 0, "d2h": 0}
        for _, _, _, ops, _, _, _, _ in groups:
            for row in ops:
                nbytes[row[4]] += row[3]
        for _, ops in wbs:
            for row in ops:
                nbytes[row[4]] += row[3]
        for row in flush:
            nbytes[row[4]] += row[3]
        self._tmpls[sig] = (groups, wbs, flush, nbytes["h2d"], nbytes["d2h"])

    def _replay_waves(self, barrier) -> bool:
        """Commit every remaining templated wave as a float recurrence.

        The float arithmetic below is op-for-op the commit sequence of
        ``_try_wave`` (which itself mirrors the engine event by event):
        per-link cursors rooted at the wave's barrier time, scalar
        left-to-right duration chains (``_vec.chain_bounds``'s contract
        is bit-identity with exactly this recurrence), write-backs timed
        from their member's end, flush and overhead folded into the next
        barrier's completion.  The stretch runs as long as each wave's
        signature has a recorded template — ping-pong loops alternate
        between two classes, so the lookup is per wave, not one class
        for the whole stretch.  Trace rows accumulate per lane across
        the stretch and land in bulk ``extend_rows`` calls — per-lane
        row order is exactly the per-wave order, which is all the
        summary's group-ordered accumulations observe.  The directory is
        never touched: replayed waves would leave it exactly where the
        template wave's invalidating flush already put it.  One anchor
        event resumes the ordinary path at the last barrier.
        """
        compiled = self._compiled
        tmpls = self._tmpls
        wave_sig = compiled.wave_sig
        wave_members = compiled.wave_members
        wave_next = compiled.wave_next
        instances = self.graph.instances
        done = self.done
        remaining = self.remaining
        overhead = self.config.barrier_overhead_s
        sim = self.sim
        #: lane_key -> (starts, ends, str_args, args_a, args_b)
        xfer_acc: dict[str, tuple] = {}
        #: rid -> (starts, ends, str_args, args_a, args_b, args_c, sizes)
        comp_acc: dict[str, tuple] = {}
        nb_h2d_total = 0
        nb_d2h_total = 0

        t_prev = sim.now
        b = barrier
        b_id = b.instance_id
        tmpl = tmpls[wave_sig[b_id]]
        waves = 0
        while True:
            groups, wbs, flush, nb_h2d, nb_d2h = tmpl
            members = wave_members[b_id]
            nxt_id = wave_next[b_id]
            t0 = t_prev
            link_busy: dict = {}
            t_ready = t0
            member_end = [0.0] * len(members)
            for rid, positions, durs, ops, names, glos, ghis, gszs in groups:
                anchor = t0
                for key, link, dur, _nb, _d, arr, lo, hi in ops:
                    cursor = link_busy.get(link, t0)
                    start = cursor if cursor > t0 else t0
                    end = start + dur
                    link_busy[link] = end
                    acc = xfer_acc.get(key)
                    if acc is None:
                        acc = xfer_acc[key] = ([], [], [], [], [])
                    acc[0].append(start)
                    acc[1].append(end)
                    acc[2].append(arr)
                    acc[3].append(lo)
                    acc[4].append(hi)
                    if end > anchor:
                        anchor = end
                acc = comp_acc.get(rid)
                if acc is None:
                    acc = comp_acc[rid] = ([], [], [], [], [], [], [])
                starts, ends, strs, aas, abs_, args_c, szs = acc
                strs.extend(names)
                aas.extend(glos)
                abs_.extend(ghis)
                szs.extend(gszs)
                bprev = anchor
                for pos, dur in zip(positions, durs):
                    bend = bprev + dur
                    starts.append(bprev)
                    ends.append(bend)
                    args_c.append(members[pos])
                    member_end[pos] = bend
                    bprev = bend
                if bprev > t_ready:
                    t_ready = bprev
            wb_land = t0
            for pos, ops in wbs:
                end_i = member_end[pos]
                land = end_i
                for key, link, dur, _nb, _d, arr, lo, hi in ops:
                    cursor = link_busy.get(link, end_i)
                    start = cursor if cursor > end_i else end_i
                    end = start + dur
                    link_busy[link] = end
                    acc = xfer_acc.get(key)
                    if acc is None:
                        acc = xfer_acc[key] = ([], [], [], [], [])
                    acc[0].append(start)
                    acc[1].append(end)
                    acc[2].append(arr)
                    acc[3].append(lo)
                    acc[4].append(hi)
                    if end > land:
                        land = end
                if land > wb_land:
                    wb_land = land
            nxt = instances[nxt_id]
            t_done = t_ready + (overhead if nxt.succs else 0.0)
            if flush:
                land = t_ready
                for key, link, dur, _nb, _d, arr, lo, hi in flush:
                    cursor = link_busy.get(link, t_ready)
                    start = cursor if cursor > t_ready else t_ready
                    end = start + dur
                    link_busy[link] = end
                    acc = xfer_acc.get(key)
                    if acc is None:
                        acc = xfer_acc[key] = ([], [], [], [], [])
                    acc[0].append(start)
                    acc[1].append(end)
                    acc[2].append(arr)
                    acc[3].append(lo)
                    acc[4].append(hi)
                    if end > land:
                        land = end
                if land > t_done:
                    t_done = land
            if wb_land > t_done:
                t_done = wb_land
            nb_h2d_total += nb_h2d
            nb_d2h_total += nb_d2h

            done.add(b_id)
            self._barriers_left -= 1
            for succ in b.succs:
                remaining[succ] -= 1
            for i in members:
                done.add(i)
                remaining[nxt_id] -= 1
            self._undone -= len(members)
            waves += 1
            t_prev = t_done
            b = nxt
            b_id = nxt_id
            sig = wave_sig.get(b_id)
            tmpl = tmpls.get(sig) if sig is not None else None
            if tmpl is None:
                break

        compute_lanes = self.compute_lanes
        for rid, acc in comp_acc.items():
            starts, ends, strs, aas, abs_, args_c, szs = acc
            compute_lanes[rid].extend_rows(
                starts,
                ends,
                str_args=strs,
                args_a=aas,
                args_b=abs_,
                args_c=args_c,
                sizes=szs,
                kernels=strs,
            )
        lanes = self.transfer_lanes
        for key, (starts, ends, strs, aas, abs_) in xfer_acc.items():
            lanes[key].extend_rows(
                starts, ends, str_args=strs, args_a=aas, args_b=abs_,
            )
        if nb_h2d_total:
            self.transfer_bytes["h2d"] += nb_h2d_total
        if nb_d2h_total:
            self.transfer_bytes["d2h"] += nb_d2h_total

        self._waves_drained += waves
        self._waves_replayed += waves
        _STATS["waves_drained"] += waves
        _STATS["waves_replayed"] += waves

        # one anchor for the whole stretch; the last barrier resumes the
        # ordinary path (terminal drain or event loop) from t_prev
        schedule_call = getattr(sim, "schedule_call", None)
        if schedule_call is not None:
            schedule_call(t_prev, self._mark_done, b)
        else:
            sim.at(t_prev, _WaveAnchor(self, b),
                   priority=PRIORITY_COMPLETION)
        return True

    # -- the terminal drain ----------------------------------------------

    def _maybe_drain(self) -> None:
        if (
            self._drained
            or not self._drain_enabled
            or not self._drain_retry
            or self._wires
            or self._pending_writebacks
            or self._barriers_left
            or self._undone < DRAIN_MIN_INSTANCES
        ):
            return
        if not self._try_drain():
            # re-armed on the next wire-empty transition; pointless to
            # rewalk the graph until the world has changed
            self._drain_retry = False

    def _try_drain(self) -> bool:
        if self.ready:
            return False
        compiled = self._compiled
        graph = self.graph
        done = self.done
        rids = compiled.resource_ids
        instances = graph.instances
        succs_sorted = compiled.succs_sorted
        cross_deps = compiled.cross_deps

        dispatched: set[int] = set()
        for dq in self._res_dispatched.values():
            for inst in dq:
                dispatched.add(inst.instance_id)

        # gate 1: every remaining (undispatched, not done) instance's
        # unmet dependences live on its own resource — each resource's
        # future is then an independent FIFO chain (the cross-resource
        # dependence set is static, so only those need the done check)
        remaining_ids: list[int] = []
        for inst in instances:
            i = inst.instance_id
            if i in done or i in dispatched:
                continue
            if rids[i] is None:
                return False
            remaining_ids.append(i)
            for dep in cross_deps[i]:
                if dep not in done:
                    return False

        # gate 2: per-resource Kahn walk in FIFO readiness order — the
        # exact order the engine would dispatch (completions release
        # successors in sorted id order onto the same resource's queue)
        indeg = {i: self.remaining[i] for i in remaining_ids}
        chains: dict[str, list] = {}
        chained = 0
        for rid, dq in self._res_dispatched.items():
            chain: list = []
            work = deque(dq)
            while work:
                inst = work.popleft()
                chain.append(inst)
                chained += 1
                for succ in succs_sorted[inst.instance_id]:
                    left = indeg.get(succ)
                    if left is None:
                        continue
                    left -= 1
                    indeg[succ] = left
                    if left == 0:
                        work.append(instances[succ])
            chains[rid] = chain
        if chained != len(remaining_ids) + len(dispatched):
            return False

        # gate 3: shadow directory walk — every remaining read must
        # already be resident (the engine would otherwise issue
        # transfers, which the chains cannot model); writes are applied
        # along the way so later chain links see earlier results
        memory = self.memory
        spaces = tuple(memory._spaces)
        shadow: dict[tuple, object] = {}
        shadow_get = shadow.get
        real = memory._valid
        space_of = self._space_of

        wb_regions: list = []
        flags = self._compiled.writeback_flags
        region_rows = compiled.region_rows

        def shadow_entry(arr, sp):
            key = (arr, sp)
            entry = shadow_get(key)
            if entry is None:
                entry = shadow[key] = real[arr][sp].copy()
            return entry

        for rid, chain in chains.items():
            space = space_of[rid]
            others = tuple(sp for sp in spaces if sp != space)
            # per-array bound methods of this chain's shadow entries —
            # one dict hit per region instead of tuple-keyed lookups and
            # attribute walks on every chain link
            ops_of: dict = {}
            ops_get = ops_of.get
            for inst in chain:
                i = inst.instance_id
                check_reads = i not in dispatched
                for region, reads, writes in region_rows[i]:
                    arr = region.array
                    ops = ops_get(arr)
                    if ops is None:
                        entry = shadow_entry(arr, space)
                        ops = ops_of[arr] = (
                            entry.contains,
                            entry.add,
                            tuple(
                                shadow_entry(arr, sp).remove
                                for sp in others
                            ),
                        )
                    if check_reads and reads:
                        if not ops[0](region.start, region.end):
                            return False
                    if writes:
                        ops[1](region.start, region.end)
                        for remove in ops[2]:
                            remove(region.start, region.end)
                        if flags[i]:
                            wb_regions.append(region)

        # gate 4: replayed write-backs must commute with the up-front
        # write commit — their written regions must be pairwise disjoint
        if len(wb_regions) > 1:
            for i, a in enumerate(wb_regions):
                for b in wb_regions[i + 1:]:
                    if a.overlaps(b):
                        return False

        # -- commit: the engine provably produces these chains ------------
        # a resource with nothing running cannot anchor a chain (every
        # remaining instance traces back to a dispatched seed); an empty
        # queue with a non-empty chain means the walk above went wrong
        sim = self.sim
        now = sim.now
        t0s: list[float] = []
        rows: list[array] = []
        order: list[str] = []
        durations = compiled.durations
        kernel_names = compiled.kernel_names
        los = compiled.los
        his = compiled.his
        sizes = compiled.sizes
        for rid, chain in chains.items():
            if not self._res_dispatched[rid]:
                if chain:
                    return False
                continue
            lane = self.compute_lanes[rid]
            if not len(lane.ends):
                return False  # staged head row unavailable; stay exact
            order.append(rid)
            # the running head's row is the lane's last staged append;
            # its end anchors the chain with the exact float the pending
            # completion event carries
            t0s.append(lane.ends[-1])
            rows.append(
                array("d", [durations[inst.instance_id]
                            for inst in chain[1:]])
            )

        bounds = _vec.chain_bounds(t0s, rows)

        t_max = now
        tails: list[tuple[float, int, _DrainTail]] = []
        seq = 0
        for rid, b in zip(order, bounds):
            chain = chains[rid]
            k = len(b) - 1
            head_end = float(b[0]) if k == 0 else float(b[k])
            if head_end > t_max:
                t_max = head_end
            space = space_of[rid]
            drained = chain[1:]
            if k:
                ids = [inst.instance_id for inst in drained]
                names = [kernel_names[j] for j in ids]
                lane = self.compute_lanes[rid]
                lane.extend_rows(
                    b[:-1],
                    b[1:],
                    str_args=names,
                    args_a=[los[j] for j in ids],
                    args_b=[his[j] for j in ids],
                    args_c=ids,
                    sizes=[sizes[j] for j in ids],
                    kernels=names,
                )
            for j, inst in enumerate(drained):
                if flags[inst.instance_id]:
                    tails.append(
                        (float(b[j + 1]), seq, _DrainTail(self, inst, space))
                    )
                    seq += 1
            # the running head completes through its own pending event
            # (see _complete_compute); everything queued behind it is now
            # accounted for by the bulk rows above
            self.sim_resources[rid]._queue.clear()

        # apply the shadow directory: all drained writes land at once
        for (arr, space), entry in shadow.items():
            real[arr][space] = entry

        done.update(range(len(instances)))
        self._undone = 0
        self._drained = True
        _STATS["terminal_drains"] += 1

        for end, _, tail in sorted(tails, key=lambda t: (t[0], t[1])):
            sim.at(end, tail, priority=PRIORITY_COMPLETION)
        # anchor the clock so the final flush starts when the last chain
        # ends, exactly as the event loop would have left it
        if t_max > now:
            sim.at(t_max, _noop, priority=PRIORITY_COMPLETION)
        return True

    def _drain_writeback(self, inst, space) -> None:
        # replica of _Run._complete's eager write-back block, fired at
        # the drained instance's computed end time
        for region, mode in self._regions(inst):
            if mode.writes:
                for op in self.memory.writeback(region, space):
                    self._pending_writebacks += 1
                    self._issue_transfer(
                        op, on_complete=self._writeback_done
                    )
