"""Tenancy benchmark: fair-share isolation vs. a free-for-all fleet.

Three tenants — a foreground **victim**, a bursty **aggressor**, and a
quiet **background** tenant — share one swap-store fleet on one
simulated clock.  Each tenant drives its own :class:`~repro.core.
space.Space` with a scripted workload built from the same traffic
shapes as :mod:`repro.bench.scenarios` (:func:`~repro.bench.scenarios.
build_script`), so runs are deterministic per (seed, mode): the
aggressor replays a flash-crowd burst (arrivals plus an allocation
spike) sized to several times the fleet's capacity, while the victim
keeps serving pointer-chase touches against its foreground task.

Every seed runs twice over byte-identical workloads:

* **fleet mode** — all three spaces are registered with a
  :class:`~repro.fleet.tenancy.TenantRegistry` (the victim holds a
  guaranteed share) fronted by a :class:`~repro.fleet.controller.
  FleetController`;
* **off mode** — same spaces, same stores, no tenancy: first-come,
  first-served.

The score is the victim's experience while the aggressor bursts:
p95 touch stall, involuntary fair-share evictions, admission denials,
and — the decisive signal — swap-outs that found no fleet room and
degraded to the local pool.  Isolation **holds** when the victim stays
within its SLO, suffers zero denials, zero fair-share evictions, and
zero degraded swap-outs; the free-for-all **violates** when at least
one victim swap-out starves (or the victim is squeezed below
:data:`VICTIM_FLOOR_FRACTION` of its guaranteed bytes, or blows its
SLO) — both sides are asserted per seed by CI.

``python -m repro bench tenancy`` writes ``BENCH_tenancy.json`` and
checks :func:`gates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bench.runner import Gate
from repro.bench.scenarios import (
    FOREGROUND,
    _build_chain,
    _p95,
    build_script,
)
from repro.clock import SimulatedClock
from repro.comm.transport import bluetooth_link
from repro.core.degrade import DegradeLadderConfig
from repro.core.fastpath import FastPathConfig
from repro.core.space import Space
from repro.devices.store import XmlStoreDevice
from repro.errors import IntegrityError, ObiError
from repro.faults import FaultInjector, FaultPlan, FlakyStore
from repro.faults.scenarios import ScenarioPhase, ScenarioSpec, device_name
from repro.fleet import (
    FleetConfig,
    FleetController,
    TenantRegistry,
    TenantSpec,
    manager_store_bytes,
)
from repro.resilience import ResilienceConfig

#: Shared fleet sizing: deliberately small against the aggressor's
#: appetite so its burst drives the fleet into global store pressure.
STORE_COUNT = 4
STORE_CAPACITY = 48 << 10

#: The victim's responsiveness SLO (p95 touch-stall seconds).
VICTIM_SLO_S = 1.5

#: Isolation floor (off-mode starvation evidence): ending the burst
#: below this fraction of the guaranteed store bytes counts as the
#: free-for-all squeezing the victim out of the fleet.
VICTIM_FLOOR_FRACTION = 0.5

#: Tenant roles, in scripted execution order per round.
TENANT_ORDER = ("victim", "aggressor", "background")

#: Fleet-mode tenant limits.  The victim's guarantee is what the bench
#: defends; the aggressor's quota is deliberately near the whole fleet
#: so only fair-share arbitration (never its own quota) restrains it.
TENANT_LIMITS: Dict[str, Dict[str, Any]] = {
    "victim": {
        "guaranteed_share": 0.30,
        "quota_fraction": 0.45,
        "priority_class": 2,
    },
    "aggressor": {
        "guaranteed_share": 0.10,
        "quota_fraction": 0.90,
        "priority_class": 1,
    },
    "background": {
        "guaranteed_share": 0.10,
        "quota_fraction": 0.25,
        "priority_class": 1,
    },
}


def tenant_specs(quick: bool) -> Dict[str, ScenarioSpec]:
    """The three tenants' workloads over one shared phase skeleton.

    All three use identical phase timings (same step counts, same
    ``step_s``) so the driver can interleave them round-by-round on
    the shared clock; they differ only in traffic shape.
    """
    warmup = 6 if quick else 8
    burst = 18 if quick else 36
    drain = 4 if quick else 8

    def phases(
        *,
        warm_touches: int,
        burst_touches: int,
        pattern: str,
        arrivals: int = 0,
        arrival_objects: int = 0,
        spike: int = 0,
        drain_touches: int = 4,
    ) -> Tuple[ScenarioPhase, ...]:
        return (
            ScenarioPhase(
                "warmup", steps=warmup, step_s=1.0,
                touches_per_step=warm_touches, pattern="uniform",
            ),
            ScenarioPhase(
                "burst", steps=burst, step_s=0.5,
                touches_per_step=burst_touches, pattern=pattern,
                arrivals_per_step=arrivals, arrival_objects=arrival_objects,
                spike_objects=spike, release_spike=False,
            ),
            ScenarioPhase(
                "drain", steps=drain, step_s=2.0,
                touches_per_step=drain_touches, pattern="uniform",
            ),
        )

    return {
        "victim": ScenarioSpec(
            name="tenancy_victim",
            description="foreground pointer-chase at a steady rate",
            phases=phases(
                warm_touches=6, burst_touches=6, pattern="foreground"
            ),
            tasks=6,
            objects_per_task=24,
            payload_bytes=256,
            heap_capacity=40 << 10,
        ),
        "aggressor": ScenarioSpec(
            name="tenancy_aggressor",
            description=(
                "flash-crowd burst: arrivals plus an allocation spike, "
                "several times the fleet's capacity"
            ),
            phases=phases(
                warm_touches=4, burst_touches=8, pattern="uniform",
                arrivals=2, arrival_objects=16, spike=48,
            ),
            tasks=8,
            objects_per_task=24,
            payload_bytes=256,
            heap_capacity=96 << 10,
        ),
        "background": ScenarioSpec(
            name="tenancy_background",
            description="a quiet tenant ticking over",
            phases=phases(
                warm_touches=2, burst_touches=2, pattern="uniform",
                drain_touches=2,
            ),
            tasks=4,
            objects_per_task=16,
            payload_bytes=256,
            heap_capacity=32 << 10,
        ),
    }


@dataclass
class _TenantRun:
    """Per-tenant live state inside one run."""

    name: str
    spec: ScenarioSpec
    space: Space
    script: List[Any]
    handles: List[Any]
    stalls: List[float]
    killed_touches: int = 0
    touch_failures: int = 0
    arrival_failures: int = 0
    spike_failures: int = 0
    spike_handle: Optional[Any] = None
    spike_name: Optional[str] = None
    spike_count: int = 0


def _task_priority(index: int, spec: ScenarioSpec) -> int:
    return FOREGROUND if index == 0 else 1


def run_once(
    seed: int,
    *,
    fleet: bool,
    quick: bool = False,
    observe: bool = False,
    obs_path: Optional[str] = None,
    obs_append: bool = True,
) -> Dict[str, Any]:
    """Drive all three tenants through one seeded run; score the victim."""
    clock = SimulatedClock()
    injector = FaultInjector(FaultPlan.empty(seed=seed), clock)
    stores: List[FlakyStore] = []
    for index in range(STORE_COUNT):
        stores.append(
            FlakyStore(
                XmlStoreDevice(
                    device_name(index),
                    capacity=STORE_CAPACITY,
                    link=bluetooth_link(clock, name=f"bt-{index}"),
                ),
                injector,
            )
        )
    capacity = STORE_COUNT * STORE_CAPACITY
    mode = "fleet" if fleet else "off"
    specs = tenant_specs(quick)

    runs: Dict[str, _TenantRun] = {}
    for name in TENANT_ORDER:
        spec = specs[name]
        space = Space(
            f"tenancy-{name}-{mode}-{seed}",
            heap_capacity=spec.heap_capacity,
            clock=clock,
        )
        manager = space.manager
        for store in stores:
            manager.add_store(store)
        manager.enable_resilience(
            ResilienceConfig(
                seed=seed,
                degrade_to_local=True,
                replication_factor=2,
                scrub_interval_s=10.0**9,
                cooldown_s=5.0,
            )
        )
        manager.enable_fastpath(
            FastPathConfig(
                cache_budget_bytes=spec.cache_budget_bytes, delta=True
            )
        )
        runs[name] = _TenantRun(
            name=name,
            spec=spec,
            space=space,
            script=build_script(spec, seed),
            handles=[],
            stalls=[],
        )

    registry: Optional[TenantRegistry] = None
    controller: Optional[FleetController] = None
    if fleet:
        registry = TenantRegistry(
            stores, config=FleetConfig(pressure_free_fraction=0.25)
        )
        for name in TENANT_ORDER:
            limits = TENANT_LIMITS[name]
            registry.register(
                TenantSpec(
                    tenant_id=name,
                    heap_budget_bytes=specs[name].heap_capacity,
                    store_quota_bytes=int(
                        limits["quota_fraction"] * capacity
                    ),
                    guaranteed_share=limits["guaranteed_share"],
                    priority_class=limits["priority_class"],
                ),
                runs[name].space.manager,
            )
        controller = FleetController(registry)
        # exercise the control plane inside the bench: one accepted
        # fleet-wide change, distributed exactly once to every manager
        decision = controller.submit({"manager.replication_factor": 2})
        assert decision.accepted, decision.reason
        controller.distribute()

    # the ladder is enabled in both modes (the bench isolates *tenancy*,
    # not the ladder); in fleet mode enabling it after registration
    # exercises the manager's tenant re-bind hook
    for name in TENANT_ORDER:
        runs[name].space.manager.enable_degrade_ladder(
            DegradeLadderConfig(slo_p95_stall_s=VICTIM_SLO_S)
        )
    obs_runtimes = {}
    if observe:
        for name in TENANT_ORDER:
            obs_runtimes[name] = runs[name].space.manager.enable_observability()

    import random

    def ingest_task(
        run: _TenantRun, index: int, objects: int, priority: int
    ) -> Any:
        content = random.Random(seed * 1_000_003 + index)
        handle = run.space.ingest(
            _build_chain(objects, run.spec.payload_bytes, content),
            cluster_size=objects,
            root_name=f"{run.name}-task-{index}",
        )
        run.space.set_priority(handle, priority)
        return handle

    for name in TENANT_ORDER:
        run = runs[name]
        for index in range(run.spec.tasks):
            run.handles.append(
                ingest_task(
                    run,
                    index,
                    run.spec.objects_per_task,
                    _task_priority(index, run.spec),
                )
            )

    rounds = max(len(run.script) for run in runs.values())
    for step_index in range(rounds):
        # one shared-clock advance per round (identical skeletons)
        clock.advance(runs["victim"].script[step_index].advance_s)
        for name in TENANT_ORDER:
            run = runs[name]
            step = run.script[step_index]
            if step.spike_objects:
                run.spike_count += 1
                run.spike_name = f"{name}-spike-{run.spike_count}"
                started = clock.now()
                try:
                    chain = _build_chain(
                        step.spike_objects,
                        run.spec.payload_bytes,
                        random.Random(seed * 2_000_003 + run.spike_count),
                    )
                    run.spike_handle = run.space.ingest(
                        chain,
                        cluster_size=step.spike_objects,
                        root_name=run.spike_name,
                    )
                    run.space.set_priority(run.spike_handle, FOREGROUND)
                except ObiError:
                    run.spike_failures += 1
                    run.spike_handle = None
                    run.spike_name = None
                run.stalls.append(clock.now() - started)
            if step.arrivals:
                arrival_objects = run.spec.phase_named(
                    step.phase
                ).arrival_objects
                for index in step.arrivals:
                    try:
                        run.handles.append(
                            ingest_task(run, index, arrival_objects, 1)
                        )
                    except ObiError:
                        run.handles.append(None)
                        run.arrival_failures += 1
            for task, mutate in step.touches:
                if task >= len(run.handles) or run.handles[task] is None:
                    continue
                started = clock.now()
                try:
                    if mutate:
                        run.handles[task].bump()
                    else:
                        run.handles[task].get_key()
                except IntegrityError:
                    run.killed_touches += 1
                    continue
                except ObiError:
                    run.touch_failures += 1
                    continue
                run.stalls.append(clock.now() - started)

    # -- scoring -----------------------------------------------------------

    tenants: Dict[str, Any] = {}
    for name in TENANT_ORDER:
        run = runs[name]
        manager = run.space.manager
        stats = manager.stats
        fleet_bytes = manager_store_bytes(manager, stores)
        tenant = manager.tenant
        tenants[name] = {
            "p95_stall_s": round(_p95(run.stalls), 4),
            "max_stall_s": round(max(run.stalls), 4) if run.stalls else 0.0,
            "stall_samples": len(run.stalls),
            "touch_failures": run.touch_failures,
            "killed_touches": run.killed_touches,
            "arrival_failures": run.arrival_failures,
            "spike_failures": run.spike_failures,
            "oom_kills": stats.oom_kills,
            "fleet_bytes": fleet_bytes,
            "swap_outs": stats.swap_outs,
            "swap_ins": stats.swap_ins,
            "degraded_swaps": stats.degraded_swaps,
            "counters": {
                "fleet.admission.denials": stats.fleet_admission_denials,
                "fleet.reclaim.evictions": stats.fleet_reclaim_evictions,
                "fleet.reclaim.bytes": stats.fleet_reclaim_bytes,
                "fleet.config.updates": stats.fleet_config_updates,
                "tenant.pressure.bumps": stats.tenant_pressure_bumps,
            },
            "evicted_copies": tenant.evicted_copies if tenant else 0,
            "evicted_bytes": tenant.evicted_bytes if tenant else 0,
        }

    victim = tenants["victim"]
    guaranteed = int(TENANT_LIMITS["victim"]["guaranteed_share"] * capacity)
    floor = int(VICTIM_FLOOR_FRACTION * guaranteed)
    isolation: Dict[str, Any] = {
        "victim_slo_s": VICTIM_SLO_S,
        "victim_p95_stall_s": victim["p95_stall_s"],
        "victim_guaranteed_bytes": guaranteed,
        "victim_floor_bytes": floor,
        "victim_fleet_bytes": victim["fleet_bytes"],
        "victim_denials": victim["counters"]["fleet.admission.denials"],
        "victim_evicted_copies": victim["evicted_copies"],
        "victim_degraded_swaps": victim["degraded_swaps"],
        "aggressor_denials": tenants["aggressor"]["counters"][
            "fleet.admission.denials"
        ],
        "aggressor_reclaimed_bytes": tenants["aggressor"]["evicted_bytes"],
    }
    if fleet:
        # Fair share held: the victim stayed responsive, every one of
        # its ships found fleet room (no degrade-to-local), and the
        # registry never denied or reclaimed against it.  End-of-run
        # byte counts are mutate-timing noisy, so they inform the
        # report but not the verdict here.
        isolation["held"] = (
            victim["p95_stall_s"] <= VICTIM_SLO_S
            and victim["touch_failures"] == 0
            and isolation["victim_denials"] == 0
            and isolation["victim_evicted_copies"] == 0
            and victim["degraded_swaps"] == 0
        )
    else:
        # Free-for-all starvation: at least one victim swap-out found
        # no fleet room and fell back to the local pool, or the victim
        # ended the run squeezed below its isolation floor (or blew
        # its responsiveness SLO outright).
        isolation["violated"] = (
            victim["degraded_swaps"] > 0
            or victim["p95_stall_s"] > VICTIM_SLO_S
            or victim["touch_failures"] > 0
            or victim["fleet_bytes"] < floor
        )

    result: Dict[str, Any] = {
        "mode": mode,
        "seed": seed,
        "sim_duration_s": round(clock.now(), 3),
        "fleet_capacity_bytes": capacity,
        "fleet_used_bytes": sum(store.used for store in stores),
        "tenants": tenants,
        "isolation": isolation,
    }
    if registry is not None:
        result["fleet"] = registry.snapshot()
        result["control_plane"] = {
            "leader": controller.leader_id,
            "epoch": controller.epoch,
            "accepted": controller.accepted,
            "rejected": controller.rejected,
            "undelivered": controller.undelivered(),
        }
    if observe:
        first = not obs_append
        for name in TENANT_ORDER:
            obs = obs_runtimes[name]
            obs.refresh()
            if obs_path is not None:
                obs.export_jsonl(
                    obs_path,
                    label=f"tenancy:{name}:{mode}:seed={seed}",
                    append=not first,
                )
                first = False
    return result


# ---------------------------------------------------------------------------
# The full matrix
# ---------------------------------------------------------------------------


def run_bench(
    seeds: Tuple[int, ...] = (1, 2, 3),
    *,
    quick: bool = False,
    observe: bool = False,
    obs_path: Optional[str] = None,
) -> Dict[str, Any]:
    per_seed: Dict[str, Any] = {}
    first_export = True
    for seed in seeds:
        fleet_run = run_once(
            seed, fleet=True, quick=quick,
            observe=observe, obs_path=obs_path,
            obs_append=not first_export,
        )
        first_export = False
        off_run = run_once(
            seed, fleet=False, quick=quick,
            observe=observe, obs_path=obs_path, obs_append=True,
        )
        per_seed[str(seed)] = {"fleet": fleet_run, "off": off_run}
    return {
        "benchmark": "tenancy",
        "observed": observe,
        "config": {
            "seeds": list(seeds),
            "quick": quick,
            "store_count": STORE_COUNT,
            "store_capacity": STORE_CAPACITY,
            "victim_slo_s": VICTIM_SLO_S,
            "victim_floor_fraction": VICTIM_FLOOR_FRACTION,
            "limits": TENANT_LIMITS,
        },
        "seeds": per_seed,
        "summary": {
            "isolation_held": all(
                entry["fleet"]["isolation"]["held"]
                for entry in per_seed.values()
            ),
            "tenancy_off_violates": all(
                entry["off"]["isolation"]["violated"]
                for entry in per_seed.values()
            ),
        },
    }


def format_table(report: Dict[str, Any]) -> str:
    header = (
        f"{'seed':<5} {'mode':<6} {'victim p95':>11} {'victim B':>9} "
        f"{'denials V/A':>12} {'reclaim A':>10} {'verdict':>9}"
    )
    lines = [header, "-" * len(header)]
    for seed, entry in report["seeds"].items():
        for mode in ("fleet", "off"):
            run = entry[mode]
            iso = run["isolation"]
            verdict = (
                ("held" if iso["held"] else "BROKEN")
                if mode == "fleet"
                else ("violates" if iso["violated"] else "fine")
            )
            lines.append(
                f"{seed:<5} {mode:<6} {iso['victim_p95_stall_s']:>11.3f} "
                f"{iso['victim_fleet_bytes']:>9} "
                f"{iso['victim_denials']:>5}/{iso['aggressor_denials']:<6} "
                f"{iso['aggressor_reclaimed_bytes']:>10} {verdict:>9}"
            )
    return "\n".join(lines)


def gates(payload: Dict[str, Any]) -> Iterator[Gate]:
    """The acceptance bars on a ``run_bench`` payload."""
    # tenancy on isolates the victim from the aggressor; tenancy off
    # starves it (else the bench demonstrates nothing)
    yield Gate("summary.isolation_held", "==", True)
    yield Gate("summary.tenancy_off_violates", "==", True)
    for seed in payload["seeds"]:
        at = f"seeds.{seed}"
        yield Gate(f"{at}.fleet.isolation.held", "==", True)
        yield Gate(f"{at}.fleet.tenants.victim.degraded_swaps", "==", 0)
        yield Gate(f"{at}.off.isolation.violated", "==", True)
        # the control plane delivered every change
        yield Gate(f"{at}.fleet.control_plane.undelivered", "==", 0)
