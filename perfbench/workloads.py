"""The benchmark's workloads, driven only through the library's public API.

Each workload builds its inputs from the workload seed, runs them to
completion and returns a :class:`WorkloadRun`: one :class:`Outcome` per
user task (with its latency from the task's *scheduled* arrival, so time
spent waiting out load sheds counts), the telemetry JSONL export of every
deployment, and the failed correctness checks.  None of them runs the
sharded kernel, and none goes through ``repro.experiments``.

* ``ebank-crowd`` — N WLAN devices on the backbone, one e-banking task
  each, round-robin over ``max(2, N/500)`` gateways, one bank, arrivals
  every 50 ms.  Routing runs per-pair shortest paths over a backbone whose
  degree grows with N, and every device sends the same code.
* ``city-day`` — one diurnal day (two commute peaks and a flash crowd)
  over 6 AP cells and a 3-gateway fleet, with all six app archetypes and
  auction deadlines.  The codecs dominate; admission sheds are live.
* ``swarm`` — K consecutive simtest scenarios through ``generate`` and
  ``run_spec``: many tiny deployments with faults, crashes, sqlite
  storage, streaming sessions and the invariant catalogue.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

#: ebank-crowd population.  Routing's share of host time grows with it.
EBANK_DEVICES = 800
EBANK_DEVICES_PER_GATEWAY = 500
EBANK_ARRIVAL_SPACING_S = 0.05

#: city-day population; large enough that the flash crowd sheds.
CITY_DEVICES = 600
CITY_GATEWAYS = 3
CITY_APS = 6
CITY_SITES = ("metro-a", "metro-b", "metro-c")
#: Apps drawn per device, weighted toward the interactive classes.
CITY_APP_MIX = (
    ("ebanking",) * 3
    + ("foodsearch",) * 2
    + ("mcommerce",) * 2
    + ("ridedispatch",) * 3
    + ("auctionsnipe",) * 3
    + ("jobfarm",) * 2
)
#: Chance that a device in a flash cell joins the crowd, scaled by the
#: cell's weight in the spike.
CITY_FLASH_JOIN_P = 0.75
#: Auction deadline slack after the task's arrival.
CITY_DEADLINE_SLACK_S = (90.0, 150.0)
CITY_ZONES = ("downtown", "airport", "harbor", "uptown")

#: swarm: scenarios per run; workload seed N runs simtest seeds N to N+K-1.
SWARM_SCENARIOS = 60


@dataclass
class Outcome:
    """How one user task ended."""

    device: str
    ok: bool
    #: Seconds from the scheduled arrival to the collected result (ok only).
    latency: float = 0.0
    #: "" on success, else the failure class.
    detail: str = ""
    #: Which of the run's deployments the task ran in.
    deployment: int = 0


@dataclass
class WorkloadRun:
    outcomes: list[Outcome] = field(default_factory=list)
    #: Tasks per device; the key is unique per device across deployments.
    device_tasks: dict[str, int] = field(default_factory=dict)
    #: (device key prefix, JSONL export) per deployment.
    exports: list[tuple[str, str]] = field(default_factory=list)
    events: int = 0
    failed_checks: list[str] = field(default_factory=list)
    #: Workload-specific tallies, printed and folded into the digest.
    tallies: dict[str, int] = field(default_factory=dict)
    #: The last deployment, kept alive so the traced run's memory walk sees
    #: what it holds (run_spec keeps its deployments to itself).
    live: Any = None


def _export(deployment: Any) -> str:
    from repro.telemetry.exporters import TraceCollector

    collector = TraceCollector()
    collector.add_run("bench", deployment.network)
    buf = io.StringIO()
    collector.write_jsonl(buf)
    return buf.getvalue()


# ------------------------------------------------------------ ebank-crowd
def ebank_crowd(seed: int, setup_begins: Callable[[], None]) -> WorkloadRun:
    from repro.apps.ebanking import (
        BankServiceAgent,
        EBankingAgent,
        ebanking_service_code,
        make_transactions,
    )
    from repro.core import DeploymentBuilder
    from repro.core.errors import PDAgentError
    from repro.mas import Stop

    n = EBANK_DEVICES
    n_gateways = max(2, n // EBANK_DEVICES_PER_GATEWAY)
    setup_begins()
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    for g in range(n_gateways):
        builder.add_gateway(f"gw-{g}")
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="bank-a")])
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    for i in range(n):
        builder.add_device(f"dev-{i}", wireless="WLAN")
    deployment = builder.build()
    sim = deployment.sim
    txns = make_transactions(["bank-a"], 1)
    stops = [Stop("bank-a", task="banking")]
    outcomes = [Outcome(f"dev-{i}", False, detail="never ran") for i in range(n)]

    def one_task(i: int) -> Generator:
        platform = deployment.platform(f"dev-{i}")
        gateway = f"gw-{i % n_gateways}"
        arrival = i * EBANK_ARRIVAL_SPACING_S
        yield sim.timeout(arrival)
        try:
            yield from platform.subscribe("ebanking", gateway=gateway)
            handle = yield from platform.deploy(
                "ebanking", {"transactions": txns}, stops=stops, gateway=gateway
            )
            yield deployment.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
        except PDAgentError as exc:
            outcomes[i] = Outcome(f"dev-{i}", False, detail=type(exc).__name__)
            return
        ok = result.status == "completed"
        outcomes[i] = Outcome(
            f"dev-{i}", ok, sim.now - arrival if ok else 0.0,
            "" if ok else f"status {result.status}",
        )

    for i in range(n):
        sim.process(one_task(i), name=f"ebank-task-{i}")
    sim.run()

    run = WorkloadRun(outcomes=outcomes, events=sim.events_processed, live=deployment)
    run.exports.append(("", _export(deployment)))
    run.device_tasks = {f"dev-{i}": 1 for i in range(n)}
    completed = sum(o.ok for o in outcomes)
    run.tallies = {"devices": n, "gateways": n_gateways, "completed": completed}
    if completed != n:
        run.failed_checks.append(f"ebank-crowd: {completed}/{n} tasks completed")
    return run


# ------------------------------------------------------------ city-day
def _city_plans(seed: int, n: int) -> list[dict[str, Any]]:
    """One task per device: app, parameters, stops, arrival, deadline slack."""
    from repro.apps import make_transactions
    from repro.mas import Stop
    from repro.simnet.rng import StreamFactory
    from repro.simtest.traffic import TrafficSpec, sample_arrivals

    traffic = TrafficSpec(
        day_s=240.0, peak_ratio=4.0, peaks=2, flash_at=132.0,
        flash_magnitude=3.0, flash_decay_s=8.0, flash_epicenter_ap=0,
        flash_radius=1,
    )
    streams = StreamFactory(master_seed=seed)
    flash_s = streams.get("city:flash")
    apps_s = streams.get("city:apps")
    params_s = streams.get("city:params")
    arrivals = sample_arrivals(
        streams.get("city:arrivals"), traffic.curve(daily_tasks=float(n)), n
    )
    flash = traffic.flash()
    plans = []
    for i in range(n):
        arrival = arrivals[i]
        weight = flash.cell_weight(i % CITY_APS)
        if weight > 0.0 and flash_s.bernoulli(CITY_FLASH_JOIN_P * weight):
            arrival = round(
                flash.at + flash.sample_offset(flash_s.uniform(0.0, 1.0)), 3
            )
        app = str(apps_s.choice(list(CITY_APP_MIX)))
        site = CITY_SITES[i % len(CITY_SITES)]
        slack = 0.0
        if app == "ebanking":
            params = {"transactions": make_transactions([site], 1)}
            stops = [Stop(site, task="banking")]
        elif app == "foodsearch":
            params = {
                "cuisine": str(params_s.choice(["cantonese", "thai", "italian"])),
                "max_price": params_s.randint(80, 200),
                "limit": 5,
            }
            stops = [Stop(site, task="search")]
        elif app == "mcommerce":
            params = {
                "item": str(params_s.choice(["camera", "phone", "pda"])),
                "budget": round(params_s.uniform(250.0, 450.0), 3),
            }
            stops = [Stop(site, task="shopping")]
        elif app == "ridedispatch":
            params = {
                "zone": str(params_s.choice(list(CITY_ZONES))),
                "max_eta_s": 600.0,
            }
            stops = [Stop(site, task="match")]
        elif app == "auctionsnipe":
            slack = round(params_s.uniform(*CITY_DEADLINE_SLACK_S), 3)
            params = {
                "lot": f"lot-{params_s.randint(0, 5)}",
                "budget": round(params_s.uniform(150.0, 520.0), 3),
            }
            stops = [Stop(site, task="quote")]
        else:
            size = params_s.randint(1, 3)
            shard_sites = [site, CITY_SITES[(i + 1) % len(CITY_SITES)]]
            params = {
                "job": {
                    "name": f"{params_s.choice(['render', 'index'])}-{size}",
                    "size": size,
                },
                "sites": shard_sites,
            }
            stops = [Stop(shard_sites[0], task="farm")]
        plans.append(
            {"device": i, "app": app, "params": params, "stops": stops,
             "arrival": arrival, "slack": slack}
        )
    return plans


def city_day(seed: int, setup_begins: Callable[[], None]) -> WorkloadRun:
    from repro.apps import (
        AuctionHouseServiceAgent,
        AuctionSnipeAgent,
        BankServiceAgent,
        DirectoryServiceAgent,
        DriverBoardServiceAgent,
        EBankingAgent,
        FoodSearchAgent,
        GridForemanServiceAgent,
        GridWorkerServiceAgent,
        JobCourierAgent,
        JobFarmAgent,
        RideDispatchAgent,
        ShoppingAgent,
        VendorServiceAgent,
        auction_service_code,
        ebanking_service_code,
        foodsearch_service_code,
        jobfarm_service_code,
        make_drivers,
        make_inventory,
        make_listings,
        make_lots,
        mcommerce_service_code,
        ridedispatch_service_code,
    )
    from repro.core import DeploymentBuilder, PDAgentConfig
    from repro.core.errors import DeadlineExpiredError, PDAgentError
    from repro.device import link_profile

    n = CITY_DEVICES
    setup_begins()
    plans = _city_plans(seed, n)
    # Admission is provisioned for the commute peaks, not the flash crowd:
    # the epicenter gateway's queue overflows and sheds, and shed devices
    # retry per Retry-After.
    config = PDAgentConfig(
        selection_policy="first",
        fleet_enabled=True,
        gateway_dispatch_workers=4,
        dispatch_cost_s=0.2,
        admission_queue_limit=8,
        admission_rate=4.0,
        admission_burst=4,
        shed_retry_after_s=1.0,
        retry_max_attempts=40,
        retry_deadline_s=600.0,
        retry_after_cap_s=15.0,
    )
    builder = DeploymentBuilder(master_seed=seed, config=config)
    builder.add_central("central")
    for g in range(CITY_GATEWAYS):
        builder.add_gateway(f"gw-{g}")
    for i, site in enumerate(CITY_SITES):
        builder.add_site(
            site,
            services=[
                BankServiceAgent(bank_name=site),
                DirectoryServiceAgent(
                    make_listings(i), partner=CITY_SITES[(i + 1) % len(CITY_SITES)]
                ),
                VendorServiceAgent(make_inventory(i)),
                DriverBoardServiceAgent(make_drivers(i)),
                AuctionHouseServiceAgent(make_lots(i)),
                GridWorkerServiceAgent(),
                GridForemanServiceAgent(),
            ],
        )
    for cls in (EBankingAgent, FoodSearchAgent, ShoppingAgent, RideDispatchAgent,
                AuctionSnipeAgent, JobFarmAgent, JobCourierAgent):
        builder.register_agent_class(cls)
    for code in (ebanking_service_code(), foodsearch_service_code(),
                 mcommerce_service_code(), ridedispatch_service_code(),
                 auction_service_code(), jobfarm_service_code()):
        builder.publish(code)
    for j in range(CITY_APS):
        builder.network.add_node(f"ap-{j}", kind="router")
        builder.network.add_duplex_link(f"ap-{j}", "backbone", link_profile("LAN"))
    for i in range(n):
        builder.add_device(
            f"dev-{i}", profile="PDA", wireless="WLAN", attach_to=f"ap-{i % CITY_APS}"
        )
    deployment = builder.build()
    sim = deployment.sim

    def gateway_of(i: int) -> str:
        return f"gw-{(i % CITY_APS) % CITY_GATEWAYS}"

    # The morning sync: every device refreshes its gateway list and
    # subscribes before the day starts.
    def prewarm(plan: dict[str, Any]) -> Generator:
        platform = deployment.platform(f"dev-{plan['device']}")
        yield from platform.selector.refresh_list()
        yield from platform.subscribe(plan["app"], gateway=gateway_of(plan["device"]))

    sim.run(until=sim.all_of([sim.process(prewarm(p)) for p in plans]))
    day_starts = sim.now
    outcomes = [Outcome(f"dev-{i}", False, detail="never ran") for i in range(n)]
    unexpected: list[str] = []

    def one_task(plan: dict[str, Any]) -> Generator:
        i = plan["device"]
        platform = deployment.platform(f"dev-{i}")
        yield sim.timeout(plan["arrival"])
        due = day_starts + plan["arrival"]
        deadline = round(due + plan["slack"], 3) if plan["slack"] else 0.0
        try:
            handle = yield from platform.deploy(
                plan["app"], plan["params"], stops=plan["stops"],
                gateway=gateway_of(i), deadline=deadline,
            )
            yield deployment.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
        except DeadlineExpiredError:
            outcomes[i] = Outcome(f"dev-{i}", False, detail="deadline")
            return
        except PDAgentError as exc:
            outcomes[i] = Outcome(f"dev-{i}", False, detail=type(exc).__name__)
            return
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            unexpected.append(f"{type(exc).__name__}: {exc}")
            outcomes[i] = Outcome(f"dev-{i}", False, detail="unexpected")
            return
        ok = result.status == "completed"
        outcomes[i] = Outcome(
            f"dev-{i}", ok, sim.now - due if ok else 0.0,
            "" if ok else f"status {result.status}",
        )

    sim.run(until=sim.all_of([sim.process(one_task(p)) for p in plans]))

    run = WorkloadRun(outcomes=outcomes, events=sim.events_processed, live=deployment)
    run.exports.append(("", _export(deployment)))
    run.device_tasks = {f"dev-{i}": 1 for i in range(n)}
    completed = sum(o.ok for o in outcomes)
    missed = sum(o.detail == "deadline" for o in outcomes)
    failed = sum(not o.ok and o.detail not in ("deadline", "never ran") for o in outcomes)
    sheds = deployment.network.tracer.counters.get("gateway.shed", 0)
    run.tallies = {
        "devices": n, "completed": completed, "deadline_missed": missed,
        "failed": failed, "gateway_sheds": sheds,
    }
    if completed + missed + failed != n:
        run.failed_checks.append(
            f"city-day: completed {completed} + deadline misses {missed} "
            f"+ failures {failed} != {n} tasks"
        )
    if unexpected:
        run.failed_checks.append(f"city-day: unexpected exceptions {unexpected[:3]}")
    return run


# ------------------------------------------------------------ swarm
def swarm(seed: int, setup_begins: Callable[[], None]) -> WorkloadRun:
    from repro.simtest import generate, run_spec

    run = WorkloadRun()
    violations = 0
    for k in range(SWARM_SCENARIOS):
        scenario = seed + k
        setup_begins()
        spec = generate(scenario)
        report = run_spec(spec)
        run.events += report.events_processed
        run.exports.append((f"s{scenario}/", report.jsonl))
        violations += len(report.violations)
        for v in report.violations:
            run.failed_checks.append(f"swarm seed {scenario}: {v.invariant}: {v.detail}")

        # Scheduled starts in launch order: each device's tasks, then the
        # overload burst.  run_spec records outcomes in the same order.
        due = [(d.name, t.app, t.start) for d in spec.devices for t in d.tasks]
        tasks = {d.name: len(d.tasks) for d in spec.devices}
        if spec.burst is not None:
            due += [(spec.burst.device, "foodsearch", spec.burst.at)] * spec.burst.n_tasks
            tasks[spec.burst.device] += spec.burst.n_tasks
        got = [(o.device, o.app) for o in report.outcomes]
        if got != [(d, a) for d, a, _ in due]:
            run.failed_checks.append(f"swarm seed {scenario}: outcomes out of launch order")
            continue
        for o, (_, _, start) in zip(report.outcomes, due):
            run.outcomes.append(
                Outcome(f"s{scenario}/{o.device}", o.ok,
                        o.finished_at - start if o.ok else 0.0, o.detail, k)
            )
        run.device_tasks.update({f"s{scenario}/{d}": c for d, c in tasks.items()})
    run.tallies = {
        "scenarios": SWARM_SCENARIOS,
        "completed": sum(o.ok for o in run.outcomes),
        "violations": violations,
    }
    return run


WORKLOADS = {"ebank-crowd": ebank_crowd, "city-day": city_day, "swarm": swarm}
