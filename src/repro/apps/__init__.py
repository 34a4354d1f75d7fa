"""MA-enabled example applications built on the PDAgent public API.

* :mod:`~repro.apps.ebanking` — the paper's evaluation workload (§4);
* :mod:`~repro.apps.foodsearch` — the paper's other named example, with
  context-adaptive itinerary extension;
* :mod:`~repro.apps.newswire` — a fan-out digest exercising cloning;
* :mod:`~repro.apps.ridedispatch` — latency-critical geo-sharded matching;
* :mod:`~repro.apps.auction` — deadline-critical sniping (PI deadlines);
* :mod:`~repro.apps.jobfarm` — throughput-critical fan-out/merge farming.

:func:`app_world` starts every world the experiments and the swarm build:
the central server, the gateways, the sites (each with the six archetypes'
service agents, via :func:`add_app_sites`) and the access points.
:func:`stops` is the one table of the stop task each archetype's agent runs
at a site.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import DeploymentBuilder, PDAgentConfig
from ..mas import Stop

from .auction import (
    AuctionHouseServiceAgent,
    AuctionSnipeAgent,
    auction_service_code,
    make_lots,
)
from .ebanking import (
    BANK_THINK_TIME,
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from .foodsearch import (
    DirectoryServiceAgent,
    FoodSearchAgent,
    foodsearch_service_code,
    make_listings,
)
from .jobfarm import (
    GridForemanServiceAgent,
    GridWorkerServiceAgent,
    JobCourierAgent,
    JobFarmAgent,
    jobfarm_service_code,
    make_job,
)
from .mcommerce import (
    ShoppingAgent,
    VendorServiceAgent,
    make_inventory,
    mcommerce_service_code,
)
from .newswire import (
    FeedServiceAgent,
    NewswireAgent,
    make_stories,
    newswire_service_code,
)
from .ridedispatch import (
    DriverBoardServiceAgent,
    RideDispatchAgent,
    make_drivers,
    ridedispatch_service_code,
)
from .workflow import (
    ApproverServiceAgent,
    WorkflowAgent,
    threshold_policy,
    workflow_service_code,
)

__all__ = [
    "BankServiceAgent",
    "EBankingAgent",
    "ebanking_service_code",
    "make_transactions",
    "BANK_THINK_TIME",
    "DirectoryServiceAgent",
    "FoodSearchAgent",
    "foodsearch_service_code",
    "make_listings",
    "FeedServiceAgent",
    "NewswireAgent",
    "newswire_service_code",
    "make_stories",
    "VendorServiceAgent",
    "ShoppingAgent",
    "mcommerce_service_code",
    "make_inventory",
    "ApproverServiceAgent",
    "WorkflowAgent",
    "workflow_service_code",
    "threshold_policy",
    "DriverBoardServiceAgent",
    "RideDispatchAgent",
    "ridedispatch_service_code",
    "make_drivers",
    "AuctionHouseServiceAgent",
    "AuctionSnipeAgent",
    "auction_service_code",
    "make_lots",
    "GridWorkerServiceAgent",
    "GridForemanServiceAgent",
    "JobCourierAgent",
    "JobFarmAgent",
    "jobfarm_service_code",
    "make_job",
    "add_app_sites",
    "app_world",
    "stops",
    "STOP_TASKS",
]

#: The stop task each archetype's agent runs at a site, by service name.
STOP_TASKS = {
    "ebanking": "banking",
    "foodsearch": "search",
    "mcommerce": "shopping",
    "ridedispatch": "match",
    "auctionsnipe": "quote",
    "jobfarm": "farm",
}


def stops(service: str, sites: Sequence[str]) -> list[Stop]:
    """The itinerary of a ``service`` task over ``sites``: one stop per
    site, running the archetype's stop task.

    A jobfarm itinerary carries only the rendezvous ``sites[0]``; the
    master fans the job out to the other shard sites inside the MAS tier.
    """
    if service == "jobfarm":
        sites = sites[:1]
    return [Stop(site, task=STOP_TASKS[service]) for site in sites]


def app_world(
    seed: int,
    gateways: Sequence[str],
    sites: Sequence[str],
    access_points: Sequence[str] = (),
    config: Optional[PDAgentConfig] = None,
    mas_flavour: str = "aglets",
) -> DeploymentBuilder:
    """A builder holding the central server ``"central"``, ``gateways``,
    ``sites`` (via :func:`add_app_sites`) and ``access_points``.

    Callers add their devices, then call ``build()``.  Service agents draw
    no randomness and schedule nothing until invoked, so a world gains the
    archetypes it does not use for free.
    """
    builder = DeploymentBuilder(
        master_seed=seed, config=config, mas_flavour=mas_flavour
    )
    builder.add_central("central")
    for gateway in gateways:
        builder.add_gateway(gateway)
    add_app_sites(builder, sites)
    for access_point in access_points:
        builder.add_access_point(access_point)
    return builder


def add_app_sites(builder: DeploymentBuilder, sites: Sequence[str]) -> None:
    """Add ``sites``, each hosting every archetype's service agents, then
    register the six archetypes' agent classes and publish their code.

    The archetypes are e-banking, food search, m-commerce, ride dispatch,
    auction sniping and grid job farming; each site's food directory
    partners with the next site in ``sites``.
    """
    for i, site in enumerate(sites):
        partner = sites[(i + 1) % len(sites)] if len(sites) > 1 else ""
        builder.add_site(
            site,
            services=[
                BankServiceAgent(bank_name=site),
                DirectoryServiceAgent(make_listings(i), partner=partner),
                VendorServiceAgent(make_inventory(i)),
                DriverBoardServiceAgent(make_drivers(i)),
                AuctionHouseServiceAgent(make_lots(i)),
                GridWorkerServiceAgent(),
                GridForemanServiceAgent(),
            ],
        )
    for cls in (
        EBankingAgent,
        FoodSearchAgent,
        ShoppingAgent,
        RideDispatchAgent,
        AuctionSnipeAgent,
        JobFarmAgent,
        JobCourierAgent,
    ):
        builder.register_agent_class(cls)
    for code in (
        ebanking_service_code(),
        foodsearch_service_code(),
        mcommerce_service_code(),
        ridedispatch_service_code(),
        auction_service_code(),
        jobfarm_service_code(),
    ):
        builder.publish(code)
