"""MA-enabled example applications built on the PDAgent public API.

* :mod:`~repro.apps.ebanking` — the paper's evaluation workload (§4);
* :mod:`~repro.apps.foodsearch` — the paper's other named example, with
  context-adaptive itinerary extension;
* :mod:`~repro.apps.newswire` — a fan-out digest exercising cloning;
* :mod:`~repro.apps.ridedispatch` — latency-critical geo-sharded matching;
* :mod:`~repro.apps.auction` — deadline-critical sniping (PI deadlines);
* :mod:`~repro.apps.jobfarm` — throughput-critical fan-out/merge farming.

:func:`add_app_sites` wires the six archetypes the swarm and the diversity
capstone mix into a deployment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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
]

if TYPE_CHECKING:  # pragma: no cover
    from ..core import DeploymentBuilder


def add_app_sites(builder: "DeploymentBuilder", sites: Sequence[str]) -> None:
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
